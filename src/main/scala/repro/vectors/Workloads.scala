package repro.vectors

/** Query workload construction for the skew experiments (§6.2.2, Fig 7).
  *
  * A workload is a query set whose latent-cluster distribution follows a
  * Zipf law; `skewLevel` in [0, 1] maps onto a Zipf exponent so that level 0
  * is the uniform workload and level 1 concentrates almost all queries on a
  * handful of clusters (→ one hot vector shard under vector partitioning).
  */
object Workloads {

  /** Zipf exponent for a skew level in [0,1]. */
  def alphaFor(skewLevel: Double): Double = {
    require(skewLevel >= 0.0 && skewLevel <= 1.0, s"skewLevel out of range: $skewLevel")
    skewLevel * 3.0
  }

  /** Build a query workload at the given skew level. */
  def queries(cfg: GenConfig, nQ: Int, skewLevel: Double, seed: Long = 991L): Array[Array[Float]] =
    VectorGen.genQueries(cfg, nQ, alphaFor(skewLevel), seed)

  /** Empirical per-key load histogram → normalized counts. */
  def histogram(keys: Seq[Int], nKeys: Int): Array[Double] = {
    val h = new Array[Double](nKeys)
    keys.foreach(k => h(k) += 1.0)
    val s = math.max(1.0, keys.size.toDouble)
    h.map(_ / s)
  }
}
