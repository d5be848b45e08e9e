package repro.jobs

import repro.exp.Experiments
import repro.linalg.{TopK, VecOps}
import repro.vectors.{Datasets, GenConfig, VectorGen}

/** Diagnostic: distribution of candidate distances relative to the true
  * k-th-nearest distance τ*. Pruning behaviour (Table 3) is governed by the
  * mass in the bands dist < 1.33τ* (unprunable before the last slice),
  * 1.33–4τ* (prunable mid-pipeline), and > 4τ* (prunable after one slice) —
  * used to calibrate the synthetic generators' cluster overlap.
  */
object Calibrate {
  def bands(cfg: GenConfig, nprobe: Int = 16, k: Int = 10, nQ: Int = 20): (Double, Double, Double, Double) = {
    val ds = VectorGen.generate(cfg)
    val nlist = Experiments.nlistFor(cfg.n)
    val km = repro.ivf.KMeans.fit(ds.data, nlist, maxIter = 8, seed = cfg.seed)
    val assign = repro.ivf.KMeans.assignAll(ds.data, km.centroids).clusters
    val lists = Array.fill(nlist)(scala.collection.mutable.ArrayBuffer.empty[Int])
    assign.zipWithIndex.foreach { case (c, i) => lists(c) += i }
    var lo = 0L; var mid = 0L; var hi = 0L; var total = 0L
    var recallSum = 0.0
    ds.queries.take(nQ).foreach { q =>
      val truth = TopK.bruteForce(q, ds.ids, ds.data, k)
      val tau = truth.last.dist
      val probed = VecOps.nearestN(q, km.centroids, nprobe)
      val got = probed.flatMap(c => lists(c)).toSet
      recallSum += truth.count(h => got.contains(h.id.toInt)).toDouble / k
      probed.foreach { c =>
        lists(c).foreach { i =>
          val d = VecOps.l2(q, ds.data(i))
          total += 1
          if (d < 1.33 * tau) lo += 1 else if (d < 4 * tau) mid += 1 else hi += 1
        }
      }
    }
    (lo.toDouble / total, mid.toDouble / total, hi.toDouble / total, recallSum / nQ)
  }

  def main(args: Array[String]): Unit = {
    for (cfg <- Seq(Datasets.glove1_2m, Datasets.sift1m, Datasets.starLightCurves)) {
      val (lo, mid, hi, rec) = bands(cfg.copy(n = math.min(cfg.n, 30000)))
      println(f"${cfg.name}%-16s  <1.33t: ${lo * 100}%5.1f%%  1.33-4t: ${mid * 100}%5.1f%%  >4t: ${hi * 100}%5.1f%%  recall@10(np16): ${rec}%4.2f")
    }
  }
}
