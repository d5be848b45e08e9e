package repro.vectors

import java.util.Random

import repro.linalg.{Par, VecOps}

/** Configuration of a synthetic vector dataset.
  *
  * Datasets are Gaussian mixtures over `nGenClusters` latent centers with a
  * per-dimension variance *energy profile* `exp(-decayRate * i / dim)`:
  *
  *  - `decayRate = 0` → isotropic data (GloVe-like text embeddings, hard to
  *    prune because distance mass accrues evenly across dimension slices);
  *  - large `decayRate` → energy concentrated in leading dimensions
  *    (time-series-like data, easy to prune after the first slices).
  *
  * This is the property class that drives the paper's Table 3 pruning-ratio
  * differences across datasets (see DESIGN.md, substitutions).
  */
final case class GenConfig(
    name: String,
    n: Int,
    dim: Int,
    nQueries: Int,
    nGenClusters: Int = 64,
    clusterStd: Double = 1.0,
    /** std of latent cluster centers; the ratio to clusterStd sets cluster
      * overlap and thereby how far probed-neighbor candidates sit from the
      * true top-K distance (the calibrated bands are in EXPERIMENTS.md) */
    centerScale: Double = 1.0,
    decayRate: Double = 1.0,
    /** lognormal sigma of the per-vector radius multiplier. Real embedding
      * datasets have low intrinsic dimension and therefore widely spread
      * distance distributions; without this, high-dim Gaussian noise
      * concentrates all pairwise distances and no threshold can prune
      * (Table 3 would collapse). */
    radiusSpread: Double = 0.7,
    normalize: Boolean = false,
    seed: Long = 42L,
    dataType: String = "Synthetic",
    paperSize: Long = 0L,
    paperDim: Int = 0,
    paperQueries: Int = 0,
) {
  require(n > 0 && dim > 0 && nQueries > 0 && nGenClusters > 0)
}

/** A materialized synthetic dataset: base vectors, ids, and a default
  * (uniform-workload) query set.
  */
final case class VectorDataset(
    config: GenConfig,
    ids: Array[Long],
    data: Array[Array[Float]],
    queries: Array[Array[Float]],
) {
  def n: Int = data.length
  def dim: Int = config.dim
  /** Raw payload bytes of the base vectors (float32), excluding ids. */
  def dataBytes: Long = n.toLong * dim * 4L
}

object VectorGen {

  /** Per-dimension standard-deviation profile sqrt(exp(-decayRate * i / dim)). */
  def stdProfile(dim: Int, decayRate: Double): Array[Double] =
    Array.tabulate(dim)(i => math.sqrt(math.exp(-decayRate * i / dim)))

  /** Latent mixture centers, deterministic in the seed. */
  def genCenters(cfg: GenConfig): Array[Array[Float]] = {
    val prof = stdProfile(cfg.dim, cfg.decayRate)
    Array.tabulate(cfg.nGenClusters) { c =>
      val rnd = new Random(cfg.seed * 1000003L + c)
      Array.tabulate(cfg.dim)(i => (rnd.nextGaussian() * cfg.centerScale * prof(i)).toFloat)
    }
  }

  /** One vector drawn around `center` with the dataset's noise profile.
    * Deterministic in (cfg.seed, tag). */
  def drawAround(cfg: GenConfig, center: Array[Float], prof: Array[Double], tag: Long): Array[Float] = {
    val rnd = new Random(cfg.seed ^ (tag * 0x9E3779B97F4A7C15L))
    val s = cfg.radiusSpread
    val rmul = math.exp(s * rnd.nextGaussian() - s * s / 2.0)
    val v = Array.tabulate(cfg.dim)(i =>
      (center(i) + rnd.nextGaussian() * cfg.clusterStd * prof(i) * rmul).toFloat)
    if (cfg.normalize) VecOps.normalizeInPlace(v)
    v
  }

  /** Latent cluster of base vector `id` (round-robin so clusters are equal-sized). */
  def baseCluster(cfg: GenConfig, id: Long): Int = (id % cfg.nGenClusters).toInt

  /** Generate the full dataset, deterministic in the config. */
  def generate(cfg: GenConfig): VectorDataset = {
    val centers = genCenters(cfg)
    val prof = stdProfile(cfg.dim, cfg.decayRate)
    val data = new Array[Array[Float]](cfg.n)
    Par.foreachChunk(cfg.n, (lo, hi) => {
      var i = lo
      while (i < hi) {
        data(i) = drawAround(cfg, centers(baseCluster(cfg, i.toLong)), prof, i.toLong)
        i += 1
      }
    })
    val ids = Array.tabulate(cfg.n)(_.toLong)
    val queries = genQueries(cfg, cfg.nQueries, zipfAlpha = 0.0, seed = cfg.seed + 7)
    VectorDataset(cfg, ids, data, queries)
  }

  /** Generate `nQ` query vectors whose latent clusters follow a Zipf law of
    * exponent `zipfAlpha` over a seed-dependent hot-cluster permutation.
    * `zipfAlpha = 0` is the uniform workload; larger values concentrate
    * queries on fewer clusters (the paper's skewed workloads).
    */
  def genQueries(cfg: GenConfig, nQ: Int, zipfAlpha: Double, seed: Long): Array[Array[Float]] = {
    val centers = genCenters(cfg)
    val prof = stdProfile(cfg.dim, cfg.decayRate)
    val ranks = zipfRanks(cfg.nGenClusters, zipfAlpha)
    val perm = {
      val rnd = new Random(cfg.seed + 31)
      val p = (0 until cfg.nGenClusters).toArray
      var i = p.length - 1
      while (i > 0) { val j = rnd.nextInt(i + 1); val t = p(i); p(i) = p(j); p(j) = t; i -= 1 }
      p
    }
    val rnd = new Random(seed)
    Array.tabulate(nQ) { q =>
      val rank = sampleDiscrete(ranks, rnd.nextDouble())
      drawAround(cfg, centers(perm(rank)), prof, 1000000007L + q * 31L + seed)
    }
  }

  /** Normalized Zipf pmf over `n` ranks with exponent `alpha`. */
  def zipfRanks(n: Int, alpha: Double): Array[Double] = {
    val w = Array.tabulate(n)(k => 1.0 / math.pow(k + 1.0, alpha))
    val s = w.sum
    w.map(_ / s)
  }

  /** Inverse-CDF sample from a pmf given u in [0,1). */
  def sampleDiscrete(pmf: Array[Double], u: Double): Int = {
    var acc = 0.0
    var i = 0
    while (i < pmf.length) {
      acc += pmf(i)
      if (u < acc) return i
      i += 1
    }
    pmf.length - 1
  }
}
