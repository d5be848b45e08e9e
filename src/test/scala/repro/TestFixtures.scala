package repro

import org.apache.spark.sql.SparkSession

import repro.core.{BlockStore, PartitionPlan}
import repro.ivf.{BuildTimes, IVFIndex}
import repro.vectors.{GenConfig, VectorDataset, VectorGen}

/** Small deterministic fixtures shared across suites (built once per JVM). */
object TestFixtures {

  /** Small clustered dataset: 8k vectors × 64 dims, moderate energy decay —
    * just big enough that compute (not per-stage overhead) dominates the
    * simulated timings, as at bench scale. */
  val smallCfg: GenConfig = GenConfig(
    name = "test-small", n = 8000, dim = 64, nQueries = 24,
    nGenClusters = 16, decayRate = 2.0, seed = 7)

  /** Isotropic, tight-distance variant (GloVe-class: hard to prune). */
  val flatCfg: GenConfig =
    smallCfg.copy(name = "test-flat", decayRate = 0.0, radiusSpread = 0.25, seed = 8)

  /** Strongly decayed, widely-spread variant (time-series-class: easy to prune). */
  val decayCfg: GenConfig =
    smallCfg.copy(name = "test-decay", decayRate = 8.0, radiusSpread = 0.9, seed = 9)

  /** Near-flat energy with wide distance bands (image-class: pruning works
    * in any slice order → hybrid grids pay off). */
  val midCfg: GenConfig =
    smallCfg.copy(name = "test-mid", decayRate = 0.8, radiusSpread = 0.9, seed = 10)

  /** Four dimensions: on a 1×4 grid every slice is one dimension wide. */
  val dim4Cfg: GenConfig =
    smallCfg.copy(name = "test-dim4", n = 2000, dim = 4, seed = 11)

  lazy val small: VectorDataset = VectorGen.generate(smallCfg)
  lazy val dim4: VectorDataset = VectorGen.generate(dim4Cfg)
  lazy val flat: VectorDataset = VectorGen.generate(flatCfg)
  lazy val decay: VectorDataset = VectorGen.generate(decayCfg)
  lazy val mid: VectorDataset = VectorGen.generate(midCfg)

  val testNlist = 32

  private val idxCache = scala.collection.concurrent.TrieMap.empty[String, (IVFIndex, BuildTimes)]

  def index(spark: SparkSession, ds: VectorDataset): (IVFIndex, BuildTimes) =
    idxCache.getOrElseUpdate(ds.config.name,
      IVFIndex.build(spark, ds, testNlist, seed = ds.config.seed))

  /** `small`'s index with an empty twin of every cluster appended: twin
    * `c + nlist` has `c`'s centroid and no rows, so every probe list
    * alternates a cluster and its empty twin (ties go to the lower id). */
  def withEmptyTwins(spark: SparkSession): IVFIndex = {
    val (idx, _) = index(spark, small)
    new IVFIndex(idx.dim, idx.centroids ++ idx.centroids.map(_.clone()),
      idx.listIds ++ Array.fill(idx.nlist)(Array.emptyLongArray),
      idx.listData ++ Array.fill(idx.nlist)(Array.emptyFloatArray))
  }

  /** `small`'s index laid out on a `bVec × bDim` plan with storage-balanced
    * placement, independent of the planner; the caller unpersists the store. */
  def smallStore(spark: SparkSession, bVec: Int, bDim: Int): (IVFIndex, BlockStore) = {
    val (idx, _) = index(spark, small)
    val plan = PartitionPlan.build(bVec, bDim, idx.dim, idx.listSizes.map(_.toDouble),
      balanced = true)
    (idx, BlockStore.build(spark, idx, plan))
  }
}
