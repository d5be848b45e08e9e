package repro.core

import org.apache.spark.sql.SparkSession

import repro.ivf.{BuildTimes, IVFIndex}
import repro.linalg.VecOps
import repro.sim.CostParams

/** The paper's `-Mode` parameter. */
sealed trait Mode extends Serializable
object Mode {
  /** adaptive hybrid partitioning chosen by the cost model */
  case object Harmony extends Mode
  /** pure vector-based partitioning (traditional distribution) */
  case object HarmonyVector extends Mode
  /** pure dimension-based partitioning */
  case object HarmonyDimension extends Mode
}

/** System-level configuration mirroring the paper's CLI parameters
  * (`-NMachine`, `-Pruning_Configuration`, `-Indexing_Parameters`, `-α`,
  * `-Mode`) plus the ablation toggles of §6.3.2. It is the only
  * configuration: deploy, the planner and the engine all read it. The
  * prewarm depth is fixed ([[Dataflow.PrewarmPerCluster]]).
  */
final case class HarmonyConfig(
    nNodes: Int = 4,
    mode: Mode = Mode.Harmony,
    k: Int = 10,
    nprobe: Int = 16,
    pruning: Boolean = true,
    /** vector-level waves (`maxWaves` of them) tightening τ², simulated
      * with overlapped comm; off → one wave, simulated as blocking stages
      * (the engine and the planner price both the same way) */
    pipeline: Boolean = true,
    /** load-aware placement + balanced start slices; off → naive cluster
      * placement, every batch starting at slice 0 */
    balancedLoad: Boolean = true,
    /** weight of the imbalance term; per-node makespan already prices the
      * bulk of skew, so the default expresses a mild extra skew-aversion */
    alpha: Double = 0.5,
    /** waves per probe list with `pipeline` on: a list of `n >= maxWaves`
      * clusters is split into `maxWaves` non-empty, doubling waves
      * (`Dataflow.waveStart`; 1/2/4/9 of 16), a shorter one into one
      * cluster per wave */
    maxWaves: Int = 4,
    costParams: CostParams = CostParams(),
) {
  require(nNodes >= 1, s"nNodes must be at least 1: $nNodes")
  require(k >= 1, s"k must be at least 1: $k")
  require(nprobe >= 1, s"nprobe must be at least 1: $nprobe")
  require(maxWaves >= 1, s"maxWaves must be at least 1: $maxWaves")
  require(alpha >= 0, s"alpha must be non-negative: $alpha")
}

object HarmonyConfig {

  /** The Auncel comparator (§6.5.4). Auncel distributes work with a *fixed*
    * vector-based partitioning and no dimension-level pruning or load-aware
    * placement — the paper itself characterizes its distribution as
    * "similar to Harmony-vector". We model exactly that: vector
    * partitioning, static (naive) cluster placement, pruning off. */
  def auncel(nNodes: Int, k: Int, nprobe: Int): HarmonyConfig = HarmonyConfig(
    nNodes = nNodes, mode = Mode.HarmonyVector, k = k, nprobe = nprobe,
    pruning = false, balancedLoad = false)
}

/** A deployed Harmony system: an IVF index laid out on the simulated
  * cluster per the chosen partition plan, ready to serve query batches.
  */
final class HarmonySystem(
    val spark: SparkSession,
    val index: IVFIndex,
    val cfg: HarmonyConfig,
    val plan: PartitionPlan,
    val store: BlockStore,
    val planCost: Option[CostModel.PlanCost],
    val buildTimes: BuildTimes,
) {
  /** Execute one query batch through the pipelined engine. */
  def search(queries: Array[Array[Float]]): EngineResult =
    Engine.search(spark, store, index, queries, cfg)

  def shutdown(): Unit = store.unpersist()
}

object Harmony {

  /** Deploy `index` on the simulated cluster.
    *
    * Every mode lays out `PartitionPlan.forWorkload`, with per-cluster probe
    * popularity estimated from `workloadSample` — the "anticipated workload"
    * of the paper's query-load distribution step. The grid is fixed per mode
    * for the two baselines; for `Mode.Harmony` the cost model (§4.2) scores
    * each candidate plan on the sample's probe lists and the one it returns
    * is deployed unchanged.
    */
  def deploy(
      spark: SparkSession,
      index: IVFIndex,
      cfg: HarmonyConfig,
      workloadSample: Array[Array[Float]],
      indexTimes: BuildTimes = BuildTimes(0, 0, 0),
  ): HarmonySystem = {
    val dim = index.dim
    val listSizes = index.listSizes
    val probes = workloadSample.map(q => VecOps.nearestN(q, index.centroids, cfg.nprobe))
    val popularity = CostModel.popularityOf(probes.toSeq, index.nlist)
    def fixed(bVec: Int, bDim: Int): PartitionPlan =
      PartitionPlan.forWorkload(bVec, bDim, dim, listSizes, popularity, cfg.balancedLoad)

    val (plan, planCost) = cfg.mode match {
      case Mode.HarmonyVector => (fixed(cfg.nNodes, 1), None)
      case Mode.HarmonyDimension => (fixed(1, cfg.nNodes), None)
      case Mode.Harmony =>
        val survival = CostModel.SurvivalStats.fromData(index, workloadSample, k = cfg.k)
        val (p, c) = CostModel.choose(cfg, dim, listSizes, probes, survival)
        (p, Some(c))
    }
    val store = BlockStore.build(spark, index, plan)
    val times = indexTimes.copy(preAssignMs = store.preAssignMs)
    new HarmonySystem(spark, index, cfg, plan, store, planCost, times)
  }
}
