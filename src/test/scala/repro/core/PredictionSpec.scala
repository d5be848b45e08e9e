package repro.core

import repro.{SparkSpec, TestFixtures => F}
import repro.ivf.IVFIndex
import repro.linalg.VecOps
import repro.sim.{NodeLedger, SimReport, StageRecord}

/** The planner predicts the ledgers the engine counts. With pruning off and
  * a batch's own probe lists as the workload sample, every predicted ledger
  * is the engine's count and the predicted report is the measured one, bit
  * for bit; with pruning on, everything pruning cannot change still is.
  */
class PredictionSpec extends SparkSpec {
  import PredictionSpec.Run

  private val nprobe = 8

  /** Predict and search `queries` on the plan deploy lays out for grid
    * (bVec, bDim), with the queries themselves as the workload sample. */
  private def run(idx: IVFIndex, queries: Array[Array[Float]], bVec: Int, bDim: Int,
                  cfg: HarmonyConfig): Run = {
    val probes = queries.map(VecOps.nearestN(_, idx.centroids, cfg.nprobe))
    val plan = PartitionPlan.forWorkload(bVec, bDim, idx.dim, idx.listSizes,
      CostModel.popularityOf(probes.toSeq, idx.nlist), cfg.balancedLoad)
    val survival = CostModel.SurvivalStats.fromData(idx, queries, k = cfg.k)
    val store = BlockStore.build(spark, idx, plan)
    val measured = try Engine.search(spark, store, idx, queries, cfg) finally store.unpersist()
    Run(cfg, plan, probes, CostModel.predict(plan, cfg, idx.listSizes, probes, survival),
      CostModel.estimate(plan, cfg, idx.listSizes, probes, survival).report, measured)
  }

  private def rows(stages: Seq[StageRecord]): Seq[(Int, Int, Seq[NodeLedger])] =
    stages.map(s => (s.wave, s.stagePos, s.perNode.toSeq))

  private def bits(r: SimReport): Seq[Any] =
    Seq(r.nNodes, r.nQueries, r.totalDimOps, r.totalBytes, r.totalMsgs, r.perNodeDimOps.toSeq) ++
      Seq(r.compSeconds, r.commSeconds, r.otherSeconds, r.totalSeconds).map(java.lang.Double.doubleToRawLongBits)

  /** Every candidate grid of 4 nodes × pipeline × balanced load. */
  private def configs(idx: IVFIndex, maxWaves: Int): Seq[(Int, Int, HarmonyConfig)] =
    for ((bv, bd) <- PartitionPlan.candidateGrids(4, idx.dim); pipeline <- Seq(true, false);
         balanced <- Seq(true, false))
      yield (bv, bd, HarmonyConfig(nNodes = 4, nprobe = nprobe, pruning = false, pipeline = pipeline,
        balancedLoad = balanced, maxWaves = maxWaves))

  private def clue(bv: Int, bd: Int, cfg: HarmonyConfig): String =
    s"${bv}x$bd pipeline=${cfg.pipeline} balanced=${cfg.balancedLoad} pruning=${cfg.pruning}"

  /** Without pruning the prediction is the engine's count, and its price. */
  private def assertExact(idx: IVFIndex, queries: Array[Array[Float]], maxWaves: Int = 4): Seq[Run] =
    configs(idx, maxWaves).map { case (bv, bd, cfg) =>
      val r = run(idx, queries, bv, bd, cfg)
      withClue(clue(bv, bd, cfg) + ": ") {
        assert(rows(r.predicted.stages) == rows(r.measured.ledgers.stages))
        assert(r.predicted.clientDimOps == r.measured.ledgers.clientDimOps)
        assert(r.predicted.clientBytes == r.measured.ledgers.clientBytes)
        assert(bits(r.priced) == bits(r.measured.report))
      }
      r
    }

  test("with pruning off, the predicted ledgers and report are the engine's on every grid") {
    assertExact(F.index(spark, F.small)._1, F.small.queries)
  }

  test("with pruning on, stages, client ops and first positions are predicted exactly") {
    val (idx, _) = F.index(spark, F.small)
    for ((bv, bd, off) <- configs(idx, maxWaves = 4)) {
      val cfg = off.copy(pruning = true)
      val r = run(idx, F.small.queries, bv, bd, cfg)
      withClue(clue(bv, bd, cfg) + ": ") {
        val (pred, got) = (r.predicted.stages, r.measured.ledgers.stages)
        assert(pred.map(s => (s.wave, s.stagePos)) == got.map(s => (s.wave, s.stagePos)))
        assert(r.predicted.clientDimOps == r.measured.ledgers.clientDimOps)
        def first(st: Seq[StageRecord]) = st.filter(_.stagePos == 0)
          .map(_.perNode.toSeq.map(l => (l.dimOps, l.bytesIn, l.msgsIn)))
        assert(first(pred) == first(got))
      }
    }
  }

  test("batches without rows are counted on their first hop and send nothing after it") {
    // one cluster per wave: every probed empty twin is a batch of its own
    val idx = F.withEmptyTwins(spark)
    assertExact(idx, F.small.queries, maxWaves = nprobe).filter(_.cfg.pipeline).foreach { r =>
      val batches = Dataflow.waves(r.probes, idx.listSizes, r.plan, r.cfg).flatten
      def msgsIn(atPos: Int => Boolean): Long =
        r.measured.ledgers.stages.filter(s => atPos(s.stagePos)).flatMap(_.perNode).map(_.msgsIn).sum
      withClue(clue(r.plan.bVec, r.plan.bDim, r.cfg) + ": ") {
        assert(batches.exists(_.nRows == 0))
        assert(msgsIn(_ == 0) == batches.size)
        assert(msgsIn(_ > 0) == batches.count(_.nRows > 0) * (r.plan.bDim - 1L))
      }
    }
  }

  test("one dimension per slice (bDim == dim) is predicted exactly") {
    val (idx, _) = F.index(spark, F.dim4)
    assertExact(idx, F.dim4.queries)
  }
}

object PredictionSpec {
  /** One batch predicted (its ledgers and their price) and measured. */
  final case class Run(cfg: HarmonyConfig, plan: PartitionPlan, probes: Array[Array[Int]],
                       predicted: BatchLedgers, priced: SimReport, measured: EngineResult)
}
