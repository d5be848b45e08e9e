package repro.core

import repro.{SparkSpec, TestFixtures => F}
import repro.linalg.VecOps

class HarmonySpec extends SparkSpec {

  private lazy val (idx, _) = F.index(spark, F.small)
  private lazy val (idxFlat, _) = F.index(spark, F.flat)

  private def cfg(mode: Mode, nNodes: Int = 4): HarmonyConfig =
    HarmonyConfig(nNodes = nNodes, mode = mode, k = 10, nprobe = 8)

  test("vector mode deploys the (nNodes, 1) grid") {
    val sys = Harmony.deploy(spark, idx, cfg(Mode.HarmonyVector), F.small.queries)
    try {
      assert(sys.plan.bVec == 4 && sys.plan.bDim == 1)
      assert(sys.planCost.isEmpty)
    } finally sys.shutdown()
  }

  test("dimension mode deploys the (1, nNodes) grid") {
    val sys = Harmony.deploy(spark, idx, cfg(Mode.HarmonyDimension), F.small.queries)
    try assert(sys.plan.bVec == 1 && sys.plan.bDim == 4)
    finally sys.shutdown()
  }

  test("harmony mode consults the cost model and records the plan cost") {
    val sys = Harmony.deploy(spark, idx, cfg(Mode.Harmony), F.small.queries)
    try {
      assert(sys.planCost.isDefined)
      val c = sys.planCost.get
      assert(c.bVec * c.bDim == 4)
      assert((c.bVec, c.bDim) == (sys.plan.bVec, sys.plan.bDim))
    } finally sys.shutdown()
  }

  test("harmony mode deploys exactly the plan the cost model scored") {
    for (balanced <- Seq(true, false)) {
      val c = cfg(Mode.Harmony).copy(balancedLoad = balanced)
      val sys = Harmony.deploy(spark, idx, c, F.small.queries)
      try {
        val probes = F.small.queries.map(VecOps.nearestN(_, idx.centroids, c.nprobe))
        val survival = CostModel.SurvivalStats.fromData(idx, F.small.queries, k = c.k)
        val again = CostModel.estimate(sys.plan, c, idx.listSizes, probes, survival)
        val got = sys.planCost.get
        def bits(p: CostModel.PlanCost): Seq[Long] =
          Seq(p.imbalanceSec, p.totalSec, p.report.compSeconds, p.report.commSeconds,
            p.report.otherSeconds, p.report.totalSeconds).map(java.lang.Double.doubleToRawLongBits) ++
            Seq(p.report.totalDimOps, p.report.totalBytes, p.report.totalMsgs) ++ p.report.perNodeDimOps
        assert((again.bVec, again.bDim) == (got.bVec, got.bDim), s"balanced=$balanced")
        assert(bits(again) == bits(got), s"balanced=$balanced")
      } finally sys.shutdown()
    }
  }

  test("harmony picks a hybrid split on wide-band, flat-energy data") {
    // image-class data: distance mass spreads across slices (pruning works
    // in any visit order) and distances are widely spread around τ — the
    // regime where dimension splitting pays (per-stage sync cost dropped:
    // it is negligible at real scale but dominant at this 64-dim scale)
    val (idxMid, _) = F.index(spark, F.mid)
    val computeDominant = repro.sim.CostParams(
      stageOverheadSeconds = 0.0, msgLatencySeconds = 0.0)
    val sys = Harmony.deploy(spark, idxMid,
      cfg(Mode.Harmony).copy(costParams = computeDominant), F.mid.queries)
    try assert(sys.plan.bDim > 1, s"plan (${sys.plan.bVec}, ${sys.plan.bDim})")
    finally sys.shutdown()
  }

  test("harmony moves toward dimension splits under skew when compute dominates") {
    // isolate the skew response: with free communication (the regime of the
    // paper's high-dimensional datasets, where compute dwarfs transfers) an
    // extremely skewed workload must push the planner to dimension splits.
    val freeComm = repro.sim.CostParams(
      byteSeconds = 0.0, msgLatencySeconds = 0.0, stageOverheadSeconds = 0.0)
    val skewQ = repro.exp.Experiments.adversarialQueries(idxFlat, F.flat, 4, 64, 1.0)
    def bDimFor(qs: Array[Array[Float]]): Int = {
      val sys = Harmony.deploy(spark, idxFlat,
        cfg(Mode.Harmony).copy(alpha = 3.0, costParams = freeComm), qs)
      try sys.plan.bDim finally sys.shutdown()
    }
    assert(bDimFor(skewQ) > 1)
  }

  test("nNodes = 1 deploys the degenerate single-node plan") {
    val sys = Harmony.deploy(spark, idx, cfg(Mode.Harmony, nNodes = 1), F.small.queries)
    try assert(sys.plan.nNodes == 1 && sys.plan.bVec == 1 && sys.plan.bDim == 1)
    finally sys.shutdown()
  }

  test("dimension mode lays out the same plan with balancedLoad on and off") {
    // one vector shard holds every cluster, so only the slice visit order
    // (load-aware vs dimension order) depends on the toggle
    val on = Harmony.deploy(spark, idx, cfg(Mode.HarmonyDimension), F.small.queries)
    val off = Harmony.deploy(spark, idx,
      cfg(Mode.HarmonyDimension).copy(balancedLoad = false), F.small.queries)
    try {
      assert(on.plan.shardOfCluster.toSeq == off.plan.shardOfCluster.toSeq)
      assert(on.plan.shardOfCluster.forall(_ == 0))
      assert(on.plan.sliceBounds.toSeq == off.plan.sliceBounds.toSeq)
    } finally { on.shutdown(); off.shutdown() }
  }

  test("balancedLoad toggle switches to naive placement") {
    val on = Harmony.deploy(spark, idx, cfg(Mode.HarmonyVector), F.small.queries)
    val off = Harmony.deploy(spark, idx,
      cfg(Mode.HarmonyVector).copy(balancedLoad = false), F.small.queries)
    try {
      assert(off.plan.shardOfCluster.toSeq ==
        PartitionPlan.assignShardsNaive(idx.nlist, 4).toSeq)
      // balanced placement spreads storage more evenly than naive
      val spreadOn = on.store.perNodeStorageBytes.max - on.store.perNodeStorageBytes.min
      val spreadOff = off.store.perNodeStorageBytes.max - off.store.perNodeStorageBytes.min
      assert(spreadOn <= spreadOff + 1024)
    } finally { on.shutdown(); off.shutdown() }
  }

  test("buildTimes carries pre-assign from the block store") {
    val sys = Harmony.deploy(spark, idx, cfg(Mode.Harmony), F.small.queries)
    try {
      assert(sys.buildTimes.preAssignMs == sys.store.preAssignMs)
      assert(sys.buildTimes.preAssignMs >= 0)
    } finally sys.shutdown()
  }

  test("deploy with empty workload sample still works (size-balanced placement)") {
    val sys = Harmony.deploy(spark, idx, cfg(Mode.Harmony), Array.empty)
    try {
      val r = sys.search(F.small.queries.take(4))
      assert(r.hits.length == 4)
      assert(r.hits.forall(_.nonEmpty))
    } finally sys.shutdown()
  }

  // ---- configuration validation --------------------------------------

  for ((field, bad) <- Seq[(String, HarmonyConfig => HarmonyConfig)](
         "nNodes" -> (_.copy(nNodes = 0)),
         "k" -> (_.copy(k = 0)),
         "nprobe" -> (_.copy(nprobe = 0)),
         "maxWaves" -> (_.copy(maxWaves = 0)),
         "alpha" -> (_.copy(alpha = -0.5)))) {
    test(s"HarmonyConfig rejects an out-of-range $field") {
      val e = intercept[IllegalArgumentException](bad(HarmonyConfig()))
      assert(e.getMessage.contains(s"$field must"))
    }
  }
}
