package repro.baselines

import repro.{SparkSpec, TestFixtures => F}
import repro.core.{Harmony, HarmonyConfig, HarmonySystem, Mode, PartitionPlan}
import repro.linalg.TopK
import repro.sim.CostParams

class BaselinesSpec extends SparkSpec {

  private lazy val (idx, _) = F.index(spark, F.small)

  /** The §6.5.4 comparator: the Auncel preset, deployed without a workload
    * sample (its placement is static). */
  private def auncel(): HarmonySystem =
    Harmony.deploy(spark, idx, HarmonyConfig.auncel(nNodes = 4, k = 10, nprobe = 8),
      workloadSample = Array.empty)

  test("Faiss baseline returns exact results at nprobe = nlist") {
    val r = Faiss.run(idx, F.small.queries.take(5), 10, idx.nlist, CostParams())
    r.hits.zipWithIndex.foreach { case (hs, q) =>
      val exact = TopK.bruteForce(F.small.queries(q), F.small.ids, F.small.data, 10)
      assert(hs.map(_.id).toSeq == exact.map(_.id).toSeq)
    }
  }

  test("Faiss report is single-node with zero communication") {
    val r = Faiss.run(idx, F.small.queries, 10, 4, CostParams())
    assert(r.report.nNodes == 1)
    assert(r.report.totalBytes == 0)
    assert(r.report.commSeconds == 0.0)
    assert(r.report.totalDimOps > 0)
  }

  test("Faiss QPS scales inversely with nprobe") {
    val lo = Faiss.run(idx, F.small.queries, 10, 2, CostParams()).report.qps
    val hi = Faiss.run(idx, F.small.queries, 10, 16, CostParams()).report.qps
    assert(lo > hi)
  }

  test("Auncel deploys a static naive vector partitioning without pruning") {
    val sys = auncel()
    try {
      assert(sys.cfg.mode == Mode.HarmonyVector)
      assert(sys.plan.bVec == 4 && sys.plan.bDim == 1)
      assert(!sys.cfg.pruning && !sys.cfg.balancedLoad)
      assert(sys.plan.shardOfCluster.toSeq ==
        PartitionPlan.assignShardsNaive(idx.nlist, 4).toSeq)
    } finally sys.shutdown()
  }

  test("Auncel results match Faiss (same clustering, no pruning)") {
    val sys = auncel()
    try {
      val a = sys.search(F.small.queries.take(8))
      val f = Faiss.run(idx, F.small.queries.take(8), 10, 8, CostParams())
      a.hits.zip(f.hits).foreach { case (x, y) =>
        x.zip(y).foreach { case (hx, hy) => assert(math.abs(hx.dist - hy.dist) < 1e-6) }
      }
    } finally sys.shutdown()
  }

  test("Auncel performs no pruning (all candidates computed)") {
    val sys = auncel()
    try {
      val r = sys.search(F.small.queries)
      assert(r.prunePruned.forall(_ == 0L))
    } finally sys.shutdown()
  }

  test("Auncel degrades under skew like Harmony-vector (§6.5.4)") {
    val skewed = repro.exp.Experiments.adversarialQueries(idx, F.small, 4, 24, 1.0,
      nprobe = 8, naiveTarget = true)
    val aun = auncel()
    val harmony = Harmony.deploy(spark, idx,
      HarmonyConfig(nNodes = 4, mode = Mode.Harmony, k = 10, nprobe = 8, alpha = 3.0),
      workloadSample = skewed)
    try {
      val aq = aun.search(skewed).report
      val hq = harmony.search(skewed).report
      assert(hq.qps > aq.qps, s"harmony ${hq.qps} !> auncel ${aq.qps}")
    } finally { aun.shutdown(); harmony.shutdown() }
  }
}
