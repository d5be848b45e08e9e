package repro.core

import repro.{SparkSpec, TestFixtures => F}
import repro.baselines.Faiss
import repro.linalg.Hit
import repro.sim.CostParams

/** The pipelined execution engine: correctness (pruning must be lossless),
  * pruning-ledger shape, accounting sanity, and mode differences.
  */
class EngineSpec extends SparkSpec {

  private val k = 10
  private val nprobe = 8

  private def deploy(mode: Mode, nNodes: Int = 4, pruning: Boolean = true,
                     pipeline: Boolean = true, balanced: Boolean = true): HarmonySystem = {
    val (idx, _) = F.index(spark, F.small)
    Harmony.deploy(spark, idx,
      HarmonyConfig(nNodes = nNodes, mode = mode, k = k, nprobe = nprobe,
        pruning = pruning, pipeline = pipeline, balancedLoad = balanced),
      workloadSample = F.small.queries)
  }

  private def idsOf(hits: Array[Hit]): Set[Long] = hits.map(_.id).toSet

  /** Compare two result sets allowing exact-distance ties at the k-th rank. */
  private def assertSameTopK(a: Array[Array[Hit]], b: Array[Array[Hit]]): Unit = {
    a.indices.foreach { q =>
      val (ha, hb) = (a(q), b(q))
      assert(ha.length == hb.length, s"query $q: ${ha.length} vs ${hb.length} hits")
      ha.indices.foreach { i =>
        assert(math.abs(ha(i).dist - hb(i).dist) < 1e-6,
          s"query $q rank $i: dist ${ha(i).dist} vs ${hb(i).dist}")
      }
      // id sets may differ only among exact-tie distances at the boundary
      val onlyA = idsOf(ha) -- idsOf(hb)
      onlyA.foreach { id =>
        val d = ha.find(_.id == id).get.dist
        assert(hb.exists(h => math.abs(h.dist - d) < 1e-6),
          s"query $q: id $id (dist $d) missing from other result without a tie")
      }
    }
  }

  private lazy val faiss = {
    val (idx, _) = F.index(spark, F.small)
    Faiss.run(idx, F.small.queries, k, nprobe, CostParams())
  }

  // ---- correctness across modes -------------------------------------

  for (mode <- Seq(Mode.HarmonyVector, Mode.HarmonyDimension, Mode.Harmony)) {
    test(s"$mode returns exactly the Faiss IVF top-$k (pruning is lossless)") {
      val sys = deploy(mode)
      try assertSameTopK(sys.search(F.small.queries).hits, faiss.hits)
      finally sys.shutdown()
    }

    test(s"$mode with pruning disabled returns the same results") {
      val sys = deploy(mode, pruning = false)
      try assertSameTopK(sys.search(F.small.queries).hits, faiss.hits)
      finally sys.shutdown()
    }
  }

  test("results are sorted ascending by distance") {
    val sys = deploy(Mode.Harmony)
    try {
      sys.search(F.small.queries).hits.foreach { hs =>
        assert(hs.map(_.dist).toSeq == hs.map(_.dist).sorted.toSeq)
      }
    } finally sys.shutdown()
  }

  test("every query returns k hits when enough candidates exist") {
    val sys = deploy(Mode.Harmony)
    try sys.search(F.small.queries).hits.foreach(hs => assert(hs.length == k))
    finally sys.shutdown()
  }

  // ---- pruning ledger -----------------------------------------------

  // without balanced load every batch visits the slices in dimension order
  test("dimension mode: first-slice pruning ratio is zero") {
    val sys = deploy(Mode.HarmonyDimension, balanced = false)
    try {
      val r = sys.search(F.small.queries)
      assert(r.pruneRatios.head == 0.0)
    } finally sys.shutdown()
  }

  test("dimension mode: pruning ratios are non-decreasing across positions") {
    val sys = deploy(Mode.HarmonyDimension, balanced = false)
    try {
      val r = sys.search(F.small.queries)
      val ratios = r.pruneRatios.toSeq
      ratios.sliding(2).foreach(w => assert(w(1) >= w(0) - 1e-12, ratios.mkString(",")))
    } finally sys.shutdown()
  }

  test("decayed dataset prunes earlier than isotropic dataset") {
    // decay concentrates distance mass in leading dims → the second slice
    // already prunes hard; flat data cannot have accumulated enough by then
    def secondSliceRatio(ds: repro.vectors.VectorDataset): Double = {
      val (idx, _) = F.index(spark, ds)
      val sys = Harmony.deploy(spark, idx,
        HarmonyConfig(nNodes = 4, mode = Mode.HarmonyDimension, k = k, nprobe = nprobe,
          balancedLoad = false),
        workloadSample = ds.queries)
      try sys.search(ds.queries).pruneRatios(1)
      finally sys.shutdown()
    }
    assert(secondSliceRatio(F.decay) > secondSliceRatio(F.flat))
  }

  test("pruning reduces total dim-ops versus pruning off") {
    val on = deploy(Mode.HarmonyDimension)
    val off = deploy(Mode.HarmonyDimension, pruning = false)
    try {
      val opsOn = on.search(F.small.queries).report.totalDimOps
      val opsOff = off.search(F.small.queries).report.totalDimOps
      assert(opsOn < opsOff, s"$opsOn !< $opsOff")
    } finally { on.shutdown(); off.shutdown() }
  }

  test("with pruning off, entering counts are equal at every position") {
    val sys = deploy(Mode.HarmonyDimension, pruning = false)
    try {
      val r = sys.search(F.small.queries)
      assert(r.pruneEntering.toSet.size == 1, r.pruneEntering.mkString(","))
      assert(r.prunePruned.forall(_ == 0L))
    } finally sys.shutdown()
  }

  // ---- accounting sanity --------------------------------------------

  test("vector mode has no partial-state communication") {
    val sys = deploy(Mode.HarmonyVector)
    try {
      val r = sys.search(F.small.queries)
      // only query chunks, cluster-id lists and top-k returns cross the
      // network — one of each per (query, wave, shard) batch, bounded by
      // one batch per probed cluster
      val maxBatches = F.small.queries.length.toLong * nprobe
      val perBatch = F.small.dim * 4L + nprobe * 4L + (k + 2) * 12L
      assert(r.report.totalBytes <= maxBatches * perBatch,
        s"bytes=${r.report.totalBytes} > $maxBatches * $perBatch")
    } finally sys.shutdown()
  }

  test("dimension mode moves more bytes than vector mode") {
    val v = deploy(Mode.HarmonyVector)
    val d = deploy(Mode.HarmonyDimension)
    try {
      val bv = v.search(F.small.queries).report.totalBytes
      val bd = d.search(F.small.queries).report.totalBytes
      assert(bd > bv, s"dim bytes $bd !> vec bytes $bv")
    } finally { v.shutdown(); d.shutdown() }
  }

  test("per-node dim-ops sum to total minus client ops") {
    val sys = deploy(Mode.Harmony)
    try {
      val r = sys.search(F.small.queries).report
      assert(r.perNodeDimOps.sum <= r.totalDimOps)
      assert(r.perNodeDimOps.sum > 0)
    } finally sys.shutdown()
  }

  test("dimension mode balances per-node load better than vector mode under skew") {
    val (idx, _) = F.index(spark, F.small)
    val skewed = repro.vectors.Workloads.queries(F.smallCfg, 24, skewLevel = 1.0)
    def cv(mode: Mode): Double = {
      val sys = Harmony.deploy(spark, idx,
        HarmonyConfig(nNodes = 4, mode = mode, k = k, nprobe = nprobe),
        workloadSample = Array.empty)
      try sys.search(skewed).report.loadCV finally sys.shutdown()
    }
    assert(cv(Mode.HarmonyDimension) < cv(Mode.HarmonyVector))
  }

  test("simulated time components are non-negative and total adds up") {
    val sys = deploy(Mode.Harmony)
    try {
      val r = sys.search(F.small.queries).report
      assert(r.compSeconds >= 0 && r.commSeconds >= 0 && r.otherSeconds >= 0)
      assert(math.abs(r.totalSeconds - (r.compSeconds + r.commSeconds + r.otherSeconds)) < 1e-12)
      assert(r.qps > 0)
    } finally sys.shutdown()
  }

  test("single-node plan degenerates to Faiss-like accounting") {
    val (idx, _) = F.index(spark, F.small)
    val sys = Harmony.deploy(spark, idx,
      HarmonyConfig(nNodes = 1, mode = Mode.HarmonyVector, k = k, nprobe = nprobe,
        pruning = false),
      workloadSample = Array.empty)
    try {
      val r = sys.search(F.small.queries)
      assertSameTopK(r.hits, faiss.hits)
      assert(r.report.nNodes == 1)
    } finally sys.shutdown()
  }

  // ---- rotation ------------------------------------------------------

  test("rotation policies do not change results") {
    // one vector shard: the same plan either way, only the slice visit
    // order differs (in dimension order vs load-aware rotation)
    val inOrder = deploy(Mode.HarmonyDimension, balanced = false)
    val loadAware = deploy(Mode.HarmonyDimension)
    try {
      val a = inOrder.search(F.small.queries)
      val b = loadAware.search(F.small.queries)
      assert(a.pruneEntering.toSeq != b.pruneEntering.toSeq, "rotation had no effect")
      assertSameTopK(a.hits, b.hits)
    } finally { inOrder.shutdown(); loadAware.shutdown() }
  }

  // ---- input validation ----------------------------------------------

  test("a query with the wrong number of components is rejected") {
    val sys = deploy(Mode.Harmony)
    try {
      val short = F.small.queries(0).take(F.small.dim - 1)
      val e = intercept[IllegalArgumentException](sys.search(Array(F.small.queries(1), short)))
      assert(e.getMessage.contains("query 1 has"))
    } finally sys.shutdown()
  }

  test("a query containing NaN is rejected") {
    val sys = deploy(Mode.Harmony)
    try {
      val q = F.small.queries(0).clone()
      q(3) = Float.NaN
      val e = intercept[IllegalArgumentException](sys.search(Array(q)))
      assert(e.getMessage.contains("NaN"))
    } finally sys.shutdown()
  }

  test("peak state bytes are reported per node") {
    val sys = deploy(Mode.HarmonyDimension)
    try {
      val r = sys.search(F.small.queries)
      assert(r.perNodePeakStateBytes.length == 4)
      assert(r.perNodePeakStateBytes.exists(_ > 0))
    } finally sys.shutdown()
  }
}
