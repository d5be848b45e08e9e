package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.core.CostModel.{PlanCost, SurvivalStats}
import repro.linalg.VecOps
import repro.sim.CostParams

class CostModelSpec extends AnyFunSuite {

  private val nlist = 16
  private val dim = 64
  private val listSizes = Array.fill(nlist)(250)
  private val params = CostParams()
  private val noPrune = SurvivalStats.none(dim)

  /** flat energy, aggressive pruning once any mass has accumulated */
  private def strongPrune(floor: Double = 0.1): SurvivalStats =
    SurvivalStats(dim, i => i.toDouble / dim, c => if (c <= 0) 1.0 else floor)

  /** `nQ` queries probing `nprobe` consecutive clusters each, starting
    * `nprobe` further along per query: every cluster is probed equally
    * often when `nQ · nprobe` is a multiple of `nlist`. */
  private def uniform(nQ: Int, nprobe: Int): Array[Array[Int]] =
    Array.tabulate(nQ)(q => Array.tabulate(math.min(nprobe, nlist))(i => (q * nprobe + i) % nlist))

  /** `nQ` queries probing `nprobe` consecutive clusters each: nine in ten
    * start at the `hot` cluster, the tenth at one of the others in turn. */
  private def skewed(nQ: Int, nprobe: Int, hot: Int = 0): Array[Array[Int]] =
    Array.tabulate(nQ) { q =>
      val first = if (q % 10 == 9) (hot + 1 + (q / 10) % (nlist - 1)) % nlist else hot
      Array.tabulate(math.min(nprobe, nlist))(i => (first + i) % nlist)
    }

  private def popularity(probes: Array[Array[Int]]): Array[Double] =
    CostModel.popularityOf(probes.toSeq, nlist)

  private def cfg(nNodes: Int, alpha: Double, pruning: Boolean): HarmonyConfig =
    HarmonyConfig(nNodes = nNodes, alpha = alpha, pruning = pruning, costParams = params)

  /** The plan deploy lays out for grid (bVec, bDim) under `probes`. */
  private def planFor(bVec: Int, bDim: Int, probes: Array[Array[Int]],
                      balanced: Boolean = true): PartitionPlan =
    PartitionPlan.forWorkload(bVec, bDim, dim, listSizes, popularity(probes), balanced)

  /** Cost of the plan deploy lays out for grid (bVec, bDim). */
  private def estimate(bVec: Int, bDim: Int, probes: Array[Array[Int]], alpha: Double,
                       pruning: Boolean, survival: SurvivalStats,
                       tweak: HarmonyConfig => HarmonyConfig = identity): PlanCost =
    CostModel.estimate(planFor(bVec, bDim, probes), tweak(cfg(bVec * bDim, alpha, pruning)),
      listSizes, probes, survival)

  private def choose(probes: Array[Array[Int]], alpha: Double, survival: SurvivalStats,
                     tweak: HarmonyConfig => HarmonyConfig = identity): PlanCost =
    CostModel.choose(tweak(cfg(4, alpha, pruning = true)), dim, listSizes, probes, survival)._2

  private def loads(c: PlanCost): Array[Long] = c.report.perNodeDimOps

  test("estimate produces positive finite costs") {
    val c = estimate(2, 2, uniform(100, 4), alpha = 1.0, pruning = true, survival = noPrune)
    assert(c.totalSec > 0 && c.totalSec.isFinite)
    assert(c.report.compSeconds > 0 && c.report.commSeconds >= 0 && c.imbalanceSec >= 0)
    assert(c.totalSec == c.report.totalSeconds + c.imbalanceSec)
  }

  test("uniform workload, no pruning: per-node loads are balanced in every grid") {
    for ((bv, bd) <- PartitionPlan.candidateGrids(4, dim)) {
      val l = loads(estimate(bv, bd, uniform(100, 4), alpha = 1.0, pruning = false, survival = noPrune))
      assert(l.max - l.min < 0.2 * l.max + 1e-9, s"grid ($bv,$bd): ${l.mkString(",")}")
    }
  }

  test("skewed workload: vector grid is imbalanced, dimension grid is not") {
    val v = estimate(4, 1, skewed(100, 1), alpha = 1.0, pruning = false, survival = noPrune)
    val d = estimate(1, 4, skewed(100, 1), alpha = 1.0, pruning = false, survival = noPrune)
    assert(v.imbalanceSec > d.imbalanceSec * 5)
  }

  test("dimension grids cost more communication than vector grids") {
    val v = estimate(4, 1, uniform(100, 4), alpha = 1.0, pruning = false, survival = noPrune)
    val d = estimate(1, 4, uniform(100, 4), alpha = 1.0, pruning = false, survival = noPrune)
    assert(d.report.commSeconds > v.report.commSeconds)
    assert(d.report.totalBytes > v.report.totalBytes && d.report.totalMsgs > v.report.totalMsgs)
  }

  test("pruning discounts compute for dimension splits only") {
    val off = estimate(1, 4, uniform(100, 4), alpha = 1.0, pruning = false, survival = strongPrune())
    val on = estimate(1, 4, uniform(100, 4), alpha = 1.0, pruning = true, survival = strongPrune())
    assert(on.report.compSeconds < off.report.compSeconds)
    val v0 = estimate(4, 1, uniform(100, 4), alpha = 1.0, pruning = false, survival = strongPrune())
    val v1 = estimate(4, 1, uniform(100, 4), alpha = 1.0, pruning = true, survival = strongPrune())
    assert(math.abs(v0.report.compSeconds - v1.report.compSeconds) < 1e-15)
  }

  test("energy-concentrated data: the leading-slice node carries the load") {
    // 90% of the mass in slice 0 of a 4-way split; nothing prunable before
    // it, everything after → slice-0 node dominates
    val concentrated = SurvivalStats(dim,
      i => if (i >= dim / 4) 1.0 else i.toDouble / (dim / 4) * 0.9,
      c => if (c > 0.5) 0.05 else 1.0)
    val l = loads(estimate(1, 4, uniform(100, 4), alpha = 1.0, pruning = true, survival = concentrated))
    // slice-0 host (node 0) keeps near-full arrivals; later slices pruned
    assert(l(0) > 1.8 * l(2), l.mkString(","))
  }

  test("choose picks pure vector for uniform, prune-resistant workloads") {
    val c = choose(uniform(100, 4), alpha = 1.0, survival = noPrune)
    assert(c.bDim == 1, s"chose (${c.bVec}, ${c.bDim})")
  }

  // The simulator charges every (query, shard) batch a message per hop and
  // every stage a fixed overhead. With 250-row lists of 64 dimensions those
  // dominate a dimension split's cost, so the two planner responses below
  // are checked where compute dominates, as in HarmonySpec: per-message and
  // per-stage costs dropped (negligible at real scale).
  private val computeDominant: HarmonyConfig => HarmonyConfig =
    _.copy(costParams = params.copy(msgLatencySeconds = 0.0, stageOverheadSeconds = 0.0))

  test("choose moves to dimension splits under heavy skew") {
    val c = choose(skewed(200, 1), alpha = 2.0, survival = noPrune, tweak = computeDominant)
    assert(c.bDim > 1, s"chose (${c.bVec}, ${c.bDim})")
  }

  test("choose favors dimension splits when pruning is very effective") {
    val c = choose(uniform(200, 4), alpha = 1.0, survival = strongPrune(0.05), tweak = computeDominant)
    assert(c.bDim > 1, s"chose (${c.bVec}, ${c.bDim})")
  }

  test("larger alpha penalizes skew harder") {
    val lo = estimate(4, 1, skewed(100, 1), alpha = 0.0, pruning = false, survival = noPrune)
    val hi = estimate(4, 1, skewed(100, 1), alpha = 5.0, pruning = false, survival = noPrune)
    assert(hi.totalSec > lo.totalSec)
  }

  // ---- SurvivalStats -------------------------------------------------

  test("none survives everything") {
    val s = SurvivalStats.none(32)
    assert(s.survAtCum(0.0) == 1.0 && s.survAtCum(0.9) == 1.0 && s.survAtCum(1.0) == 1.0)
  }

  test("withVarianceEnergy: a decayed profile front-loads its distance mass") {
    val sFlat = SurvivalStats.withVarianceEnergy(Array.fill(32)(1.0), _ => 1.0)
    val sDec = SurvivalStats.withVarianceEnergy(Array.tabulate(32)(i => math.exp(-0.3 * i)), _ => 1.0)
    assert(sDec.energyCumFrac(8) > sFlat.energyCumFrac(8))
    assert(sDec.sliceEnergy(4, 0) > 0.8)
  }

  test("sliceEnergy sums to 1 across slices") {
    val s = SurvivalStats.withVarianceEnergy(Array.tabulate(20)(i => 1.0 + i), _ => 1.0)
    val total = (0 until 4).map(s.sliceEnergy(4, _)).sum
    assert(math.abs(total - 1.0) < 1e-9)
  }

  test("popularityOf normalizes over all probes") {
    val pop = CostModel.popularityOf(Seq(Array(0, 1), Array(0, 2)), 4)
    assert(math.abs(pop.sum - 1.0) < 1e-12)
    assert(pop(0) == 0.5 && pop(3) == 0.0)
  }

  test("popularityOf of empty workload is all zeros") {
    assert(CostModel.popularityOf(Seq.empty, 3).forall(_ == 0.0))
  }

  test("choose always has the pure-vector grid available (dim = 1 degenerate)") {
    val (plan, c) = CostModel.choose(cfg(5, 1.0, pruning = true), 1,
      Array.fill(nlist)(10), uniform(10, 2), SurvivalStats.none(1))
    assert(c.bDim == 1 && c.bVec == 5)
    assert(plan.bVec == 5 && plan.bDim == 1)
  }

  // ---- the scored plan is the deployed plan --------------------------

  test("choose returns the forWorkload plan of the grid it scored") {
    for (balanced <- Seq(true, false)) {
      val c = cfg(4, 2.0, pruning = true).copy(balancedLoad = balanced)
      val probes = skewed(200, 1)
      val (plan, cost) = CostModel.choose(c, dim, listSizes, probes, noPrune)
      assert((plan.bVec, plan.bDim) == (cost.bVec, cost.bDim))
      val expect = planFor(cost.bVec, cost.bDim, probes, balanced)
      assert(plan.shardOfCluster.toSeq == expect.shardOfCluster.toSeq)
      assert(plan.sliceBounds.toSeq == expect.sliceBounds.toSeq)
      val again = CostModel.estimate(plan, c, listSizes, probes, noPrune)
      assert(again.totalSec == cost.totalSec)
    }
  }

  test("estimate scores the placement it is given") {
    // the hot cluster shares its shard with 3 others under naive placement
    // and sits alone under balanced placement: same grid, different cost
    val c = cfg(4, 1.0, pruning = false)
    val probes = skewed(100, 1)
    def imbalance(balanced: Boolean): Double =
      CostModel.estimate(planFor(4, 1, probes, balanced), c, listSizes, probes, noPrune).imbalanceSec
    assert(imbalance(balanced = false) > imbalance(balanced = true))
  }

  test("k scales the result-return bytes") {
    def cost(k: Int): PlanCost = estimate(4, 1, uniform(100, 4), alpha = 1.0,
      pruning = false, survival = noPrune, tweak = _.copy(k = k))
    val (k10, k20) = (cost(10), cost(20))
    // one cluster of 250 rows per (query, wave) batch: 400 batches each
    // return 10 more 12-byte hits
    assert(k20.report.totalBytes - k10.report.totalBytes == 400 * 10 * 12L)
    assert(k20.report.compSeconds == k10.report.compSeconds)
    assert(k20.imbalanceSec == k10.imbalanceSec)
  }

  test("maxWaves scales the stage term") {
    val probes = uniform(100, 8)
    def run(waves: Int): (BatchLedgers, PlanCost) = {
      val c = cfg(4, 1.0, pruning = false).copy(maxWaves = waves)
      val plan = planFor(2, 2, probes)
      (CostModel.predict(plan, c, listSizes, probes, noPrune),
        CostModel.estimate(plan, c, listSizes, probes, noPrune))
    }
    val ((l4, w4), (l8, w8)) = (run(4), run(8))
    // one stage per dimension slice per wave: 2 slices × 4 more waves; more
    // waves also split batches, so more hits come back
    assert(l8.stages.length - l4.stages.length == 2 * 4)
    val extra = params.stageOverheadSeconds * 2 * 4 + (l8.clientBytes - l4.clientBytes) * params.byteSeconds
    assert(math.abs(w8.report.otherSeconds - w4.report.otherSeconds - extra) < 1e-12 * w8.report.otherSeconds)
    assert(w8.report.compSeconds == w4.report.compSeconds)
  }

  test("nprobe beyond nlist estimates exactly what nprobe = nlist does") {
    // a probe list never holds more than nlist clusters
    val centroids = Array.tabulate(nlist)(c => Array(c.toFloat))
    val queries = Array.tabulate(100)(q => Array(3.0f + (q % 7) * 0.1f))
    for ((bv, bd) <- Seq((4, 1), (2, 2), (1, 4)); pruning <- Seq(true, false)) {
      def cost(nprobe: Int): PlanCost = {
        val probes = queries.map(VecOps.nearestN(_, centroids, nprobe))
        estimate(bv, bd, probes, alpha = 1.0, pruning = pruning, survival = strongPrune(),
          tweak = _.copy(nprobe = nprobe))
      }
      val (atN, beyond) = (cost(nlist), cost(2 * nlist))
      assert(beyond.copy(report = null) == atN.copy(report = null), s"${bv}x$bd pruning=$pruning")
      assert(beyond.report.copy(perNodeDimOps = null) == atN.report.copy(perNodeDimOps = null))
      assert(beyond.report.perNodeDimOps.toSeq == atN.report.perNodeDimOps.toSeq)
    }
  }

  test("estimate rejects list sizes that do not match the plan") {
    val probes = uniform(100, 4)
    intercept[IllegalArgumentException](CostModel.estimate(planFor(2, 2, probes),
      cfg(4, 1.0, pruning = true), listSizes.take(nlist - 1), probes, noPrune))
  }
}
