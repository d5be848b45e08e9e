package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.core.CostModel.{PlanCost, SurvivalStats}
import repro.sim.CostParams

class CostModelSpec extends AnyFunSuite {

  private val nlist = 16
  private val dim = 64
  private val listSizes = Array.fill(nlist)(250)
  private val uniformPop = Array.fill(nlist)(1.0 / nlist)
  private val params = CostParams()
  private val noPrune = SurvivalStats.none(dim)

  /** flat energy, aggressive pruning once any mass has accumulated */
  private def strongPrune(floor: Double = 0.1): SurvivalStats =
    SurvivalStats(dim, i => i.toDouble / dim, c => if (c <= 0) 1.0 else floor)

  private def skewedPop(hot: Int = 0): Array[Double] = {
    val p = Array.fill(nlist)(0.01 / (nlist - 1))
    p(hot) = 0.99
    p
  }

  private def cfg(nNodes: Int, nprobe: Int, alpha: Double, pruning: Boolean): HarmonyConfig =
    HarmonyConfig(nNodes = nNodes, nprobe = nprobe, alpha = alpha, pruning = pruning,
      costParams = params)

  /** Cost of the plan deploy lays out for grid (bVec, bDim). */
  private def estimate(bVec: Int, bDim: Int, pop: Array[Double], nQ: Int, nprobe: Int,
                       alpha: Double, pruning: Boolean, survival: SurvivalStats,
                       tweak: HarmonyConfig => HarmonyConfig = identity): PlanCost = {
    val plan = PartitionPlan.forWorkload(bVec, bDim, dim, listSizes, pop, balanced = true)
    CostModel.estimate(plan, tweak(cfg(bVec * bDim, nprobe, alpha, pruning)),
      listSizes, pop, nQ, survival)
  }

  private def choose(pop: Array[Double], nQ: Int, nprobe: Int, alpha: Double,
                     survival: SurvivalStats): PlanCost =
    CostModel.choose(cfg(4, nprobe, alpha, pruning = true), dim, listSizes, pop, nQ,
      survival)._2

  test("estimate produces positive finite costs") {
    val c = estimate(2, 2, uniformPop, 100, 4,
      alpha = 1.0, pruning = true, survival = noPrune)
    assert(c.totalSec > 0 && c.totalSec.isFinite)
    assert(c.compMakespanSec > 0 && c.commSec >= 0 && c.imbalanceSec >= 0)
  }

  test("uniform workload, no pruning: per-node loads are balanced in every grid") {
    for ((bv, bd) <- PartitionPlan.candidateGrids(4, dim)) {
      val c = estimate(bv, bd, uniformPop, 100, 4,
        alpha = 1.0, pruning = false, survival = noPrune)
      val loads = c.perNodeLoadOps
      assert(loads.max - loads.min < 0.2 * loads.max + 1e-9,
        s"grid ($bv,$bd): ${loads.mkString(",")}")
    }
  }

  test("skewed workload: vector grid is imbalanced, dimension grid is not") {
    val v = estimate(4, 1, skewedPop(), 100, 1,
      alpha = 1.0, pruning = false, survival = noPrune)
    val d = estimate(1, 4, skewedPop(), 100, 1,
      alpha = 1.0, pruning = false, survival = noPrune)
    assert(v.imbalanceSec > d.imbalanceSec * 5)
  }

  test("dimension grids cost more communication than vector grids") {
    val v = estimate(4, 1, uniformPop, 100, 4,
      alpha = 1.0, pruning = false, survival = noPrune)
    val d = estimate(1, 4, uniformPop, 100, 4,
      alpha = 1.0, pruning = false, survival = noPrune)
    assert(d.commSec > v.commSec)
  }

  test("pruning discounts compute for dimension splits only") {
    val off = estimate(1, 4, uniformPop, 100, 4,
      alpha = 1.0, pruning = false, survival = strongPrune())
    val on = estimate(1, 4, uniformPop, 100, 4,
      alpha = 1.0, pruning = true, survival = strongPrune())
    assert(on.compMakespanSec < off.compMakespanSec)
    val v0 = estimate(4, 1, uniformPop, 100, 4,
      alpha = 1.0, pruning = false, survival = strongPrune())
    val v1 = estimate(4, 1, uniformPop, 100, 4,
      alpha = 1.0, pruning = true, survival = strongPrune())
    assert(math.abs(v0.compMakespanSec - v1.compMakespanSec) < 1e-15)
  }

  test("energy-concentrated data: the leading-slice node carries the load") {
    // 90% of the mass in slice 0 of a 4-way split; nothing prunable before
    // it, everything after → slice-0 node dominates
    val concentrated = SurvivalStats(dim,
      i => if (i >= dim / 4) 1.0 else i.toDouble / (dim / 4) * 0.9,
      c => if (c > 0.5) 0.05 else 1.0)
    val d = estimate(1, 4, uniformPop, 100, 4,
      alpha = 1.0, pruning = true, survival = concentrated)
    // slice-0 host (node 0) keeps near-full arrivals; later slices pruned
    assert(d.perNodeLoadOps(0) > 1.8 * d.perNodeLoadOps(2), d.perNodeLoadOps.mkString(","))
  }

  test("choose picks pure vector for uniform, prune-resistant workloads") {
    val c = choose(uniformPop, 100, 4, alpha = 1.0, survival = noPrune)
    assert(c.bDim == 1, s"chose (${c.bVec}, ${c.bDim})")
  }

  test("choose moves to dimension splits under heavy skew") {
    val c = choose(skewedPop(), 200, 1, alpha = 2.0, survival = noPrune)
    assert(c.bDim > 1, s"chose (${c.bVec}, ${c.bDim})")
  }

  test("choose favors dimension splits when pruning is very effective") {
    val c = choose(uniformPop, 200, 4, alpha = 1.0, survival = strongPrune(0.05))
    assert(c.bDim > 1, s"chose (${c.bVec}, ${c.bDim})")
  }

  test("larger alpha penalizes skew harder") {
    val lo = estimate(4, 1, skewedPop(), 100, 1,
      alpha = 0.0, pruning = false, survival = noPrune)
    val hi = estimate(4, 1, skewedPop(), 100, 1,
      alpha = 5.0, pruning = false, survival = noPrune)
    assert(hi.totalSec > lo.totalSec)
  }

  // ---- SurvivalStats -------------------------------------------------

  test("none survives everything") {
    val s = SurvivalStats.none(32)
    assert(s.survAtCum(0.9) == 1.0)
    assert(s.arrivalSurv(4, 3) == 1.0)
    assert(s.positionSurv(4, 3) == 1.0)
  }

  test("fromVariances: flat profile declines slowly, decayed faster") {
    val sFlat = SurvivalStats.fromVariances(Array.fill(32)(1.0))
    assert(math.abs(sFlat.survAtCum(0.25) - 0.875) < 1e-9)
    assert(math.abs(sFlat.survAtCum(0.5) - 0.75) < 1e-9)
    val sDec = SurvivalStats.fromVariances(Array.tabulate(32)(i => math.exp(-0.3 * i)))
    assert(sDec.energyCumFrac(8) > sFlat.energyCumFrac(8))
    assert(sDec.sliceEnergy(4, 0) > 0.8)
    assert(sDec.survAtCum(sDec.energyCumFrac(8)) < sFlat.survAtCum(sFlat.energyCumFrac(8)))
  }

  test("sliceEnergy sums to 1 across slices") {
    val s = SurvivalStats.fromVariances(Array.tabulate(20)(i => 1.0 + i))
    val total = (0 until 4).map(s.sliceEnergy(4, _)).sum
    assert(math.abs(total - 1.0) < 1e-9)
  }

  test("arrivalSurv is 1 everywhere for bDim = 1 and without pruning") {
    val s = SurvivalStats.none(16)
    assert(s.arrivalSurv(1, 0) == 1.0)
  }

  test("positionSurv is non-increasing in position") {
    val s = SurvivalStats.fromVariances(Array.tabulate(32)(i => math.exp(-0.1 * i)))
    val ps = (0 until 4).map(s.positionSurv(4, _))
    ps.sliding(2).foreach(w => assert(w(1) <= w(0) + 1e-12, ps.mkString(",")))
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
    val (plan, c) = CostModel.choose(cfg(5, 2, 1.0, pruning = true), 1,
      Array.fill(nlist)(10), uniformPop, 10, SurvivalStats.none(1))
    assert(c.bDim == 1 && c.bVec == 5)
    assert(plan.bVec == 5 && plan.bDim == 1)
  }

  // ---- the scored plan is the deployed plan --------------------------

  test("choose returns the forWorkload plan of the grid it scored") {
    for (balanced <- Seq(true, false)) {
      val c = cfg(4, 1, 2.0, pruning = true).copy(balancedLoad = balanced)
      val (plan, cost) = CostModel.choose(c, dim, listSizes, skewedPop(), 200, noPrune)
      assert((plan.bVec, plan.bDim) == (cost.bVec, cost.bDim))
      val expect = PartitionPlan.forWorkload(cost.bVec, cost.bDim, dim, listSizes, skewedPop(),
        balanced)
      assert(plan.shardOfCluster.toSeq == expect.shardOfCluster.toSeq)
      assert(plan.sliceBounds.toSeq == expect.sliceBounds.toSeq)
      val again = CostModel.estimate(plan, c, listSizes, skewedPop(), 200, noPrune)
      assert(again.totalSec == cost.totalSec)
    }
  }

  test("estimate scores the placement it is given") {
    // the hot cluster shares its shard with 3 others under naive placement
    // and sits alone under balanced placement: same grid, different cost
    val c = cfg(4, 1, 1.0, pruning = false)
    def imbalance(balanced: Boolean): Double = {
      val plan = PartitionPlan.forWorkload(4, 1, dim, listSizes, skewedPop(), balanced)
      CostModel.estimate(plan, c, listSizes, skewedPop(), 100, noPrune).imbalanceSec
    }
    assert(imbalance(balanced = false) > imbalance(balanced = true))
  }

  test("k scales the result-return bytes") {
    def cost(k: Int): PlanCost = estimate(4, 1, uniformPop, 100, 4, alpha = 1.0,
      pruning = false, survival = noPrune, tweak = _.copy(k = k))
    val (k10, k20) = (cost(10), cost(20))
    // uniform popularity: each shard meets all 100 queries; 10 more 12-byte
    // hits per (query, shard) pair, spread over 4 nodes
    val extra = 4 * 100 * 12.0 * 10 / 4 * params.byteSeconds
    assert(math.abs(k20.commSec - k10.commSec - extra) < 1e-12 * k20.commSec)
    assert(k20.compMakespanSec == k10.compMakespanSec)
    assert(k20.imbalanceSec == k10.imbalanceSec)
  }

  test("maxWaves scales the stage term") {
    def cost(waves: Int): PlanCost = estimate(2, 2, uniformPop, 100, 4, alpha = 1.0,
      pruning = false, survival = noPrune, tweak = _.copy(maxWaves = waves))
    val (w4, w8) = (cost(4), cost(8))
    // one stage per dimension slice per wave: 2 slices × 4 more waves
    val extra = params.stageOverheadSeconds * 2 * 4
    assert(math.abs(w8.totalSec - w4.totalSec - extra) < 1e-12 * w8.totalSec)
    assert(w8.commSec == w4.commSec && w8.compMakespanSec == w4.compMakespanSec)
  }

  test("nprobe beyond nlist estimates exactly what nprobe = nlist does") {
    // a probe list never holds more than nlist clusters
    for ((bv, bd) <- Seq((4, 1), (2, 2), (1, 4)); pruning <- Seq(true, false)) {
      def cost(nprobe: Int): PlanCost = estimate(bv, bd, skewedPop(3), 100, nprobe,
        alpha = 1.0, pruning = pruning, survival = strongPrune())
      val (atN, beyond) = (cost(nlist), cost(2 * nlist))
      assert(beyond.copy(perNodeLoadOps = null) == atN.copy(perNodeLoadOps = null),
        s"${bv}x$bd pruning=$pruning")
      assert(beyond.perNodeLoadOps.toSeq == atN.perNodeLoadOps.toSeq)
    }
  }

  test("estimate rejects list sizes that do not match the plan") {
    val plan = PartitionPlan.forWorkload(2, 2, dim, listSizes, uniformPop, balanced = true)
    intercept[IllegalArgumentException](CostModel.estimate(plan, cfg(4, 4, 1.0, pruning = true),
      listSizes.take(nlist - 1), uniformPop.take(nlist - 1), 100, noPrune))
  }
}
