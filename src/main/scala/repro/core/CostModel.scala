package repro.core

import repro.sim.{NodeLedger, SimReport}

/** The fine-grained query planner's cost model (§4.2).
  *
  * For a candidate plan π it predicts the ledgers the engine will count on
  * the workload sample: the engine's own wave layout and counting rules
  * ([[Dataflow]]) run on the sample's probe lists, with the rows that
  * survive pruning along each batch's slice order predicted from the
  * dimension-variance profile and a sampled distance distribution
  * ([[SurvivalStats]]). So the node hosting a batch's first, high-energy
  * slice does mostly unprunable work, while later slices see only
  * survivors (§4.3). Then `C(π, Q) = T(π) + α · I(π)`, where `T(π)` is the
  * simulated time of the predicted ledgers, priced exactly as the engine
  * prices its counted ones, and `I(π)` is the std-dev of the predicted
  * per-node dim-ops in seconds; the model has no timing formula of its own.
  * `choose` returns the argmin plan; `α` is the user's skew-aversion.
  */
object CostModel {

  /** Sample sizes: `fromData`'s queries and candidates per query, `dimVariances`' rows. */
  val MaxQ: Int = 16
  val MaxCands: Int = 256
  val MaxRows: Int = 2000

  /** The predicted cost of one candidate plan: the simulated report of its
    * predicted ledgers, the imbalance term `I(π)` in seconds, and
    * `C(π, Q) = report.totalSeconds + α · imbalanceSec`. */
  final case class PlanCost(
      bVec: Int,
      bDim: Int,
      report: SimReport,
      imbalanceSec: Double,
      totalSec: Double,
  )

  /** Pruning statistics the planner consumes:
    *
    *  - `energyCumFrac(i)`: fraction of total distance mass carried by
    *    dimensions `[0, i)` (prefix of the variance profile);
    *  - `survAtCum(c)`: expected fraction of candidates NOT prunable once a
    *    fraction `c` of their distance mass has been accumulated.
    */
  final case class SurvivalStats(
      dim: Int,
      energyCumFrac: Int => Double,
      survAtCum: Double => Double,
  ) {
    /** Distance-mass fraction of slice `j` of a `bDim`-way split. */
    def sliceEnergy(bDim: Int, j: Int): Double = {
      val b = PartitionPlan.dimSlices(dim, bDim)
      energyCumFrac(b(j + 1)) - energyCumFrac(b(j))
    }
  }

  object SurvivalStats {
    /** No pruning: everything survives. */
    def none(dim: Int): SurvivalStats =
      SurvivalStats(dim, i => i.toDouble / dim, _ => 1.0)

    /** The variance-prefix energy of `vars` (per-dimension variances) with
      * the survival curve `survAtCum`. */
    def withVarianceEnergy(vars: Array[Double], survAtCum: Double => Double): SurvivalStats = {
      val prefix = vars.scanLeft(0.0)(_ + _)
      val total = math.max(prefix.last, 1e-12)
      SurvivalStats(vars.length, i => prefix(i) / total, survAtCum)
    }

    /** Data-driven stats (the paper's "lightweight metrics", §4.2):
      * variance-profile energy plus an empirical distance distribution from
      * up to `MaxQ` sampled queries × `MaxCands` sampled candidates each. A
      * candidate is prunable at accumulated mass `c` when `c × dist > τ`,
      * with τ the sampled top-k threshold. An empty sample gives [[none]]:
      * it has no probe lists, so nothing predicted from it reads survival.
      */
    def fromData(index: repro.ivf.IVFIndex, sampleQueries: Array[Array[Float]], k: Int = 10): SurvivalStats = {
      val qs = sampleQueries.take(MaxQ)
      if (qs.isEmpty) return none(index.dim)
      // candidates are drawn from each query's nearest clusters so the
      // sampled distance distribution (and τ) matches the probed regime
      val distsPerQ = qs.map { q =>
        val near = repro.linalg.VecOps.nearestN(q, index.centroids,
          math.min(8, index.nlist))
        val buf = scala.collection.mutable.ArrayBuffer.empty[Double]
        var round = 0
        while (buf.size < MaxCands && round < 64) {
          near.foreach { c =>
            if (index.listSize(c) > round && buf.size < MaxCands) {
              buf += repro.linalg.VecOps.l2PartialAt(
                q, 0, index.listData(c), round * index.dim, index.dim)
            }
          }
          round += 1
        }
        buf.toArray
      }
      val taus = distsPerQ.map { ds =>
        val sorted = ds.sorted
        sorted(math.min(k, sorted.length - 1))
      }
      withVarianceEnergy(dimVariances(index),
        c => {
          if (c <= 0.0) 1.0
          else {
            val surv = qs.indices.map { i =>
              distsPerQ(i).count(d => c * d <= taus(i)).toDouble / distsPerQ(i).length
            }.sum / qs.length
            math.max(0.05, surv)
          }
        })
    }
  }

  /** Per-dimension variance over the first `MaxRows` indexed vectors, in
    * cluster order. */
  def dimVariances(index: repro.ivf.IVFIndex): Array[Double] = {
    val dim = index.dim
    val sum = new Array[Double](dim)
    val sq = new Array[Double](dim)
    var rows = 0
    var c = 0
    while (c < index.nlist && rows < MaxRows) {
      val take = math.min(index.listSize(c), MaxRows - rows)
      val data = index.listData(c)
      var r = 0
      while (r < take) {
        var j = 0
        while (j < dim) { val v = data(r * dim + j); sum(j) += v; sq(j) += v * v; j += 1 }
        r += 1
      }
      rows += take
      c += 1
    }
    if (rows == 0) Array.fill(dim)(1.0)
    else Array.tabulate(dim) { j =>
      val mean = sum(j) / rows
      math.max(1e-12, sq(j) / rows - mean * mean)
    }
  }

  /** The ledgers the engine would count searching a batch whose queries
    * probe `probes` on `plan` under `cfg`. Waves, start slices and every
    * count follow [[Dataflow]]; a batch of `nRows` candidates enters
    * position `p` with `nRows × survAtCum(mass of the slices it visited
    * before p)` rows, rounded, and returns `min(k, survivors)` hits. With
    * pruning off every row survives and the prediction is the engine's
    * count exactly.
    *
    * @param listSizes rows per cluster
    * @param probes    each sample query's probe list, ordered by centroid
    *                  promise (`VecOps.nearestN`)
    */
  def predict(
      plan: PartitionPlan, cfg: HarmonyConfig,
      listSizes: Array[Int], probes: Array[Array[Int]], survival: SurvivalStats,
  ): BatchLedgers = {
    import plan.{bDim, nNodes}
    require(listSizes.length == plan.nlist,
      s"${listSizes.length} list sizes for a plan over ${plan.nlist} clusters")
    val surv = if (cfg.pruning) survival else SurvivalStats.none(plan.dim)
    // by start slice: survivor fraction after the first p slices visited, p = 0..bDim
    val survAfter = Array.tabulate(bDim)(first => (0 until bDim)
      .scanLeft(0.0)((cum, p) => cum + surv.sliceEnergy(bDim, plan.sliceAt(first, p))).map(surv.survAtCum))

    val waves = Dataflow.waves(probes, listSizes, plan, cfg)
    val perNode = Array.fill(waves.length, bDim, nNodes)(NodeLedger())
    var clientBytes = 0L
    for ((wave, w) <- waves.zipWithIndex; b <- wave) {
      val s = survAfter(b.firstSlice)
      var rows = b.nRows.toLong
      var p = 0
      while (p < bDim && (p == 0 || rows > 0)) {
        val slice = plan.sliceAt(b.firstSlice, p)
        val ledger = perNode(w)(p)(plan.nodeOf(b.shard, slice))
        Dataflow.countArrival(ledger, p, rows, plan.sliceLen(slice), b.clusters.length)
        val kept = math.round(b.nRows * s(p + 1))
        if (p == bDim - 1) clientBytes += math.min(cfg.k.toLong, kept) * Dataflow.HitBytes
        rows = kept
        p += 1
      }
    }
    BatchLedgers(Dataflow.stages(perNode),
      Dataflow.clientDimOps(probes, listSizes, plan.dim, cfg), clientBytes)
  }

  /** The cost of deploying `plan` under `cfg` for a batch whose queries
    * probe `probes`: its [[predict]]ed ledgers priced as the engine prices
    * its own, plus `α · I(π)`. */
  def estimate(
      plan: PartitionPlan, cfg: HarmonyConfig,
      listSizes: Array[Int], probes: Array[Array[Int]], survival: SurvivalStats,
  ): PlanCost = {
    val report = predict(plan, cfg, listSizes, probes, survival).price(cfg, plan.nNodes, probes.length)
    val imbalanceSec = report.loadStddev * cfg.costParams.dimOpSeconds
    PlanCost(plan.bVec, plan.bDim, report, imbalanceSec, report.totalSeconds + cfg.alpha * imbalanceSec)
  }

  /** Every candidate grid scored for the workload sample: the plan
    * `PartitionPlan.forWorkload` lays out for the sample's probe popularity
    * and its [[estimate]]d cost, in `PartitionPlan.candidateGrids` order. */
  def scoreGrids(
      cfg: HarmonyConfig, dim: Int,
      listSizes: Array[Int], probes: Array[Array[Int]], survival: SurvivalStats,
  ): Seq[(PartitionPlan, PlanCost)] = {
    val cands = PartitionPlan.candidateGrids(cfg.nNodes, dim)
    require(cands.nonEmpty, s"no candidate grids for nNodes=${cfg.nNodes} dim=$dim")
    val popularity = popularityOf(probes.toSeq, listSizes.length)
    cands.map { case (bv, bd) =>
      val plan = PartitionPlan.forWorkload(bv, bd, dim, listSizes, popularity, cfg.balancedLoad)
      (plan, estimate(plan, cfg, listSizes, probes, survival))
    }
  }

  /** The cheapest of `scored`, preferring fewer dimension splits on ties. */
  def cheapest(scored: Seq[(PartitionPlan, PlanCost)]): (PartitionPlan, PlanCost) =
    scored.minBy { case (_, c) => (c.totalSec, c.bDim) }

  /** Choose the best grid for the workload sample (the paper's planner):
    * the [[cheapest]] of [[scoreGrids]], returned with its cost for deploy
    * to lay out unchanged. */
  def choose(
      cfg: HarmonyConfig, dim: Int,
      listSizes: Array[Int], probes: Array[Array[Int]], survival: SurvivalStats,
  ): (PartitionPlan, PlanCost) = cheapest(scoreGrids(cfg, dim, listSizes, probes, survival))

  /** Empirical per-cluster probe popularity of a query workload sample. */
  def popularityOf(probesPerQuery: Seq[Array[Int]], nlist: Int): Array[Double] = {
    val h = new Array[Double](nlist)
    var total = 0.0
    probesPerQuery.foreach(ps => ps.foreach { c => h(c) += 1.0; total += 1.0 })
    if (total > 0) h.map(_ / total) else h
  }
}
