package repro.core

import repro.sim.Sim

/** The fine-grained query planner's cost model (§4.2).
  *
  * For each candidate grid π = (bVec, bDim) it estimates, from lightweight
  * workload statistics (per-cluster probe popularity, list sizes, the
  * dimension-variance profile, and a sampled distance distribution):
  *
  *  - per-node computational load `Load(n, π)` in dim-ops. Loads are
  *    *slice-aware*: the node hosting a high-energy dimension slice does
  *    mostly unprunable work (candidates cannot be pruned before their
  *    first informative slice), while low-energy slice hosts see only
  *    pruning survivors — the imbalance pruning itself creates (§4.3);
  *  - the imbalance factor `I(π)` — the std-dev of per-node loads;
  *  - communication cost: query-chunk distribution plus `bDim − 1`
  *    partial-state hops per (query, shard) batch (total bytes unchanged by
  *    the split, §4.2.2) plus per-message framing;
  *  - overall cost `C(π, Q) = makespan(comp) + comm + stages + α · I(π)`.
  *
  * The chooser returns the argmin plan. `α` expresses the user's
  * skew-aversion, as in the paper.
  */
object CostModel {

  /** Estimated cost decomposition of one candidate plan. */
  final case class PlanCost(
      bVec: Int,
      bDim: Int,
      compMakespanSec: Double,
      commSec: Double,
      imbalanceSec: Double,
      totalSec: Double,
      perNodeLoadOps: Array[Double],
  )

  /** Per-candidate-state bytes moved between stages (row index + partial). */
  val StateBytesPerRow: Int = 12

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

    /** Expected survivor fraction arriving at slice `j` under uniformly
      * rotated start offsets: average over offsets `o` of the survival at
      * the distance mass accumulated on the slices visited before `j`. */
    def arrivalSurv(bDim: Int, j: Int): Double = {
      if (bDim == 1) return 1.0
      val e = Array.tabulate(bDim)(sliceEnergy(bDim, _))
      val survs = for (o <- 0 until bDim) yield {
        var cum = 0.0
        var s = o
        while (s != j) { cum += e(s); s = (s + 1) % bDim }
        survAtCum(cum)
      }
      survs.sum / bDim
    }

    /** Expected survivor fraction after `p` pipeline positions, averaged
      * over start offsets (drives forwarded-state volume). */
    def positionSurv(bDim: Int, p: Int): Double = {
      if (p == 0) return 1.0
      val e = Array.tabulate(bDim)(sliceEnergy(bDim, _))
      val survs = for (o <- 0 until bDim) yield {
        val cum = (0 until p).map(i => e((o + i) % bDim)).sum
        survAtCum(cum)
      }
      survs.sum / bDim
    }
  }

  object SurvivalStats {
    /** No pruning: everything survives. */
    def none(dim: Int): SurvivalStats =
      SurvivalStats(dim, i => i.toDouble / dim, _ => 1.0)

    /** Variance-profile energy with a tempered linear survival guess —
      * fallback when no workload sample is available. */
    def fromVariances(vars: Array[Double]): SurvivalStats = {
      val prefix = vars.scanLeft(0.0)(_ + _)
      val total = math.max(prefix.last, 1e-12)
      SurvivalStats(vars.length,
        i => prefix(i) / total,
        c => math.min(1.0, math.max(0.05, 1.0 - 0.5 * c)))
    }

    /** Data-driven stats (the paper's "lightweight metrics", §4.2):
      * variance-profile energy plus an empirical distance distribution from
      * sampled queries × sampled candidates. A candidate is prunable at
      * accumulated mass `c` when `c × dist > τ`, with τ the sampled top-k
      * threshold.
      */
    def fromData(index: repro.ivf.IVFIndex, sampleQueries: Array[Array[Float]],
                 k: Int = 10, maxQ: Int = 16, maxCands: Int = 256): SurvivalStats = {
      val vars = dimVariances(index)
      val qs = sampleQueries.take(maxQ)
      if (qs.isEmpty) return fromVariances(vars)
      // candidates are drawn from each query's nearest clusters so the
      // sampled distance distribution (and τ) matches the probed regime
      val distsPerQ = qs.map { q =>
        val near = repro.linalg.VecOps.nearestN(q, index.centroids,
          math.min(8, index.nlist))
        val buf = scala.collection.mutable.ArrayBuffer.empty[Double]
        var round = 0
        while (buf.size < maxCands && round < 64) {
          near.foreach { c =>
            if (index.listSize(c) > round && buf.size < maxCands) {
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
      val prefix = vars.scanLeft(0.0)(_ + _)
      val total = math.max(prefix.last, 1e-12)
      SurvivalStats(vars.length,
        i => prefix(i) / total,
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

  /** Per-dimension variance over a sample of indexed vectors. */
  def dimVariances(index: repro.ivf.IVFIndex, maxRows: Int = 2000): Array[Double] = {
    val dim = index.dim
    val sum = new Array[Double](dim)
    val sq = new Array[Double](dim)
    var rows = 0
    var c = 0
    while (c < index.nlist && rows < maxRows) {
      val take = math.min(index.listSize(c), maxRows - rows)
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

  /** Estimate the cost of deploying `plan` under `cfg`: its shards, slices
    * and nodes are read from the plan; `k`, `nprobe`, `maxWaves`, `alpha`,
    * `pruning` and `costParams` from the config.
    *
    * @param listSizes  rows per cluster
    * @param popularity fraction of query probes landing on each cluster
    *                   (sums to 1 over clusters)
    * @param nQ         queries in the batch
    */
  def estimate(
      plan: PartitionPlan, cfg: HarmonyConfig,
      listSizes: Array[Int], popularity: Array[Double],
      nQ: Int, survival: SurvivalStats,
  ): PlanCost = {
    import plan.{bDim, bVec, dim, nNodes}
    require(listSizes.length == plan.nlist,
      s"${listSizes.length} list sizes for a plan over ${plan.nlist} clusters")
    val params = cfg.costParams
    val surv = if (cfg.pruning) survival else SurvivalStats.none(dim)
    val nlist = listSizes.length
    // expected probes of cluster c over the batch; a query probes at most
    // every cluster once (`VecOps.nearestN` caps its list at nlist)
    val probes = popularity.map(_ * nQ * math.min(cfg.nprobe, nlist))
    // expected candidate rows contributed by cluster c over the batch
    val rowsByCluster = Array.tabulate(nlist)(c => probes(c) * listSizes(c))

    val shardRows = new Array[Double](bVec)
    for (c <- 0 until nlist) shardRows(plan.shardOfCluster(c)) += rowsByCluster(c)

    // per-node compute: the node hosting (shard s, slice j) scans the
    // candidates that survive to slice j under rotated visit orders
    val loads = new Array[Double](nNodes)
    for (s <- 0 until bVec; j <- 0 until bDim) {
      loads(plan.nodeOf(s, j)) += shardRows(s) * plan.sliceLen(j) * surv.arrivalSurv(bDim, j)
    }
    val compMakespan = loads.max * params.dimOpSeconds

    // communication: per (query, shard) batch — one query-chunk
    // distribution (total bytes independent of bDim, §4.2.2), bDim−1
    // partial-state hops carrying survivors, one return of k 12-byte hits.
    var bytes = 0.0
    var msgs = 0.0
    for (s <- 0 until bVec) {
      val pairs = math.min(nQ.toDouble, plan.clustersOfShard(s).map(probes).sum)
      val rowsPerPair = if (pairs > 0) shardRows(s) / pairs else 0.0
      bytes += pairs * dim * 4.0
      msgs += pairs * bDim
      if (bDim > 1) {
        val stateRows = (1 until bDim).map(p => rowsPerPair * surv.positionSurv(bDim, p)).sum
        bytes += pairs * stateRows * StateBytesPerRow
      }
      bytes += pairs * 12.0 * cfg.k
    }
    val commSec = (bytes / nNodes) * params.byteSeconds + (msgs / nNodes) * params.msgLatencySeconds
    // non-blocking transfers overlap with compute (§5): only the excess
    // over the compute critical path surfaces as latency. Plans with
    // `cfg.pipeline` off are priced as if pipelined too: their single
    // blocking wave is not modelled yet.
    val commEffective = math.max(0.0, commSec - compMakespan)

    val imbalanceSec = Sim.stddev(loads) * params.dimOpSeconds
    // each dimension split adds one pipeline stage per vector-level wave
    val stageSec = params.stageOverheadSeconds * bDim * cfg.maxWaves
    val total = compMakespan + commEffective + stageSec + cfg.alpha * imbalanceSec
    PlanCost(bVec, bDim, compMakespan, commSec, imbalanceSec, total, loads)
  }

  /** Choose the best grid for the workload (the paper's planner): every
    * candidate is the plan `PartitionPlan.forWorkload` lays out, and the
    * argmin is returned with its cost for deploy to lay out unchanged. */
  def choose(
      cfg: HarmonyConfig, dim: Int,
      listSizes: Array[Int], popularity: Array[Double],
      nQ: Int, survival: SurvivalStats,
  ): (PartitionPlan, PlanCost) = {
    val cands = PartitionPlan.candidateGrids(cfg.nNodes, dim)
    require(cands.nonEmpty, s"no candidate grids for nNodes=${cfg.nNodes} dim=$dim")
    cands
      .map { case (bv, bd) =>
        val plan = PartitionPlan.forWorkload(bv, bd, dim, listSizes, popularity, cfg.balancedLoad)
        (plan, estimate(plan, cfg, listSizes, popularity, nQ, survival))
      }
      .minBy { case (_, c) => (c.totalSec, c.bDim) } // prefer fewer dim splits on ties
  }

  /** Empirical per-cluster probe popularity of a query workload sample. */
  def popularityOf(probesPerQuery: Seq[Array[Int]], nlist: Int): Array[Double] = {
    val h = new Array[Double](nlist)
    var total = 0.0
    probesPerQuery.foreach(ps => ps.foreach { c => h(c) += 1.0; total += 1.0 })
    if (total > 0) h.map(_ / total) else h
  }
}
