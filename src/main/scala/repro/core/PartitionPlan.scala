package repro.core

/** A multi-granularity partition plan π (§4.2): a `bVec × bDim` grid.
  *
  *  - `bVec` vector-based shards: each IVF cluster is assigned wholly to one
  *    shard (`shardOfCluster`);
  *  - `bDim` dimension-based slices: near-equal contiguous dimension ranges
  *    `[sliceBounds(s), sliceBounds(s+1))`;
  *  - `nNodes == bVec * bDim` (the grid layout of Fig 4): block (shard `v`,
  *    slice `d`) is the one block of node `nodeOf(v, d) = v * bDim + d`.
  *
  * `bDim = 1` is pure vector-based partitioning, `bVec = 1` pure
  * dimension-based partitioning.
  */
final case class PartitionPlan(
    nNodes: Int,
    bVec: Int,
    bDim: Int,
    dim: Int,
    shardOfCluster: Array[Int],
    sliceBounds: Array[Int],
) extends Serializable {
  require(bVec >= 1 && bDim >= 1, s"degenerate plan ($bVec, $bDim)")
  require(bVec * bDim == nNodes, s"plan grid $bVec x $bDim must equal node count $nNodes")
  require(sliceBounds.length == bDim + 1 && sliceBounds(0) == 0 && sliceBounds(bDim) == dim,
    s"slice bounds must cover [0,$dim): ${sliceBounds.mkString(",")}")
  require(shardOfCluster.forall(s => s >= 0 && s < bVec), "cluster mapped outside shard range")

  def nlist: Int = shardOfCluster.length
  def nodeOf(shard: Int, slice: Int): Int = shard * bDim + slice
  /** The slice visited at position `pos` by a batch starting at slice `first`. */
  def sliceAt(first: Int, pos: Int): Int = (first + pos) % bDim
  def sliceLo(s: Int): Int = sliceBounds(s)
  def sliceHi(s: Int): Int = sliceBounds(s + 1)
  def sliceLen(s: Int): Int = sliceHi(s) - sliceLo(s)
  def clustersOfShard(shard: Int): Array[Int] =
    shardOfCluster.zipWithIndex.collect { case (s, c) if s == shard => c }
}

object PartitionPlan {

  /** Near-equal contiguous dimension slice boundaries. */
  def dimSlices(dim: Int, bDim: Int): Array[Int] = {
    require(bDim >= 1 && bDim <= dim, s"bDim=$bDim out of range for dim=$dim")
    Array.tabulate(bDim + 1)(s => (s.toLong * dim / bDim).toInt)
  }

  /** Greedy weighted bin packing: clusters in descending weight order onto
    * the currently lightest shard. With `weight = popularity × size` this is
    * the paper's load-aware placement; with `weight = size` it balances
    * storage only.
    */
  def assignShardsWeighted(weights: Array[Double], bVec: Int): Array[Int] = {
    val out = new Array[Int](weights.length)
    val load = new Array[Double](bVec)
    weights.zipWithIndex.sortBy { case (w, c) => (-w, c) }.foreach { case (w, c) =>
      var best = 0
      var i = 1
      while (i < bVec) { if (load(i) < load(best)) best = i; i += 1 }
      out(c) = best
      load(best) += w
    }
    out
  }

  /** Naive placement ignoring sizes and popularity: cluster c → shard c mod
    * bVec (the "traditional" distribution the ablation toggles back to). */
  def assignShardsNaive(nlist: Int, bVec: Int): Array[Int] =
    Array.tabulate(nlist)(_ % bVec)

  /** Build a plan for the grid (bVec, bDim) over nNodes = bVec*bDim. */
  def build(bVec: Int, bDim: Int, dim: Int, clusterWeights: Array[Double],
            balanced: Boolean): PartitionPlan = {
    val nNodes = bVec * bDim
    val shards =
      if (balanced) assignShardsWeighted(clusterWeights, bVec)
      else assignShardsNaive(clusterWeights.length, bVec)
    PartitionPlan(nNodes, bVec, bDim, dim, shards, dimSlices(dim, bDim))
  }

  /** The plan deploy lays out for grid (bVec, bDim) under a workload whose
    * per-cluster probe popularity is `popularity` (sums to 1, or all zeros
    * for an empty sample). The planner scores exactly this plan. */
  def forWorkload(bVec: Int, bDim: Int, dim: Int, listSizes: Array[Int],
                  popularity: Array[Double], balanced: Boolean): PartitionPlan = {
    val nlist = listSizes.length
    val weights = Array.tabulate(nlist) { c =>
      // expected candidate rows (popularity-weighted) blended with a
      // uniform-popularity prior: a skewed workload still dominates the
      // placement, but a uniform one degrades to storage balancing instead
      // of amplifying sampling noise into storage imbalance
      (popularity(c) + 1.0 / nlist) * listSizes(c)
    }
    build(bVec, bDim, dim, weights, balanced)
  }

  /** All grid decompositions of nNodes into (bVec, bDim) divisor pairs. */
  def candidateGrids(nNodes: Int, dim: Int): Seq[(Int, Int)] =
    (1 to nNodes).filter(nNodes % _ == 0).map(bv => (bv, nNodes / bv)).filter(_._2 <= dim)
}
