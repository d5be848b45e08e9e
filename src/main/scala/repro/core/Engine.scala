package repro.core

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.TaskContext
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession

import repro.ivf.IVFIndex
import repro.linalg.{BoundedMaxHeap, Hit, VecOps}
import repro.sim.{NodeLedger, Sim, SimReport, StageRecord}

/** In-flight state of one (query, vector-shard) pair: which clusters to
  * scan, the slice visit order, the current pipeline position, and the
  * per-row partial-distance accumulators. Travels node-to-node between
  * pipeline stages (its bytes are the counted communication).
  */
final case class CandBatch(
    qIdx: Int,
    shard: Int,
    sliceOrder: Array[Int],
    pos: Int,
    clusters: Array[Int],
    rows: Array[Int],
    partial: Array[Double],
) extends Serializable

/** Stage task outputs: surviving batches, per-query completed hits, and one
  * accounting record per node and pipeline position. */
sealed trait StageOut extends Serializable
final case class SurvivorOut(batch: CandBatch) extends StageOut
final case class CompletedOut(qIdx: Int, hits: Array[Hit]) extends StageOut
final case class LedgerOut(
    pos: Int, node: Int, ledger: NodeLedger, entering: Long, pruned: Long, executed: Long,
) extends StageOut

/** Result of one search batch. */
final case class EngineResult(
    hits: Array[Array[Hit]],
    report: SimReport,
    /** candidates alive at the start of pipeline position p (summed over waves) */
    pruneEntering: Array[Long],
    /** candidates pruned while processing position p */
    prunePruned: Array[Long],
    /** dim-ops the kernels actually executed at position p (summed over
      * nodes and waves). The ledgers count every row of a slice in full,
      * the paper's model; a row abandoned early inside a slice executes
      * fewer, so this never exceeds the counted dim-ops of p and equals them
      * with pruning off. Not priced. */
    executedDimOps: Array[Long],
    perNodePeakStateBytes: Array[Long],
) {
  /** Fraction of candidates whose distance computation at position p was
    * skipped — the paper's Table 3 "pruning ratio of slice p+1". */
  def pruneRatios: Array[Double] = {
    val total = pruneEntering.headOption.getOrElse(0L).toDouble
    if (total == 0) pruneEntering.map(_ => 0.0)
    else pruneEntering.map(e => 1.0 - e / total)
  }
  def avgPruneRatio: Double = {
    val r = pruneRatios
    if (r.isEmpty) 0.0 else r.sum / r.length
  }
}

/** Harmony's flexible pipelined execution engine (§4.3, Algorithm 1).
  *
  * Stage anatomy: candidate batches are keyed by the block id of their next
  * dimension slice and co-partitioned (via [[NodePartitioner]]) with the
  * base-vector blocks, so each simulated node computes partial distances for
  * exactly the state that was routed to it; the shuffle between stages *is*
  * the inter-machine transfer and is counted byte-for-byte. The driver plays
  * the master: it owns the per-query top-K heaps and merges completed
  * distances.
  *
  * Heaps, and so the pruning thresholds τ², change only when the driver
  * merges a wave's final-position hits. Every position of a wave therefore
  * reads the same τ², broadcast once per wave, and a wave is one Spark job:
  * its inputs are placed directly on the nodes holding their first blocks
  * (no shuffle), each position's survivors reach the next position through
  * a `partitionBy` shuffle, and each position's [[LedgerOut]]s are forwarded
  * through those shuffles to the wave's single `collect`.
  */
object Engine {

  /** Search one batch on `store` under the deployed `cfg`, the only
    * configuration the engine reads. Every query must have `index.dim`
    * components and no NaN. */
  def search(
      spark: SparkSession,
      store: BlockStore,
      index: IVFIndex,
      queries: Array[Array[Float]],
      cfg: HarmonyConfig,
  ): EngineResult = {
    val plan = store.plan
    val nNodes = plan.nNodes
    val bDim = plan.bDim
    val sc = spark.sparkContext
    val nQ = queries.length
    require(nQ > 0, "empty query batch")
    queries.zipWithIndex.foreach { case (q, qi) =>
      require(q.length == index.dim, s"query $qi has ${q.length} components, index has ${index.dim}")
      require(!q.exists(_.isNaN), s"query $qi contains NaN")
    }

    var clientOps = 0L
    var clientBytes = 0L

    // every kernel below reads the queries widened to Double, once per batch
    val wide = queries.map(VecOps.widen)

    // ---- Stage 0 (client): centroid routing + prewarm (Alg 1, PrewarmHeap)
    val probes: Array[Array[Int]] =
      wide.map(q => VecOps.nearestN(q, index.centroids, cfg.nprobe))
    clientOps += nQ.toLong * index.nlist * plan.dim

    val heaps = Array.fill(nQ)(new BoundedMaxHeap(cfg.k))
    if (cfg.pruning) {
      var qi = 0
      while (qi < nQ) {
        probes(qi).foreach { c =>
          val ids = store.sampleIds(c)
          val vecs = store.sampleVecs(c)
          var j = 0
          while (j < math.min(ids.length, cfg.prewarmPerCluster)) {
            heaps(qi).offer(ids(j), VecOps.l2PartialAt(wide(qi), 0, vecs(j), 0, plan.dim))
            clientOps += plan.dim
            j += 1
          }
        }
        qi += 1
      }
    }

    // ---- vector-level pipeline batching (Fig 5a): each query's probed
    // clusters, already ordered by centroid promise, are split into
    // `effWaves` chunks; completed distances of earlier waves tighten τ for
    // later ones. Within a wave, clusters group into per-shard batches.
    final case class Pair(qIdx: Int, shard: Int, clusters: Array[Int], nRows: Int)
    val effWaves = if (cfg.pipeline) cfg.maxWaves else 1
    val waves: IndexedSeq[Seq[Pair]] = {
      val buckets = IndexedSeq.fill(effWaves)(ArrayBuffer.empty[Pair])
      (0 until nQ).foreach { qi =>
        val ps = probes(qi)
        val chunk = math.max(1, (ps.length + effWaves - 1) / effWaves)
        ps.grouped(chunk).zipWithIndex.foreach { case (cs, w) =>
          cs.groupBy(plan.shardOfCluster(_)).foreach { case (shard, clusters) =>
            val sorted = clusters.sorted
            buckets(math.min(w, effWaves - 1)) +=
              Pair(qi, shard, sorted, sorted.map(index.listSize).sum)
          }
        }
      }
      buckets.map(_.toSeq)
    }

    val stages = ArrayBuffer.empty[StageRecord]
    val enteringByPos = new Array[Long](bDim)
    val prunedByPos = new Array[Long](bDim)
    val executedByPos = new Array[Long](bDim)
    val pruning = cfg.pruning
    val k = cfg.k
    val bcLayouts = store.bcLayouts

    val bcQueries = sc.broadcast(wide)
    try waves.filter(_.nonEmpty).foreach { wave =>
      // slice start offsets (§4.3 load balancing): in dimension order
      // without balanced load, otherwise each batch, largest first, starts
      // at the slice whose node has the least first-stage load so far
      val nodeLoad = new Array[Long](nNodes)
      val ordered = wave.sortBy(p => (-p.nRows, p.qIdx, p.shard))
      val offsets: Map[(Int, Int), Int] = ordered.map { p =>
        val off =
          if (!cfg.balancedLoad || bDim == 1) 0
          else {
            val best = (0 until bDim).minBy(o => nodeLoad(plan.nodeOf(p.shard, o)))
            nodeLoad(plan.nodeOf(p.shard, best)) += p.nRows
            best
          }
        ((p.qIdx, p.shard), off)
      }.toMap

      // wave inputs are placed straight onto the node holding their first
      // block: one parallelize slice per node, zipped with that node's blocks
      val byNode = Array.fill(nNodes)(ArrayBuffer.empty[(Int, StageOut)])
      wave.foreach { p =>
        val off = offsets((p.qIdx, p.shard))
        val order = Array.tabulate(bDim)(i => (off + i) % bDim)
        val b = CandBatch(p.qIdx, p.shard, order, 0, p.clusters,
          rows = Array.emptyIntArray, partial = Array.emptyDoubleArray)
        val bid = plan.blockId(p.shard, order(0))
        byNode(plan.nodeOfBlock(bid)) += ((bid, SurvivorOut(b)))
      }

      // heaps (hence τ) change only at the wave's final merge, so every
      // position reads the same bounds and the whole wave is one Spark job
      val bcBounds = sc.broadcast(heaps.map(h => pruneBound(h.threshold, pruning)))
      val meta = try {
        var in: RDD[(Int, StageOut)] = sc.parallelize(byNode.toSeq, nNodes).flatMap(_.iterator)
        var out: RDD[StageOut] = null
        var pos = 0
        while (pos < bDim) {
          val stagePos = pos
          out = in.zipPartitions(store.blocks) { (recs, blocks) =>
            // ledgers of earlier positions ride along to the wave's collect
            val forwarded = ArrayBuffer.empty[StageOut]
            val cands = recs.flatMap {
              case (bid, SurvivorOut(b)) => Iterator.single((bid, b))
              case (_, l) => forwarded += l; Iterator.empty
            }
            processStage(cands, blocks, bcQueries, bcBounds, bcLayouts, stagePos, bDim, k) ++
              forwarded
          }
          if (pos < bDim - 1) {
            in = out
              .map {
                case s @ SurvivorOut(b) => (b.shard * bDim + b.sliceOrder(b.pos), s: StageOut)
                case l: LedgerOut => (l.node, l: StageOut)
                case c => throw new IllegalStateException(s"$c before the final position")
              }
              .partitionBy(plan.partitioner)
          }
          pos += 1
        }
        out.collect()
      } finally bcBounds.destroy()

      val perNode = Array.fill(bDim, nNodes)(NodeLedger())
      meta.foreach {
        case LedgerOut(p, node, ledger, entering, pruned, executed) =>
          perNode(p)(node).add(ledger)
          enteringByPos(p) += entering
          prunedByPos(p) += pruned
          executedByPos(p) += executed
        case CompletedOut(qIdx, hits) =>
          heaps(qIdx).offerAll(hits)
          clientBytes += hits.length.toLong * 12L
        case s: SurvivorOut => throw new IllegalStateException(s"$s after the final position")
      }
      perNode.indices.foreach(p => stages += StageRecord(stages.size, p, perNode(p)))
    } finally bcQueries.destroy()

    val report = Sim.evaluate(stages.toSeq, cfg.costParams, overlapComm = cfg.pipeline,
      nNodes, nQ, clientOps, clientBytes)

    val peaks = new Array[Long](nNodes)
    stages.foreach(st => (0 until nNodes).foreach { n =>
      if (st.perNode(n).bytesIn > peaks(n)) peaks(n) = st.perNode(n).bytesIn
    })

    EngineResult(heaps.map(_.toSortedArray), report, enteringByPos, prunedByPos, executedByPos,
      peaks)
  }

  /** The bound above which a partial distance is pruned, and at which the
    * kernels abandon a row early (the same value, so both decide alike):
    * τ² with a slack that absorbs last-bit differences between slice
    * orders, or `+inf` when pruning is off or the heap is not yet full. */
  private def pruneBound(tauSq: Double, pruning: Boolean): Double =
    if (!pruning || tauSq == Double.PositiveInfinity) Double.PositiveInfinity
    else tauSq * (1.0 + 1e-9) + 1e-12

  /** One pipeline stage on one simulated node (Alg 1, DimensionPipeline
    * body): materialize rows on first touch, accumulate the local slice's
    * partial distances, prune rows whose partial already exceeds the
    * query's [[pruneBound]], and either forward the surviving state or emit
    * final top-k hits. Each batch's `rows` and `partial` are consumed:
    * survivors are compacted in place before they are copied out.
    */
  private def processStage(
      cands: Iterator[(Int, CandBatch)],
      blocks: Iterator[(Int, BlockData)],
      bcQueries: Broadcast[Array[Array[Double]]],
      bcBounds: Broadcast[Array[Double]],
      bcLayouts: Broadcast[Array[ShardLayout]],
      pos: Int,
      bDim: Int,
      k: Int,
  ): Iterator[StageOut] = {
    val node = TaskContext.getPartitionId()
    val blockMap = blocks.toMap
    def blockOf(bid: Int): BlockData = blockMap.getOrElse(bid,
      throw new IllegalStateException(s"block $bid not resident on node $node"))
    val queries = bcQueries.value
    val bounds = bcBounds.value
    val layouts = bcLayouts.value
    val ledger = NodeLedger()
    var entering = 0L
    var prunedCount = 0L
    var executed = 0L
    val outs = ArrayBuffer.empty[StageOut]

    // at the first position one scan, grouped by cluster, fills every
    // batch's partials; later positions add their slice per batch below
    // (survivor rows differ per query there)
    val batches =
      if (pos == 0) {
        val (scanned, ops) = scanFirstSlice(cands.toArray, blockOf, queries, bounds, layouts)
        executed += ops
        scanned.iterator
      } else cands

    batches.foreach { case (bid, b) =>
      val block = blockOf(bid)
      val layout = layouts(b.shard)
      val q = queries(b.qIdx)
      val bound = bounds(b.qIdx)

      // comm in: first hop carries the query chunk + cluster id list;
      // later hops carry the partial state + the query chunk.
      if (b.pos == 0) {
        ledger.bytesIn += block.sliceLen * 4L + b.clusters.length * 4L
      } else {
        ledger.bytesIn += b.rows.length * 12L + block.sliceLen * 4L
      }
      ledger.msgsIn += 1
      entering += b.rows.length

      val sliceLen = block.sliceLen
      val sliceLo = block.sliceLo
      val rows = b.rows
      val parts = b.partial
      val nRows = rows.length
      val last = b.pos == bDim - 1
      // final slice: full distances go straight into this batch's local
      // top-k; earlier slices compact their survivors to the front
      var heap: BoundedMaxHeap = null
      var kept = 0
      var i = 0
      while (i < nRows) {
        val r = rows(i)
        // the first position's partials are already complete for this slice
        if (pos > 0) {
          executed += VecOps.l2PartialBounded(q, sliceLo, block.data, r * sliceLen, sliceLen,
            parts(i), bound, parts, i)
        }
        val d = parts(i)
        if (d > bound) {
          prunedCount += 1
        } else {
          if (last) {
            if (heap == null) heap = new BoundedMaxHeap(k)
            heap.offer(layout.rowIds(r), d)
          } else {
            rows(kept) = r
            parts(kept) = d
          }
          kept += 1
        }
        i += 1
      }
      ledger.dimOps += nRows.toLong * sliceLen

      if (last) {
        if (heap != null) {
          val hits = heap.toSortedArray
          ledger.bytesOut += hits.length.toLong * 12L
          ledger.msgsOut += 1
          outs += CompletedOut(b.qIdx, hits)
        }
      } else if (kept > 0) {
        val survivor = b.copy(
          pos = b.pos + 1,
          rows = java.util.Arrays.copyOf(rows, kept),
          partial = java.util.Arrays.copyOf(parts, kept))
        ledger.bytesOut += kept.toLong * 12L
        ledger.msgsOut += 1
        outs += SurvivorOut(survivor)
      }
    }

    outs += LedgerOut(pos, node, ledger, entering, prunedCount, executed)
    outs.iterator
  }

  /** A wave's first position on one node: each of `batches`, copied with
    * its candidate rows (its clusters' shard-row ranges, in cluster order)
    * and this slice's distances in `partial`, and the dim-ops the kernels
    * executed. The batches are grouped by (block, cluster), so each cluster
    * range is read once for every query that probes it, four queries at a
    * time; the 1–3 left over go through the one-query kernel. Each row's
    * distance is summed from 0.0 in dimension order whichever kernel
    * computes it, and `0.0 + s == s` for `s >= 0`, so it is written straight
    * into `partial`. Both kernels may abandon a row once it exceeds its
    * query's bound; the value written then exceeds the bound too, so the
    * prune test in [[processStage]] drops it as it would the full sum.
    */
  private def scanFirstSlice(
      batches: Array[(Int, CandBatch)],
      blockOf: Int => BlockData,
      queries: Array[Array[Double]],
      bounds: Array[Double],
      layouts: Array[ShardLayout],
  ): (Array[(Int, CandBatch)], Long) = {
    // a batch probing a cluster: the cluster's rows sit at `off` in `partial`
    final case class Member(qIdx: Int, partial: Array[Double], off: Int)
    final class Group(val bid: Int, val lo: Int, val hi: Int) {
      val members = ArrayBuffer.empty[Member]
    }
    // (block, cluster) → the batches probing it
    val groups = scala.collection.mutable.HashMap.empty[Long, Group]

    val materialized = batches.map { case (bid, b) =>
      val layout = layouts(b.shard)
      var total = 0
      b.clusters.foreach(c => total += layout.rowEnd(c) - layout.rowStart(c))
      val rows = new Array[Int](total)
      val partial = new Array[Double](total)
      var w = 0
      b.clusters.foreach { c =>
        val lo = layout.rowStart(c)
        val hi = layout.rowEnd(c)
        val g = groups.getOrElseUpdate((bid.toLong << 32) | c, new Group(bid, lo, hi))
        g.members += Member(b.qIdx, partial, w)
        var r = lo
        while (r < hi) { rows(w) = r; w += 1; r += 1 }
      }
      (bid, b.copy(rows = rows, partial = partial))
    }

    // the 4-query kernel's arguments, refilled for every group of four
    val qs4 = new Array[Array[Double]](4)
    val bounds4 = new Array[Double](4)
    val outs4 = new Array[Array[Double]](4)
    val offs4 = new Array[Int](4)
    var executed = 0L
    groups.valuesIterator.foreach { g =>
      val block = blockOf(g.bid)
      val len = block.sliceLen
      val ms = g.members
      var m = 0
      while (m + 4 <= ms.length) {
        var j = 0
        while (j < 4) {
          val b = ms(m + j)
          qs4(j) = queries(b.qIdx)
          bounds4(j) = bounds(b.qIdx)
          outs4(j) = b.partial
          offs4(j) = b.off
          j += 1
        }
        executed += VecOps.l2PartialRows4(qs4, block.sliceLo, block.data, len,
          g.lo, g.hi, bounds4, outs4, offs4)
        m += 4
      }
      while (m < ms.length) {
        val b = ms(m)
        val q = queries(b.qIdx)
        val bound = bounds(b.qIdx)
        var r = g.lo
        while (r < g.hi) {
          executed += VecOps.l2PartialBounded(q, block.sliceLo, block.data, r * len, len,
            0.0, bound, b.partial, b.off + r - g.lo)
          r += 1
        }
        m += 1
      }
    }
    (materialized, executed)
  }
}
