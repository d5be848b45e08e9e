package repro.core

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.{HashPartitioner, SparkException, TaskContext}
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel

import repro.ivf.IVFIndex
import repro.linalg.{BoundedMaxHeap, Hit, Par, VecOps}
import repro.sim.{NodeLedger, SimReport}

/** In-flight state of one (query, vector-shard) batch of a wave, built at
  * its first position from its [[WaveBatch]]: its start slice, the pipeline
  * position it goes to next, its surviving shard rows with their
  * partial-distance accumulators, and the query's [[Engine.pruneBound]] for
  * the wave. Travels node-to-node between pipeline stages (its rows and
  * partials are the counted communication).
  */
final case class CandBatch(
    qIdx: Int,
    shard: Int,
    firstSlice: Int,
    pos: Int,
    rows: Array[Int],
    partial: Array[Double],
    bound: Double,
) extends StageOut

/** Per-query hit lists in primitive arrays: entry `i` holds the hits of
  * query `qIdx(i)` at `[ends(i - 1), ends(i))` of `ids` and `dists`
  * (`ends(-1)` is 0). */
final case class PackedHits(qIdx: Array[Int], ends: Array[Int], ids: Array[Long], dists: Array[Double]) {
  def size: Int = ids.length

  /** Offer every hit into `heaps(qIdx)`, entry by entry, in order. */
  def offerInto(heaps: Array[BoundedMaxHeap]): Unit = {
    var i = 0
    var j = 0
    while (i < qIdx.length) {
      val h = heaps(qIdx(i))
      while (j < ends(i)) { h.offer(ids(j), dists(j)); j += 1 }
      i += 1
    }
  }
}

object PackedHits {
  final class Builder {
    private val qIdx = Array.newBuilder[Int]
    private val ends = Array.newBuilder[Int]
    private val ids = Array.newBuilder[Long]
    private val dists = Array.newBuilder[Double]
    private var n = 0
    def nonEmpty: Boolean = n > 0

    /** Append query `q`'s `hits`; an empty list adds no entry. */
    def add(q: Int, hits: Array[Hit]): Unit = if (hits.nonEmpty) {
      qIdx += q
      hits.foreach { h => ids += h.id; dists += h.dist }
      n += hits.length
      ends += n
    }

    def result(): PackedHits = PackedHits(qIdx.result(), ends.result(), ids.result(), dists.result())
  }

  /** The contents of `heaps`, best first per query. */
  def of(heaps: Array[BoundedMaxHeap]): PackedHits = {
    val b = new Builder
    heaps.indices.foreach(q => b.add(q, heaps(q).toSortedArray))
    b.result()
  }
}

/** Stage task outputs, keyed by their destination node in the shuffle
  * after the stage: surviving [[CandBatch]]es, a wave's completed hits for
  * the other nodes, and each node's [[NodeState]]. */
sealed trait StageOut extends Serializable
/** Wave `wave`'s completed hits from `node`'s final-position batches, in
  * batch order: kept in the node's [[NodeState]] and, while another wave
  * follows, sent to every other node for that wave's bounds. */
final case class HitsOut(wave: Int, node: Int, hits: PackedHits) extends StageOut
/** One node's accounting for position `pos` of wave `wave`. */
final case class LedgerOut(
    wave: Int, pos: Int, ledger: NodeLedger, entering: Long, pruned: Long, executed: Long,
    /** [[Engine.boundsChecksum]] of the bounds the node derived for the
      * wave, at its first position (0 at later positions) */
    boundsSum: Long,
)
/** Everything node `node` keeps between stages: its replica of the batch's
  * top-K heaps while another wave follows (`None` from the last wave's
  * first position on), its own hits of every wave so far and its ledgers.
  * Routed to its own node after each stage; the batch's `collect` receives
  * one per node and nothing else. */
final case class NodeState(
    node: Int, replica: Option[PackedHits], hits: Array[HitsOut], ledgers: Array[LedgerOut],
) extends StageOut

/** Driver wall time of one search batch by phase, in nanoseconds. Not
  * priced and not part of any ledger. */
final case class DriverPhases(
    /** query validation and widening to `Double` */
    validateNs: Long,
    /** centroid routing (the probe lists) */
    routeNs: Long,
    /** prewarm heap offers */
    prewarmNs: Long,
    /** the wave layout ([[Dataflow.waves]]) and every node's initial state */
    waveBuildNs: Long,
    /** the broadcast, building the lineage, submitting the job and
      * `collect` returning */
    jobNs: Long,
    /** replaying the waves' merges (with the replica cross-check), then
      * `Sim.evaluate` and the result */
    mergeNs: Long,
)

/** Result of one search batch. */
final case class EngineResult(
    hits: Array[Array[Hit]],
    report: SimReport,
    /** what `report` prices */
    ledgers: BatchLedgers,
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
    driver: DriverPhases,
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
  * Stage anatomy: node `n` holds grid block `n` (partition `n` of
  * [[BlockStore.blocks]]), and candidate batches are keyed by the node of
  * their next dimension slice, so a `HashPartitioner(nNodes)` shuffle,
  * which maps an `Int` key in `[0, nNodes)` to itself, co-partitions them
  * with the block they need: each simulated node computes partial distances
  * for exactly the state that was routed to it; the shuffle between stages
  * *is* the inter-machine transfer and is counted byte-for-byte.
  *
  * A batch is one Spark job. The driver routes the queries, prewarms their
  * top-K heaps and lays out every wave's [[WaveBatch]]es up front; start
  * slices depend only on row counts. The batch's one broadcast carries the
  * widened queries, the waves, the plan, `k` and `pruning`. Each (wave,
  * position) is one stage, and a stage task reads its node's
  * [[NodeState]], the records routed to it, its block and the broadcast: at
  * a wave's first position the node takes the batches whose first block it
  * holds and builds their [[CandBatch]]es, each position's survivors reach
  * the next through a `partitionBy` shuffle, and the shuffle after a wave's
  * final position carries its completed hits to every other node, where
  * the next wave's first position starts.
  *
  * The nodes play the master for τ: each keeps a replica of the heaps
  * (starting from the driver's prewarm heaps), folds every wave's hits into
  * it in (source node, sequence) order, its own from its state, and derives
  * the next wave's bounds from it; survivors carry their bound in
  * [[CandBatch]]. Heap contents do not depend on offer order, so every
  * replica holds what the driver's heaps hold after the same waves. Each
  * node's state, with its hits and ledgers, reaches the batch's single
  * `collect` once; the driver then replays the merges wave by wave, checks
  * each node's bounds against its own, and produces the top-K.
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
    val t0 = System.nanoTime()
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
    val k = cfg.k
    val pruning = cfg.pruning

    // every kernel below reads the queries widened to Double, once per batch
    val wide = queries.map(VecOps.widen)
    val t1 = System.nanoTime()

    // ---- Stage 0 (client): centroid routing + prewarm (Alg 1, PrewarmHeap),
    // each over disjoint query ranges on driver threads
    val probes = new Array[Array[Int]](nQ)
    Par.foreachChunk(nQ, (lo, hi) =>
      (lo until hi).foreach(qi => probes(qi) = VecOps.nearestN(wide(qi), index.centroids, cfg.nprobe)))
    val t2 = System.nanoTime()

    val heaps = new Array[BoundedMaxHeap](nQ)
    Par.foreachChunk(nQ, (lo, hi) => (lo until hi).foreach { qi =>
      heaps(qi) = new BoundedMaxHeap(k)
      if (pruning) probes(qi).foreach { c =>
        (0 until math.min(index.listSize(c), Dataflow.PrewarmPerCluster)).foreach { j =>
          heaps(qi).offer(index.listIds(c)(j),
            VecOps.l2PartialAt(wide(qi), 0, index.listData(c), j * plan.dim, plan.dim))
        }
      }
    })
    val clientOps = Dataflow.clientDimOps(probes, index.listSizes, plan.dim, cfg)
    val t3 = System.nanoTime()

    val waves = Dataflow.waves(probes, index.listSizes, plan, cfg)
    val nWaves = waves.length
    // every node's state starts from the prewarm heaps
    val prewarmed = Some(PackedHits.of(heaps))
    val states: Seq[(Int, StageOut)] =
      (0 until nNodes).map(n => (n, NodeState(n, prewarmed, Array.empty, Array.empty)))
    val t4 = System.nanoTime()

    // stage w·bDim + pos zips what reaches each node from before (its
    // state, then also the previous stage's survivors or hits) with its block
    val bc = sc.broadcast(BatchInputs(wide, waves, plan, k, pruning))
    val collected = try {
      // checked before submitting: a job that fails in its tasks leaves its
      // task binaries broadcast until the driver's next GC
      if (store.blocks.getStorageLevel == StorageLevel.NONE)
        throw new SparkException(s"the blocks of RDD ${store.blocks.id} were unpersisted")
      val toNodes = new HashPartitioner(nNodes)
      var prev: RDD[(Int, StageOut)] = sc.parallelize(states, nNodes)
      for (w <- 0 until nWaves; pos <- 0 until bDim) {
        val out = prev.zipPartitions(store.blocks)(new StageFn(bc, w, pos))
        prev = if (w < nWaves - 1 || pos < bDim - 1) out.partitionBy(toNodes) else out
      }
      prev.collect()
    } finally bc.destroy()
    val t5 = System.nanoTime()

    // replay the merges wave by wave, as the nodes did
    val perNode = Array.fill(nWaves, bDim, nNodes)(NodeLedger())
    val boundsSums = Array.fill(nWaves, nNodes)(Option.empty[Long])
    val hitsOf = Array.fill(nWaves)(ArrayBuffer.empty[HitsOut])
    val enteringByPos = new Array[Long](bDim)
    val prunedByPos = new Array[Long](bDim)
    val executedByPos = new Array[Long](bDim)
    collected.foreach {
      case (_, s: NodeState) =>
        s.ledgers.foreach { l =>
          perNode(l.wave)(l.pos)(s.node).add(l.ledger)
          enteringByPos(l.pos) += l.entering
          prunedByPos(l.pos) += l.pruned
          executedByPos(l.pos) += l.executed
          if (l.pos == 0) boundsSums(l.wave)(s.node) = Some(l.boundsSum)
        }
        s.hits.foreach(h => hitsOf(h.wave) += h)
      case (_, o) => throw new IllegalStateException(s"$o reached the batch's collect")
    }
    // the bounds of wave w come from the hits of the waves before it
    (0 to nWaves).foreach { w =>
      val expected = boundsChecksum(foldHits(heaps, if (w == 0) Nil else hitsOf(w - 1), pruning))
      if (w < nWaves) (0 until nNodes).foreach { n =>
        if (!boundsSums(w)(n).contains(expected)) throw new IllegalStateException(
          s"node $n pruned wave $w against bounds ${boundsSums(w)(n)} that differ from the driver's $expected")
      }
    }
    val clientBytes = hitsOf.iterator.flatten.map(_.hits.size * Dataflow.HitBytes).sum
    val ledgers = BatchLedgers(Dataflow.stages(perNode), clientOps, clientBytes)
    val report = ledgers.price(cfg, nNodes, nQ)

    val peaks = new Array[Long](nNodes)
    ledgers.stages.foreach(st => (0 until nNodes).foreach { n =>
      if (st.perNode(n).bytesIn > peaks(n)) peaks(n) = st.perNode(n).bytesIn
    })

    val hits = heaps.map(_.toSortedArray)
    val t6 = System.nanoTime()
    EngineResult(hits, report, ledgers, enteringByPos, prunedByPos, executedByPos, peaks,
      DriverPhases(t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4, t6 - t5))
  }

  /** What the driver fixes before a batch's job: its one broadcast. */
  private final case class BatchInputs(
      queries: Array[Array[Double]],
      waves: IndexedSeq[IndexedSeq[WaveBatch]],
      plan: PartitionPlan,
      k: Int,
      pruning: Boolean,
  )

  /** The task of stage (`wave`, `pos`) on one node, keyed for the shuffle
    * after it. It reads the node's [[NodeState]], the records routed to the
    * node (survivors at a later position, the previous wave's hits from the
    * other nodes at a first one) and its one block. A first position takes
    * the wave's batches whose first block the node holds (a final position
    * emits hits, never survivors); it folds the previous wave's hits, the
    * node's own from its state, into the state's heap replica
    * ([[foldHits]]), derives the wave's bounds from it and keeps the replica
    * while another wave follows. The task's new state carries its hits and
    * ledger on.
    *
    * A named class rather than a lambda: Spark's closure cleaner scans the
    * bytecode of a lambda's enclosing class (this large object) on every
    * RDD operation, about 1 ms each on the driver before the job is
    * submitted, and it skips named classes. */
  private final class StageFn(bc: Broadcast[BatchInputs], wave: Int, pos: Int)
      extends ((Iterator[(Int, StageOut)], Iterator[BlockData]) => Iterator[(Int, StageOut)]) with Serializable {
    def apply(prev: Iterator[(Int, StageOut)], blocks: Iterator[BlockData]): Iterator[(Int, StageOut)] = {
      val in = bc.value
      val plan = in.plan
      val lastWave = wave == in.waves.length - 1
      val node = TaskContext.getPartitionId()
      val block = blocks.next()
      def requireBlock(qIdx: Int, shard: Int, at: Int, first: Int): Unit = {
        val slice = plan.sliceAt(first, at)
        if (at != pos || shard != block.shard || slice != block.slice) throw new IllegalStateException(
          s"query $qIdx's batch for position $at, block ($shard, $slice) reached node $node at position " +
            s"$pos, which holds block (${block.shard}, ${block.slice})")
      }
      var state: NodeState = null
      val cands = ArrayBuffer.empty[CandBatch]
      val fresh = ArrayBuffer.empty[HitsOut]
      prev.foreach {
        case (_, s: NodeState) => state = s
        case (_, b: CandBatch) => requireBlock(b.qIdx, b.shard, b.pos, b.firstSlice); cands += b
        case (_, h: HitsOut) if pos == 0 && h.wave == wave - 1 => fresh += h
        case (_, o) => throw new IllegalStateException(s"$o reached node $node at position $pos of wave $wave")
      }
      if (state == null) throw new IllegalStateException(s"no state reached node $node at position $pos of wave $wave")
      val ledger = NodeLedger()
      val (batches, replica, boundsSum, executed) =
        if (pos == 0) {
          val heaps = Array.fill(in.queries.length)(new BoundedMaxHeap(in.k))
          state.replica.getOrElse(throw new IllegalStateException(s"no heap replica reached node $node in wave $wave"))
            .offerInto(heaps)
          val bounds = foldHits(heaps, fresh ++ state.hits.filter(_.wave == wave - 1), in.pruning)
          val wbs = in.waves(wave).iterator
            .filter(b => plan.nodeOf(b.shard, plan.sliceAt(b.firstSlice, 0)) == node).toArray
          wbs.foreach { b =>
            requireBlock(b.qIdx, b.shard, 0, b.firstSlice)
            Dataflow.countArrival(ledger, 0, b.nRows, block.sliceLen, b.clusters.length)
          }
          val (scanned, ops) = scanFirstSlice(wbs, block, in.queries, bounds)
          (scanned, if (lastWave) None else Some(PackedHits.of(heaps)), boundsChecksum(bounds), ops)
        } else {
          cands.foreach(b => Dataflow.countArrival(ledger, pos, b.rows.length, block.sliceLen, 0))
          (cands.toArray, state.replica, 0L, 0L)
        }
      val (outs, completed, l) = processStage(batches, block, in, wave, pos, ledger, executed, boundsSum)
      val hits = completed.map(HitsOut(wave, node, _))
      if (!lastWave) outs ++= hits
      outs += NodeState(node, replica, state.hits ++ hits, state.ledgers :+ l)
      outs.iterator.flatMap(route(plan, _))
    }
  }

  /** Where a stage output goes in the shuffle after its stage: a survivor
    * to the node of its next block, a wave's hits to every other node, and
    * a node's state to its own node (the last stage's output is collected
    * as it is keyed). */
  private def route(plan: PartitionPlan, o: StageOut): Iterator[(Int, StageOut)] = o match {
    case b: CandBatch => Iterator.single((plan.nodeOf(b.shard, plan.sliceAt(b.firstSlice, b.pos)), b))
    case h: HitsOut => Iterator.range(0, plan.nNodes).filter(_ != h.node).map((_, h))
    case s: NodeState => Iterator.single((s.node, s))
  }

  /** Offer `hits`, one wave's [[HitsOut]]s, into `heaps` in source-node
    * order, and return each query's [[pruneBound]] from the folded heaps.
    * Every node derives a wave's bounds this way, and the driver replays
    * it to check them. */
  private def foldHits(heaps: Array[BoundedMaxHeap], hits: Iterable[HitsOut], pruning: Boolean): Array[Double] = {
    hits.toSeq.sortBy(_.node).foreach(_.hits.offerInto(heaps))
    heaps.map(h => pruneBound(h.threshold, pruning))
  }

  /** Order-dependent checksum of bounds by bit pattern: a difference in any
    * single bound always changes it (the multiplier is odd). */
  private def boundsChecksum(bounds: Array[Double]): Long = {
    var h = 0L
    bounds.foreach(b => h = h * 0x9E3779B97F4A7C15L + java.lang.Double.doubleToRawLongBits(b))
    h
  }

  /** The bound above which a partial distance is pruned, and at which the
    * kernels abandon a row early (the same value, so both decide alike):
    * τ² with a slack that absorbs last-bit differences between slice
    * orders, or `+inf` when pruning is off or the heap is not yet full. */
  private def pruneBound(tauSq: Double, pruning: Boolean): Double =
    if (!pruning || tauSq == Double.PositiveInfinity) Double.PositiveInfinity
    else tauSq * (1.0 + 1e-9) + 1e-12

  /** One pipeline stage on one simulated node (Alg 1, DimensionPipeline
    * body), after `ledger` has counted every arrival: accumulate the local
    * slice's partial distances (at the first position [[scanFirstSlice]]
    * has, in one scan grouped by cluster, and executed `firstOps` dim-ops;
    * later positions add their slice per batch, as survivor rows differ
    * per query there), prune rows whose partial already exceeds the
    * batch's `bound`, and return the surviving batches, the node's final
    * top-k hits in batch order (if any) and its ledger. Each batch's `rows`
    * and `partial` are consumed: survivors are compacted in place before
    * they are copied out.
    */
  private def processStage(
      batches: Array[CandBatch],
      block: BlockData,
      in: BatchInputs,
      wave: Int,
      pos: Int,
      ledger: NodeLedger,
      firstOps: Long,
      boundsSum: Long,
  ): (ArrayBuffer[StageOut], Option[PackedHits], LedgerOut) = {
    val layout = block.layout
    val queries = in.queries
    var entering = 0L
    var prunedCount = 0L
    var executed = firstOps
    val outs = ArrayBuffer.empty[StageOut]
    val completed = new PackedHits.Builder

    batches.foreach { b =>
      val q = queries(b.qIdx)
      val bound = b.bound
      entering += b.rows.length

      val sliceLen = block.sliceLen
      val sliceLo = block.sliceLo
      val rows = b.rows
      val parts = b.partial
      val nRows = rows.length
      val last = b.pos == in.plan.bDim - 1
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
            if (heap == null) heap = new BoundedMaxHeap(in.k)
            heap.offer(layout.rowIds(r), d)
          } else {
            rows(kept) = r
            parts(kept) = d
          }
          kept += 1
        }
        i += 1
      }

      if (last) {
        if (heap != null) completed.add(b.qIdx, heap.toSortedArray)
      } else if (kept > 0) {
        outs += b.copy(
          pos = b.pos + 1,
          rows = java.util.Arrays.copyOf(rows, kept),
          partial = java.util.Arrays.copyOf(parts, kept))
      }
    }

    (outs, Option.when(completed.nonEmpty)(completed.result()),
      LedgerOut(wave, pos, ledger, entering, prunedCount, executed, boundsSum))
  }

  /** A wave's first position on one node: the state of each of `batches`,
    * with its candidate rows (its clusters' shard-row ranges in `block`, in
    * cluster order), this slice's distances in `partial` and its query's
    * bound from `bounds`, and the dim-ops the kernels executed. The batches
    * are grouped by cluster, so each cluster range is read once for every
    * query that probes it, four queries at a time; the 1–3 left over go
    * through the one-query kernel. Each row's
    * distance is summed from 0.0 in dimension order whichever kernel
    * computes it, and `0.0 + s == s` for `s >= 0`, so it is written straight
    * into `partial`. Both kernels may abandon a row once it exceeds its
    * query's bound; the value written then exceeds the bound too, so the
    * prune test in [[processStage]] drops it as it would the full sum.
    */
  private def scanFirstSlice(
      batches: Array[WaveBatch],
      block: BlockData,
      queries: Array[Array[Double]],
      bounds: Array[Double],
  ): (Array[CandBatch], Long) = {
    // a batch probing a cluster: the cluster's rows sit at `off` in `partial`
    final case class Member(qIdx: Int, partial: Array[Double], off: Int)
    final class Group(val lo: Int, val hi: Int) {
      val members = ArrayBuffer.empty[Member]
    }
    // cluster → the batches probing it
    val groups = scala.collection.mutable.HashMap.empty[Int, Group]
    val layout = block.layout

    val materialized = batches.map { b =>
      var total = 0
      b.clusters.foreach(c => total += layout.rowEnd(c) - layout.rowStart(c))
      val rows = new Array[Int](total)
      val partial = new Array[Double](total)
      var w = 0
      b.clusters.foreach { c =>
        val lo = layout.rowStart(c)
        val hi = layout.rowEnd(c)
        val g = groups.getOrElseUpdate(c, new Group(lo, hi))
        g.members += Member(b.qIdx, partial, w)
        var r = lo
        while (r < hi) { rows(w) = r; w += 1; r += 1 }
      }
      CandBatch(b.qIdx, b.shard, b.firstSlice, 0, rows, partial, bounds(b.qIdx))
    }

    // the 4-query kernel's arguments, refilled for every group of four
    val qs4 = new Array[Array[Double]](4)
    val bounds4 = new Array[Double](4)
    val outs4 = new Array[Array[Double]](4)
    val offs4 = new Array[Int](4)
    var executed = 0L
    val len = block.sliceLen
    groups.valuesIterator.foreach { g =>
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
