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
  * after the stage: surviving [[CandBatch]]es, each node's completed hits
  * of a wave, each node's heap replica, and one accounting record per node,
  * wave and pipeline position. */
sealed trait StageOut extends Serializable
/** Wave `wave`'s completed hits from `node`'s final-position batches, in
  * batch order: replicated to every node for the next wave's bounds and
  * forwarded once to the batch's `collect`. */
final case class HitsOut(wave: Int, node: Int, hits: PackedHits) extends StageOut
/** A node's replica of the batch's top-K heaps, carried from one wave's
  * first position to the next wave's on the same node. */
final case class ReplicaOut(heaps: PackedHits) extends StageOut
final case class LedgerOut(
    wave: Int, pos: Int, node: Int, ledger: NodeLedger, entering: Long, pruned: Long, executed: Long,
    /** [[Engine.boundsChecksum]] of the bounds the node derived for the
      * wave, at its first position (0 at later positions) */
    boundsSum: Long,
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
    /** every wave's per-node inputs */
    waveBuildNs: Long,
    /** building the lineage, submitting the job and `collect` returning */
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
  * top-K heaps and places every wave's [[WaveBatch]]es on their first
  * nodes up front; start slices depend only on row counts. Each (wave,
  * position) is one stage: a wave's batches join it at its first position,
  * which builds their [[CandBatch]]es, each position's survivors reach the
  * next through a `partitionBy` shuffle, and the shuffle after a wave's
  * final position carries its completed hits to every node, where the next
  * wave's first position starts.
  *
  * The nodes play the master for τ: each keeps a replica of the heaps
  * (starting from the driver's prewarm heaps), folds every wave's hits into
  * it in (source node, sequence) order, and derives the next wave's bounds
  * from it; survivors carry their bound in [[CandBatch]]. Heap contents do
  * not depend on offer order, so every replica holds what the driver's
  * heaps hold after the same waves. Ledgers and hits are forwarded through
  * the shuffles to the batch's single `collect`; the driver then replays
  * the merges wave by wave, checks each node's bounds against its own, and
  * produces the top-K.
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

    // every wave's inputs, placed straight onto the node holding each
    // batch's first block
    val waves = Dataflow.waves(probes, index.listSizes, plan, cfg)
    val nWaves = waves.length
    def firstNode(b: WaveBatch): Int = plan.nodeOf(b.shard, plan.sliceAt(b.firstSlice, 0))
    val inputs: IndexedSeq[Seq[Array[WaveBatch]]] =
      waves.map(wave => (0 until nNodes).map(n => wave.filter(firstNode(_) == n).toArray))
    // every node's heap replica starts from the prewarm heaps
    val prewarmed = PackedHits.of(heaps)
    val replicas: Seq[(Int, StageOut)] = (0 until nNodes).map(n => (n, ReplicaOut(prewarmed)))
    val t4 = System.nanoTime()

    // stage w·bDim + pos zips what reaches each node from before (the
    // replicas at first, then the previous stage's shuffled output), the
    // node's wave inputs (none after a first position) and its block
    val bcQueries = sc.broadcast(wide)
    val meta = try {
      // checked before submitting: a job that fails in its tasks leaves its
      // task binaries broadcast until the driver's next GC
      if (store.blocks.getStorageLevel == StorageLevel.NONE)
        throw new SparkException(s"the blocks of RDD ${store.blocks.id} were unpersisted")
      val consts = StageConsts(bcQueries, plan, nWaves, k, pruning)
      val toNodes = new HashPartitioner(nNodes)
      val noInputs = sc.parallelize(Seq.fill(nNodes)(Array.empty[WaveBatch]), nNodes)
      var prev: RDD[(Int, StageOut)] = sc.parallelize(replicas, nNodes)
      for (w <- 0 until nWaves; pos <- 0 until bDim) {
        val mine = if (pos == 0) sc.parallelize(inputs(w), nNodes) else noInputs
        val out = prev.zipPartitions(mine, store.blocks)(new StageFn(consts, w, pos))
        prev = if (w < nWaves - 1 || pos < bDim - 1) out.partitionBy(toNodes) else out
      }
      prev.collect()
    } finally bcQueries.destroy()
    val t5 = System.nanoTime()

    // replay the merges wave by wave, as the nodes did
    val perNode = Array.fill(nWaves, bDim, nNodes)(NodeLedger())
    val boundsSums = Array.fill(nWaves, nNodes)(Option.empty[Long])
    val hitsOf = Array.fill(nWaves)(ArrayBuffer.empty[HitsOut])
    val enteringByPos = new Array[Long](bDim)
    val prunedByPos = new Array[Long](bDim)
    val executedByPos = new Array[Long](bDim)
    meta.foreach {
      case (_, l: LedgerOut) =>
        perNode(l.wave)(l.pos)(l.node).add(l.ledger)
        enteringByPos(l.pos) += l.entering
        prunedByPos(l.pos) += l.pruned
        executedByPos(l.pos) += l.executed
        if (l.pos == 0) boundsSums(l.wave)(l.node) = Some(l.boundsSum)
      case (_, h: HitsOut) => hitsOf(h.wave) += h
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

  /** What every stage task of a batch reads besides its records. */
  private final case class StageConsts(
      queries: Broadcast[Array[Array[Double]]],
      plan: PartitionPlan,
      nWaves: Int,
      k: Int,
      pruning: Boolean,
  )

  /** The task of stage (`wave`, `pos`), keyed for the shuffle after it.
    * A named class rather than a lambda: Spark's closure cleaner scans the
    * bytecode of a lambda's enclosing class (this large object) on every
    * RDD operation, about 1 ms each on the driver before the job is
    * submitted, and it skips named classes. */
  private final class StageFn(c: StageConsts, wave: Int, pos: Int)
      extends ((Iterator[(Int, StageOut)], Iterator[Array[WaveBatch]], Iterator[BlockData]) =>
        Iterator[(Int, StageOut)]) with Serializable {
    def apply(
        prev: Iterator[(Int, StageOut)],
        mine: Iterator[Array[WaveBatch]],
        block: Iterator[BlockData],
    ): Iterator[(Int, StageOut)] = {
      val node = TaskContext.getPartitionId()
      stageTask(prev.map(_._2), mine.flatMap(_.iterator), block.next(), node, c, wave, pos)
        .flatMap(route(node, _))
    }

    /** Where an output of `node` goes in the shuffle after this stage:
      * survivors to the node of their next block, this wave's hits (emitted
      * at its final position) to every node if another wave follows, and
      * everything else stays on `node` (the last stage's output is
      * collected as it is keyed). */
    private def route(node: Int, o: StageOut): Iterator[(Int, StageOut)] = o match {
      case b: CandBatch => Iterator.single((c.plan.nodeOf(b.shard, c.plan.sliceAt(b.firstSlice, b.pos)), b))
      case h: HitsOut if h.wave == wave && wave < c.nWaves - 1 => Iterator.tabulate(c.plan.nNodes)(n => (n, h))
      case _ => Iterator.single((node, o))
    }
  }

  /** One node's task at position `pos` of wave `wave`, on the node's one
    * `block`. A first position receives the wave's `firsts` (a final
    * position emits hits, never survivors), later positions the survivors
    * among `recs`. At a first position the node folds the previous wave's
    * hits from every node into its heap replica ([[foldHits]]), derives the
    * wave's bounds from it and passes the replica on to its next wave; of
    * those hits it forwards only its own, so each reaches the `collect`
    * once. Ledgers, hits and the replica of earlier steps ride along.
    */
  private def stageTask(
      recs: Iterator[StageOut],
      firsts: Iterator[WaveBatch],
      block: BlockData,
      node: Int,
      c: StageConsts,
      wave: Int,
      pos: Int,
  ): Iterator[StageOut] = {
    def requireBlock(qIdx: Int, shard: Int, at: Int, first: Int): Unit = {
      val slice = c.plan.sliceAt(first, at)
      if (at != pos || shard != block.shard || slice != block.slice) throw new IllegalStateException(
        s"query $qIdx's batch for position $at, block ($shard, $slice) reached node $node at position " +
          s"$pos, which holds block (${block.shard}, ${block.slice})")
    }
    val cands = ArrayBuffer.empty[CandBatch]
    val fresh = ArrayBuffer.empty[HitsOut]
    val forwarded = ArrayBuffer.empty[StageOut]
    var replica: ReplicaOut = null
    recs.foreach {
      case b: CandBatch => requireBlock(b.qIdx, b.shard, b.pos, b.firstSlice); cands += b
      case r: ReplicaOut if pos == 0 => replica = r
      case h: HitsOut if pos == 0 && h.wave == wave - 1 =>
        fresh += h
        if (h.node == node) forwarded += h
      case o => forwarded += o
    }
    val queries = c.queries.value
    val ledger = NodeLedger()
    val (batches, boundsSum, executed) =
      if (pos == 0) {
        if (replica == null) throw new IllegalStateException(s"no heap replica reached node $node in wave $wave")
        val heaps = Array.fill(queries.length)(new BoundedMaxHeap(c.k))
        replica.heaps.offerInto(heaps)
        val bounds = foldHits(heaps, fresh, c.pruning)
        if (wave < c.nWaves - 1) forwarded += ReplicaOut(PackedHits.of(heaps))
        val wbs = firsts.toArray
        wbs.foreach { b =>
          requireBlock(b.qIdx, b.shard, 0, b.firstSlice)
          Dataflow.countArrival(ledger, 0, b.nRows, block.sliceLen, b.clusters.length)
        }
        val (scanned, ops) = scanFirstSlice(wbs, block, queries, bounds)
        (scanned, boundsChecksum(bounds), ops)
      } else {
        cands.foreach(b => Dataflow.countArrival(ledger, pos, b.rows.length, block.sliceLen, 0))
        (cands.toArray, 0L, 0L)
      }
    processStage(batches, block, c, wave, pos, node, ledger, executed, boundsSum) ++ forwarded
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
    * batch's `bound`, and either forward the surviving state or emit final
    * top-k hits, one [[HitsOut]] per node. Each batch's `rows` and
    * `partial` are consumed: survivors are compacted in place before they
    * are copied out.
    */
  private def processStage(
      batches: Array[CandBatch],
      block: BlockData,
      c: StageConsts,
      wave: Int,
      pos: Int,
      node: Int,
      ledger: NodeLedger,
      firstOps: Long,
      boundsSum: Long,
  ): Iterator[StageOut] = {
    val layout = block.layout
    val queries = c.queries.value
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
      val last = b.pos == c.plan.bDim - 1
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
            if (heap == null) heap = new BoundedMaxHeap(c.k)
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

    if (completed.nonEmpty) outs += HitsOut(wave, node, completed.result())
    outs += LedgerOut(wave, pos, node, ledger, entering, prunedCount, executed, boundsSum)
    outs.iterator
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
