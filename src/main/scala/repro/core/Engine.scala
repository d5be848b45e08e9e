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
final case class LedgerOut(pos: Int, node: Int, ledger: NodeLedger, entering: Long, pruned: Long)
  extends StageOut

/** Result of one search batch. */
final case class EngineResult(
    hits: Array[Array[Hit]],
    report: SimReport,
    /** candidates alive at the start of pipeline position p (summed over waves) */
    pruneEntering: Array[Long],
    /** candidates pruned while processing position p */
    prunePruned: Array[Long],
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

    // ---- Stage 0 (client): centroid routing + prewarm (Alg 1, PrewarmHeap)
    val probes: Array[Array[Int]] =
      queries.map(q => VecOps.nearestN(q, index.centroids, cfg.nprobe))
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
            heaps(qi).offer(ids(j), VecOps.l2(queries(qi), vecs(j)))
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
    val pruning = cfg.pruning
    val k = cfg.k
    val bcLayouts = store.bcLayouts

    val bcQueries = sc.broadcast(queries)
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
      // position reads the same τ and the whole wave is one Spark job
      val bcTau = sc.broadcast(heaps.map(_.threshold))
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
            processStage(cands, blocks, bcQueries, bcTau, bcLayouts, stagePos, bDim, k, pruning) ++
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
      } finally bcTau.destroy()

      val perNode = Array.fill(bDim, nNodes)(NodeLedger())
      meta.foreach {
        case LedgerOut(p, node, ledger, entering, pruned) =>
          perNode(p)(node).add(ledger)
          enteringByPos(p) += entering
          prunedByPos(p) += pruned
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

    EngineResult(heaps.map(_.toSortedArray), report, enteringByPos, prunedByPos, peaks)
  }

  /** One pipeline stage on one simulated node (Alg 1, DimensionPipeline
    * body): materialize rows on first touch, accumulate the local slice's
    * partial distances, prune rows whose partial already exceeds τ², and
    * either forward the surviving state or emit final top-k hits.
    */
  private def processStage(
      cands: Iterator[(Int, CandBatch)],
      blocks: Iterator[(Int, BlockData)],
      bcQueries: Broadcast[Array[Array[Float]]],
      bcTau: Broadcast[Array[Double]],
      bcLayouts: Broadcast[Array[ShardLayout]],
      pos: Int,
      bDim: Int,
      k: Int,
      pruning: Boolean,
  ): Iterator[StageOut] = {
    val node = TaskContext.getPartitionId()
    val blockMap = blocks.toMap
    val ledger = NodeLedger()
    var entering = 0L
    var prunedCount = 0L
    val outs = ArrayBuffer.empty[StageOut]

    cands.foreach { case (bid, b0) =>
      val block = blockMap.getOrElse(bid,
        throw new IllegalStateException(s"block $bid not resident on node $node"))
      val layout = bcLayouts.value(b0.shard)
      val q = bcQueries.value(b0.qIdx)
      val tau = {
        val t = bcTau.value(b0.qIdx)
        if (t == Double.PositiveInfinity) t else t * (1.0 + 1e-9) + 1e-12
      }

      // materialize candidate rows lazily on the first node touched
      val b =
        if (b0.pos == 0) {
          var total = 0
          b0.clusters.foreach(c => total += {
            val r = layout.rangeOfCluster(c)
              .getOrElse(throw new IllegalStateException(s"cluster $c not in shard ${b0.shard}"))
            r._2 - r._1
          })
          val rows = new Array[Int](total)
          var w = 0
          b0.clusters.foreach { c =>
            val (lo, hi) = layout.rangeOfCluster(c).get
            var r = lo
            while (r < hi) { rows(w) = r; w += 1; r += 1 }
          }
          b0.copy(rows = rows, partial = new Array[Double](total))
        } else b0

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
      val keptRows = new Array[Int](nRows)
      val keptParts = new Array[Double](nRows)
      var kept = 0
      var i = 0
      while (i < nRows) {
        val r = rows(i)
        val d = parts(i) + VecOps.l2PartialAt(q, sliceLo, block.data, r * sliceLen, sliceLen)
        if (pruning && d > tau) {
          prunedCount += 1
        } else {
          keptRows(kept) = r
          keptParts(kept) = d
          kept += 1
        }
        i += 1
      }
      ledger.dimOps += nRows.toLong * sliceLen

      if (b.pos == bDim - 1) {
        // final slice: full distances — emit this batch's local top-k
        if (kept > 0) {
          val heap = new BoundedMaxHeap(k)
          var j = 0
          while (j < kept) {
            heap.offer(layout.rowIds(keptRows(j)), keptParts(j))
            j += 1
          }
          val hits = heap.toSortedArray
          ledger.bytesOut += hits.length.toLong * 12L
          ledger.msgsOut += 1
          outs += CompletedOut(b.qIdx, hits)
        }
      } else if (kept > 0) {
        val survivor = b.copy(
          pos = b.pos + 1,
          rows = java.util.Arrays.copyOf(keptRows, kept),
          partial = java.util.Arrays.copyOf(keptParts, kept))
        ledger.bytesOut += kept.toLong * 12L
        ledger.msgsOut += 1
        outs += SurvivorOut(survivor)
      }
    }

    outs += LedgerOut(pos, node, ledger, entering, prunedCount)
    outs.iterator
  }
}
