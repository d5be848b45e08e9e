package repro.core

import scala.collection.mutable.ArrayBuffer

import repro.sim.{NodeLedger, Sim, SimReport, StageRecord}

/** One (query, vector shard) batch of a wave: the query's probed clusters
  * on that shard (ascending), their candidate rows, and the slice it visits
  * first; it visits the others in rotation from there
  * ([[PartitionPlan.sliceAt]]). The batch's broadcast carries it, and the
  * node holding its first block takes it. */
final case class WaveBatch(qIdx: Int, shard: Int, clusters: Array[Int], nRows: Int, firstSlice: Int)

/** Everything one search batch counts: one ledger per (wave, position)
  * stage and node, and the client's routing, prewarm and merge work. */
final case class BatchLedgers(stages: Seq[StageRecord], clientDimOps: Long, clientBytes: Long) {

  /** The simulated time of these ledgers on the deployed system: overlapped
    * when `cfg.pipeline`, blocking stages otherwise. The engine prices what
    * it counted with this, and the planner what it predicts. */
  def price(cfg: HarmonyConfig, nNodes: Int, nQueries: Int): SimReport =
    Sim.evaluate(stages, cfg.costParams, overlapComm = cfg.pipeline, nNodes, nQueries,
      clientDimOps, clientBytes)
}

/** The search dataflow as both the engine runs it and the planner predicts
  * it: the wave layout of a batch and the rules every ledger is counted by.
  * Both call these, so a prediction from a batch's own probe lists with
  * pruning off equals the engine's count exactly.
  */
object Dataflow {

  /** Bytes of one candidate row's state between positions (row index and
    * partial distance), and of one returned hit. */
  val StateRowBytes: Long = 12L
  val HitBytes: Long = 12L

  /** Rows of each probed cluster the client prewarms a query's heap with. */
  val PrewarmPerCluster: Int = 4

  /** The waves of a batch whose queries probe `probes` (each list ordered
    * by centroid promise), in the order their batches are placed.
    *
    * Vector-level pipeline batching (Fig 5a): each probe list is split into
    * `maxWaves` waves (one with `pipeline` off) by [[waveStart]], so
    * completed distances of earlier waves tighten τ for later ones; within a
    * wave a query's clusters group into one batch per shard. Empty waves
    * are dropped.
    *
    * Start slices (§4.3 load balancing): slice 0 without balanced load;
    * otherwise each batch, largest first (ties by query, then shard),
    * starts at the slice whose node has the least first-stage rows of its
    * wave so far.
    */
  def waves(probes: Array[Array[Int]], listSizes: Array[Int], plan: PartitionPlan,
            cfg: HarmonyConfig): IndexedSeq[IndexedSeq[WaveBatch]] = {
    import plan.{bDim, nNodes}
    val effWaves = if (cfg.pipeline) cfg.maxWaves else 1
    val buckets = IndexedSeq.fill(effWaves)(ArrayBuffer.empty[WaveBatch])
    probes.indices.foreach { qi =>
      val n = probes(qi).length
      (0 until math.min(n, effWaves)).foreach { w =>
        val cs = probes(qi).slice(waveStart(n, w, effWaves), waveStart(n, w + 1, effWaves))
        cs.groupBy(plan.shardOfCluster(_)).foreach { case (shard, clusters) =>
          val sorted = clusters.sorted
          buckets(w) += WaveBatch(qi, shard, sorted, sorted.map(listSizes(_)).sum, 0)
        }
      }
    }
    buckets.filter(_.nonEmpty).map { wave =>
      val nodeRows = new Array[Long](nNodes)
      wave.sortBy(b => (-b.nRows, b.qIdx, b.shard)).map { b =>
        if (!cfg.balancedLoad || bDim == 1) b
        else {
          val off = (0 until bDim).minBy(o => nodeRows(plan.nodeOf(b.shard, o)))
          nodeRows(plan.nodeOf(b.shard, off)) += b.nRows
          b.copy(firstSlice = off)
        }
      }.toIndexedSeq
    }
  }

  /** Where wave `w <= min(n, nWaves)` of `nWaves` starts in a probe list of
    * `n` clusters (`w = nWaves` gives `n`): a doubling schedule. Wave
    * `w < nWaves` starts at `max(w, ⌊n·(2^w − 1)/(2^nWaves − 1)⌋)`, so with
    * `n >= nWaves` the waves take about 1, 2, 4, … parts of
    * `n/(2^nWaves − 1)` clusters (1/2/4/9 of 16 and 3/6/13/26 of 48 in 4
    * waves), and none is empty. With fewer clusters than waves the floor
    * term never exceeds `w`, so each of the first `n` waves takes one.
    *
    * The list is ordered by centroid promise, and a wave prunes only against
    * the τ of the waves before it. Wave 0 has the prewarm bound alone, so it
    * is as small as the list allows. Every later wave scans about as many
    * clusters as all earlier waves together (`2^w` parts against
    * `2^w − 1`), so it prunes against a τ built from about as many
    * completed, more promising clusters as it scans itself. Equal chunks
    * would scan a whole `1/nWaves` of the list against the prewarm bound.
    */
  def waveStart(n: Int, w: Int, nWaves: Int): Int =
    if (w >= nWaves) n
    else math.max(w, (BigInt(n) * ((BigInt(1) << w) - 1) / ((BigInt(1) << nWaves) - 1)).toInt)

  /** Client dim-ops of a batch: every query scans all centroids (one per
    * entry of `listSizes`), and with pruning its heap is prewarmed with the
    * first `min(listSizes(c), PrewarmPerCluster)` rows of each probed
    * cluster. */
  def clientDimOps(probes: Array[Array[Int]], listSizes: Array[Int], dim: Int,
                   cfg: HarmonyConfig): Long = {
    var ops = probes.length.toLong * listSizes.length * dim
    if (cfg.pruning) probes.foreach(_.foreach(c => ops += math.min(listSizes(c), PrewarmPerCluster).toLong * dim))
    ops
  }

  /** A batch of `rows` candidates arriving at position `pos` on a slice of
    * `sliceLen` dimensions: one message carrying the query chunk, plus the
    * cluster id list on the first hop or the rows' state on a later one;
    * every row is scanned over the whole slice. */
  def countArrival(l: NodeLedger, pos: Int, rows: Long, sliceLen: Int, nClusters: Int): Unit = {
    l.bytesIn += (if (pos == 0) nClusters * 4L else rows * StateRowBytes) + sliceLen * 4L
    l.msgsIn += 1
    l.dimOps += rows * sliceLen
  }

  /** The stage records of ledgers indexed (wave, position, node), in
    * execution order. */
  def stages(perNode: Array[Array[Array[NodeLedger]]]): Seq[StageRecord] =
    for (w <- perNode.indices; p <- perNode(w).indices) yield StageRecord(w, p, perNode(w)(p))
}
