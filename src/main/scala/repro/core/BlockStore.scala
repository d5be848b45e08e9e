package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession

import repro.ivf.IVFIndex

/** Row layout of one vector shard: the clusters it owns, concatenated in
  * order. `clusterRowStart(i)` is the first row of `clusters(i)`;
  * `rowIds(r)` is the vector id of shard row `r`. All dimension slices of a
  * shard share this layout, which is what lets a partial-distance
  * accumulator indexed by shard row travel between machines.
  */
final case class ShardLayout(
    shard: Int,
    clusters: Array[Int],
    clusterRowStart: Array[Int],
    rowIds: Array[Long],
) extends Serializable {
  require(clusterRowStart.length == clusters.length + 1)
  def nRows: Int = rowIds.length

  /** cluster id → its index in `clusters`, or -1: built once per layout */
  private val slotOfCluster: Array[Int] = {
    val slots = Array.fill(if (clusters.isEmpty) 0 else clusters.max + 1)(-1)
    clusters.indices.foreach(i => slots(clusters(i)) = i)
    slots
  }

  private def slot(c: Int): Int = {
    val i = if (c >= 0 && c < slotOfCluster.length) slotOfCluster(c) else -1
    if (i < 0) throw new IllegalStateException(s"cluster $c not in shard $shard")
    i
  }

  /** First shard row of cluster `c`; throws if this shard does not own `c`. */
  def rowStart(c: Int): Int = clusterRowStart(slot(c))

  /** One past the last shard row of cluster `c`; throws like [[rowStart]]. */
  def rowEnd(c: Int): Int = clusterRowStart(slot(c) + 1)
}

/** The payload of one grid block (shard × dimension slice): `nRows × sliceLen`
  * floats, row-major, rows ordered per `layout`, its shard's row layout.
  */
final case class BlockData(
    layout: ShardLayout,
    slice: Int,
    sliceLo: Int,
    sliceLen: Int,
    data: Array[Float],
) extends Serializable {
  def shard: Int = layout.shard
  def nRows: Int = if (sliceLen == 0) 0 else data.length / sliceLen
  def payloadBytes: Long = data.length.toLong * 4L
}

/** Distributed base-vector store for a partition plan: an `RDD[BlockData]`
  * whose partition `n` holds exactly node `n`'s grid block (shard
  * `n / bDim`, slice `n % bDim`), so each simulated node materializes
  * exactly its block and its shard's row layout. `layouts` keeps the
  * driver's copy for storage accounting. Client-side routing and prewarm
  * read the IVF index itself.
  */
final class BlockStore(
    val plan: PartitionPlan,
    val layouts: Array[ShardLayout],
    val blocks: RDD[BlockData],
    val preAssignMs: Long,
) extends Serializable {

  /** Storage bytes per node: block payloads + the slice-spread id share +
    * (for dimension-split plans) the per-row partial-accumulator buffers the
    * pre-assign stage allocates — the small overhead Table 4 observes for
    * dimension-based methods.
    */
  def perNodeStorageBytes: Array[Long] = {
    val bytes = new Array[Long](plan.nNodes)
    for (shard <- 0 until plan.bVec; slice <- 0 until plan.bDim) {
      val node = plan.nodeOf(shard, slice)
      val rows = layouts(shard).nRows.toLong
      val payload = rows * plan.sliceLen(slice) * 4L
      val idShare = rows * 8L / plan.bDim
      val partialBuf = if (plan.bDim > 1) rows * 8L else 0L
      val offsets = layouts(shard).clusters.length.toLong * 8L
      bytes(node) += payload + idShare + partialBuf + offsets
    }
    bytes
  }

  def maxNodeStorageBytes: Long = perNodeStorageBytes.max

  def unpersist(): Unit = blocks.unpersist(blocking = false)
}

object BlockStore {

  /** Lay the IVF index out on the simulated cluster per `plan` (the paper's
    * Pre-assign build stage, timed).
    */
  def build(spark: SparkSession, index: IVFIndex, plan: PartitionPlan): BlockStore = {
    require(plan.nlist == index.nlist, s"plan has ${plan.nlist} clusters, index ${index.nlist}")
    val t0 = System.nanoTime()
    val dim = index.dim

    val layouts = Array.tabulate(plan.bVec) { shard =>
      val clusters = plan.clustersOfShard(shard)
      val starts = new Array[Int](clusters.length + 1)
      var acc = 0
      clusters.zipWithIndex.foreach { case (c, i) => starts(i) = acc; acc += index.listSize(c) }
      starts(clusters.length) = acc
      val rowIds = new Array[Long](acc)
      clusters.zipWithIndex.foreach { case (c, i) =>
        System.arraycopy(index.listIds(c), 0, rowIds, starts(i), index.listSize(c))
      }
      ShardLayout(shard, clusters, starts, rowIds)
    }

    // node n holds block (shard n / bDim, slice n % bDim), inverting plan.nodeOf
    val blockSeq = IndexedSeq.tabulate(plan.nNodes) { n =>
      val layout = layouts(n / plan.bDim)
      val slice = n % plan.bDim
      val lo = plan.sliceLo(slice)
      val len = plan.sliceLen(slice)
      val data = new Array[Float](layout.nRows * len)
      var rowBase = 0
      layout.clusters.foreach { c =>
        val rows = index.listSize(c)
        val src = index.listData(c)
        var r = 0
        while (r < rows) {
          System.arraycopy(src, r * dim + lo, data, (rowBase + r) * len, len)
          r += 1
        }
        rowBase += rows
      }
      BlockData(layout, slice, lo, len, data)
    }

    // one slice per node places every block on its node without a shuffle;
    // the local checkpoint cuts the lineage of the mapped RDD, so the
    // driver's copy, held by the parallelized collection, is freed once the
    // blocks are stored
    val blocks = spark.sparkContext.parallelize(blockSeq, plan.nNodes).map(identity).localCheckpoint()
    blocks.count() // materialize: placement is part of pre-assign time

    val preAssignMs = (System.nanoTime() - t0) / 1000000L
    new BlockStore(plan, layouts, blocks, preAssignMs)
  }
}
