package repro.core

import org.apache.spark.rdd.RDD
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.{Seconds, Span}

import repro.{SparkSpec, TestFixtures => F}

class BlockStoreSpec extends SparkSpec {

  private lazy val (idx, _) = F.index(spark, F.small)

  private def store(bVec: Int, bDim: Int): BlockStore = {
    val plan = PartitionPlan.build(bVec, bDim, idx.dim,
      idx.listSizes.map(_.toDouble), balanced = true)
    BlockStore.build(spark, idx, plan)
  }

  test("blocks RDD has one partition per node and correct placement") {
    for ((bVec, bDim) <- Seq((2, 2), (4, 1), (1, 4))) {
      val st = store(bVec, bDim)
      try {
        assert(st.blocks.getNumPartitions == 4)
        val placed = st.blocks.mapPartitionsWithIndex { (node, it) =>
          Iterator.single((node, it.map(b => (b.shard, b.slice, b.layout)).toList))
        }.collect()
        assert(placed.map(_._1).toSeq == (0 until 4))
        placed.foreach { case (node, held) =>
          // exactly one block: (node / bDim, node % bDim) with its shard's layout
          assert(held.length == 1, s"node $node holds ${held.length} blocks")
          val (shard, slice, layout) = held.head
          assert((shard, slice) == (node / bDim, node % bDim))
          val want = st.layouts(shard)
          assert(layout.shard == shard && layout.clusters.sameElements(want.clusters) &&
            layout.clusterRowStart.sameElements(want.clusterRowStart) && layout.rowIds.sameElements(want.rowIds))
        }
      } finally st.unpersist()
    }
  }

  test("placed blocks keep no shuffle and no driver copy in their lineage") {
    val st = store(2, 2)
    try {
      def lineage(rdd: RDD[_]): Seq[RDD[_]] = rdd +: rdd.dependencies.flatMap(d => lineage(d.rdd))
      assert(st.blocks.isCheckpointed)
      val kinds = lineage(st.blocks).map(_.getClass.getSimpleName)
      assert(!kinds.exists(k => k.contains("Shuffled") || k.contains("ParallelCollection")), kinds)
    } finally st.unpersist()
  }

  test("unpersist frees the stored blocks") {
    val st = store(2, 2)
    val sc = spark.sparkContext
    def stored: Boolean = sc.getRDDStorageInfo.exists(i => i.id == st.blocks.id && i.numCachedPartitions > 0)
    assert(stored)
    st.unpersist()
    assert(!sc.getPersistentRDDs.contains(st.blocks.id))
    eventually(timeout(Span(10, Seconds)))(assert(!stored))
  }

  test("shard layouts cover all clusters disjointly") {
    val st = store(4, 1)
    try {
      val clusters = st.layouts.flatMap(_.clusters)
      assert(clusters.sorted.toSeq == (0 until idx.nlist))
      assert(st.layouts.map(_.nRows.toLong).sum == idx.nTotal)
    } finally st.unpersist()
  }

  test("shard row ids are the concatenated cluster lists") {
    val st = store(2, 2)
    try {
      st.layouts.foreach { l =>
        l.clusters.zipWithIndex.foreach { case (c, i) =>
          val (lo, hi) = (l.rowStart(c), l.rowEnd(c))
          assert(hi - lo == idx.listSize(c))
          assert(l.rowIds.slice(lo, hi).toSeq == idx.listIds(c).toSeq)
          assert(lo == l.clusterRowStart(i))
        }
      }
    } finally st.unpersist()
  }

  test("row range lookup rejects clusters of other shards") {
    val st = store(4, 1)
    try {
      val l0 = st.layouts(0)
      val foreign = (0 until idx.nlist).find(c => st.plan.shardOfCluster(c) != 0).get
      Seq(foreign, -1, idx.nlist).foreach { c =>
        val e1 = intercept[IllegalStateException](l0.rowStart(c))
        val e2 = intercept[IllegalStateException](l0.rowEnd(c))
        assert(e1.getMessage == s"cluster $c not in shard 0" && e2.getMessage == e1.getMessage)
      }
    } finally st.unpersist()
  }

  test("block payloads hold the exact slice of each stored vector") {
    val st = store(2, 2)
    try {
      val blocks = st.blocks.collect()
      val plan = st.plan
      for (shard <- 0 until 2; slice <- 0 until 2) {
        val block = blocks(plan.nodeOf(shard, slice))
        val layout = st.layouts(shard)
        assert(block.nRows == layout.nRows)
        // spot-check first rows of first cluster
        val c = layout.clusters(0)
        val id = idx.listIds(c)(0).toInt
        val lo = plan.sliceLo(slice)
        (0 until plan.sliceLen(slice)).foreach { j =>
          assert(block.data(j) == F.small.data(id)(lo + j))
        }
      }
    } finally st.unpersist()
  }

  test("total payload across blocks equals the raw dataset payload") {
    val st = store(2, 2)
    try {
      val total = st.blocks.collect().map(_.payloadBytes).sum
      assert(total == F.small.dataBytes)
      assert(st.layouts.map(l => l.nRows.toLong * st.plan.dim * 4L).sum == F.small.dataBytes)
    } finally st.unpersist()
  }

  test("per-node storage: distributed plans use ~1/nNodes of single-node payload") {
    val st = store(2, 2)
    try {
      val perNode = st.perNodeStorageBytes
      assert(perNode.length == 4)
      val maxNode = perNode.max
      assert(maxNode < idx.sizeBytes / 2, s"node bytes $maxNode vs faiss ${idx.sizeBytes}")
      assert(maxNode >= F.small.dataBytes / 4, "node must hold at least its payload share")
    } finally st.unpersist()
  }

  test("dimension plans carry a small accumulator overhead, vector plans none") {
    val sv = store(4, 1)
    val sd = store(1, 4)
    try {
      val vMax = sv.perNodeStorageBytes.max
      val dMax = sd.perNodeStorageBytes.max
      assert(dMax > vMax, s"dim $dMax !> vec $vMax")
      // overhead stays small (paper: ~2%; generous bound here)
      assert(dMax.toDouble / vMax < 1.35, s"overhead ratio ${dMax.toDouble / vMax}")
    } finally { sv.unpersist(); sd.unpersist() }
  }

  test("pre-assign time is measured") {
    val st = store(2, 2)
    try assert(st.preAssignMs >= 0) finally st.unpersist()
  }

  test("build rejects a plan with mismatched cluster count") {
    val plan = PartitionPlan.build(2, 2, idx.dim, Array.fill(idx.nlist + 1)(1.0), balanced = true)
    intercept[IllegalArgumentException](BlockStore.build(spark, idx, plan))
  }
}
