package repro.core

import org.scalatest.funsuite.AnyFunSuite

class PartitionPlanSpec extends AnyFunSuite {

  private def plan(bVec: Int, bDim: Int, dim: Int = 32, nlist: Int = 12): PartitionPlan =
    PartitionPlan.build(bVec, bDim, dim, Array.fill(nlist)(1.0), balanced = true)

  test("dimSlices covers [0, dim) with near-equal contiguous ranges") {
    val b = PartitionPlan.dimSlices(130, 4)
    assert(b.head == 0 && b.last == 130)
    val lens = b.sliding(2).map(w => w(1) - w(0)).toSeq
    assert(lens.sum == 130)
    assert(lens.max - lens.min <= 1)
  }

  test("dimSlices handles bDim = 1 and bDim = dim") {
    assert(PartitionPlan.dimSlices(8, 1).toSeq == Seq(0, 8))
    assert(PartitionPlan.dimSlices(4, 4).toSeq == Seq(0, 1, 2, 3, 4))
  }

  test("dimSlices rejects bDim > dim") {
    intercept[IllegalArgumentException](PartitionPlan.dimSlices(4, 8))
  }

  test("slice accessors are consistent") {
    val p = plan(2, 4, dim = 33)
    (0 until 4).foreach { s =>
      assert(p.sliceLen(s) == p.sliceHi(s) - p.sliceLo(s))
    }
    assert((0 until 4).map(p.sliceLen).sum == 33)
  }

  test("weighted assignment balances shard loads") {
    val weights = Array(10.0, 9.0, 8.0, 2.0, 2.0, 2.0, 2.0, 1.0)
    val shards = PartitionPlan.assignShardsWeighted(weights, 2)
    val loads = Array(0.0, 0.0)
    weights.indices.foreach(c => loads(shards(c)) += weights(c))
    assert(math.abs(loads(0) - loads(1)) <= 3.0, loads.mkString(","))
  }

  test("weighted assignment dominates naive on skewed weights") {
    val weights = Array.tabulate(16)(c => if (c < 4) 100.0 else 1.0)
    def spread(assign: Array[Int], bVec: Int): Double = {
      val loads = new Array[Double](bVec)
      weights.indices.foreach(c => loads(assign(c)) += weights(c))
      loads.max - loads.min
    }
    val balanced = spread(PartitionPlan.assignShardsWeighted(weights, 4), 4)
    // naive places clusters 0..3 (all heavy) on shards 0..3 — here that is
    // accidentally balanced, so shift the hot ids to collide mod 4
    val weights2 = Array.tabulate(16)(c => if (c % 4 == 0) 100.0 else 1.0)
    val naiveLoads = new Array[Double](4)
    PartitionPlan.assignShardsNaive(16, 4).zipWithIndex.foreach {
      case (s, c) => naiveLoads(s) += weights2(c)
    }
    val balanced2 = {
      val loads = new Array[Double](4)
      PartitionPlan.assignShardsWeighted(weights2, 4).zipWithIndex.foreach {
        case (s, c) => loads(s) += weights2(c)
      }
      loads.max - loads.min
    }
    assert(balanced2 < naiveLoads.max - naiveLoads.min)
    assert(balanced >= 0)
  }

  test("naive assignment is cluster mod shards") {
    assert(PartitionPlan.assignShardsNaive(6, 3).toSeq == Seq(0, 1, 2, 0, 1, 2))
  }

  test("every cluster is mapped to exactly one shard") {
    val p = plan(3, 2, nlist = 10)
    assert(p.shardOfCluster.length == 10)
    val all = (0 until 3).flatMap(p.clustersOfShard)
    assert(all.sorted == (0 until 10))
  }

  test("block ids form the bVec x bDim grid with one block per node") {
    // nodeOf is a bijection from the grid onto 0 until nNodes
    for ((bVec, bDim) <- Seq((1, 1), (2, 3), (3, 2), (6, 1), (1, 6))) {
      val p = plan(bVec, bDim)
      val nodes = for (s <- 0 until bVec; d <- 0 until bDim) yield p.nodeOf(s, d)
      assert(nodes.sorted == (0 until p.nNodes), s"${bVec}x$bDim")
    }
  }

  test("plan validation enforces the grid invariant") {
    intercept[IllegalArgumentException] {
      PartitionPlan(nNodes = 4, bVec = 3, bDim = 2, dim = 8,
        Array.fill(4)(0), PartitionPlan.dimSlices(8, 2))
    }
  }

  test("plan validation enforces slice coverage") {
    intercept[IllegalArgumentException] {
      PartitionPlan(nNodes = 2, bVec = 1, bDim = 2, dim = 8,
        Array.fill(4)(0), Array(0, 3, 7))
    }
  }

  test("plan validation rejects out-of-range shard assignments") {
    intercept[IllegalArgumentException] {
      PartitionPlan(nNodes = 2, bVec = 2, bDim = 1, dim = 8,
        Array(0, 1, 2), PartitionPlan.dimSlices(8, 1))
    }
  }

  test("candidateGrids enumerates divisor pairs capped by dim") {
    assert(PartitionPlan.candidateGrids(4, 128).toSet == Set((1, 4), (2, 2), (4, 1)))
    assert(PartitionPlan.candidateGrids(6, 128).toSet ==
      Set((1, 6), (2, 3), (3, 2), (6, 1)))
    // dim smaller than some bDim values filters them out
    assert(PartitionPlan.candidateGrids(8, 2).toSet == Set((4, 2), (8, 1)))
  }

  test("pure vector and pure dimension plans are expressible") {
    val v = plan(4, 1)
    assert(v.bDim == 1 && v.nNodes == 4)
    val d = plan(1, 4)
    assert(d.bVec == 1 && d.nNodes == 4)
    assert(d.clustersOfShard(0).length == 12)
  }
}
