package repro.ivf

import repro.{SparkSpec, TestFixtures => F}
import repro.linalg.{TestVecOps, TopK, VecOps}

class IVFIndexSpec extends SparkSpec {

  private lazy val (idx, times) = F.index(spark, F.small)
  private val ds = F.small

  test("index preserves every vector exactly once") {
    assert(idx.nTotal == ds.n)
    val allIds = idx.listIds.flatten.sorted
    assert(allIds.toSeq == ds.ids.sorted.toSeq)
  }

  test("index has the requested number of lists") {
    assert(idx.nlist == F.testNlist)
    assert(idx.centroids.forall(_.length == ds.dim))
  }

  test("list data matches original vectors") {
    for (c <- 0 until idx.nlist; r <- 0 until math.min(3, idx.listSize(c))) {
      val id = idx.listIds(c)(r).toInt
      val stored = java.util.Arrays.copyOfRange(idx.listData(c), r * ds.dim, (r + 1) * ds.dim)
      assert(stored.sameElements(ds.data(id)), s"cluster $c row $r id $id")
    }
  }

  test("every vector is stored in its nearest centroid's list") {
    for (c <- 0 until idx.nlist; r <- 0 until math.min(2, idx.listSize(c))) {
      val id = idx.listIds(c)(r).toInt
      assert(TestVecOps.nearest(ds.data(id), idx.centroids) == c)
    }
  }

  test("search with nprobe = nlist equals exact brute force") {
    ds.queries.take(6).foreach { q =>
      val (hits, _) = idx.search(q, 10, idx.nlist)
      val exact = TopK.bruteForce(q, ds.ids, ds.data, 10)
      assert(hits.map(_.id).toSeq == exact.map(_.id).toSeq)
      hits.zip(exact).foreach { case (h, e) => assert(math.abs(h.dist - e.dist) < 1e-9) }
    }
  }

  test("search results are sorted and within probed clusters") {
    val q = ds.queries.head
    val probes = VecOps.nearestN(q, idx.centroids, 4).toSet
    val (hits, _) = idx.search(q, 10, 4)
    assert(hits.map(_.dist).toSeq == hits.map(_.dist).sorted.toSeq)
    val probedIds = probes.flatMap(c => idx.listIds(c)).toSet
    assert(hits.forall(h => probedIds.contains(h.id)))
  }

  test("recall improves with nprobe") {
    val truths = ds.queries.map(q => TopK.bruteForce(q, ds.ids, ds.data, 10))
    def recall(np: Int): Double = {
      val rs = ds.queries.map(q => idx.search(q, 10, np)._1)
      rs.zip(truths).map { case (r, t) =>
        r.map(_.id).toSet.intersect(t.map(_.id).toSet).size / 10.0
      }.sum / rs.length
    }
    val r1 = recall(1); val r8 = recall(8); val rAll = recall(idx.nlist)
    assert(r8 >= r1)
    assert(rAll == 1.0)
  }

  test("high nprobe reaches high recall on clustered data") {
    val truths = ds.queries.map(q => TopK.bruteForce(q, ds.ids, ds.data, 10))
    val rs = ds.queries.map(q => idx.search(q, 10, 8)._1)
    val rec = rs.zip(truths).map { case (r, t) =>
      r.map(_.id).toSet.intersect(t.map(_.id).toSet).size / 10.0
    }.sum / rs.length
    assert(rec > 0.9, s"recall@10 with nprobe=8 was $rec")
  }

  test("search stats count scanned rows times dim plus centroid scan") {
    val q = ds.queries.head
    val probes = VecOps.nearestN(q, idx.centroids, 4)
    val expectedCands = probes.map(idx.listSize(_).toLong).sum
    val (_, dimOps) = idx.search(q, 10, 4)
    assert(dimOps == expectedCands * ds.dim + idx.nlist.toLong * ds.dim)
  }

  test("sizeBytes accounts payload, ids and centroids") {
    val expected = ds.n.toLong * ds.dim * 4 + ds.n.toLong * 8 + idx.nlist.toLong * ds.dim * 4
    assert(idx.sizeBytes == expected)
  }

  test("listSizes sums to the dataset size") {
    assert(idx.listSizes.map(_.toLong).sum == ds.n)
  }

  test("build reports train and add times") {
    assert(times.trainMs >= 0 && times.addMs >= 0)
    assert(times.preAssignMs == 0)
    assert(times.totalMs == times.trainMs + times.addMs)
  }

  test("build is deterministic in the seed") {
    val (idx2, _) = IVFIndex.build(spark, F.small, F.testNlist, seed = F.smallCfg.seed)
    assert(idx2.listIds.flatten.sorted.toSeq == idx.listIds.flatten.sorted.toSeq)
    (0 until idx.nlist).foreach(c => assert(idx2.listSize(c) == idx.listSize(c)))
  }

  test("build does not assume ids 0..n-1: shuffled, offset ids give the same index remapped") {
    assert(ds.ids.toSeq == (0L until ds.n), "reference dataset has ids 0..n-1")
    val perm = new scala.util.Random(5).shuffle((0 until ds.n).toVector)
    val newId = Array.tabulate(ds.n)(i => 1000L + 7L * perm(i))
    val (idx2, _) = IVFIndex.build(spark, ds.copy(ids = newId), F.testNlist, seed = F.smallCfg.seed)
    (0 until idx.nlist).foreach { c =>
      assert(idx2.listIds(c).toSeq == idx.listIds(c).map(id => newId(id.toInt)).toSeq, s"cluster $c")
      assert(idx2.listData(c).sameElements(idx.listData(c)), s"cluster $c")
    }
    ds.queries.take(6).foreach { q =>
      val want = idx.search(q, 10, 4)._1.map(h => (newId(h.id.toInt), h.dist)).toSeq
      assert(idx2.search(q, 10, 4)._1.map(h => (h.id, h.dist)).toSeq == want)
    }
  }

  test("alignment validation rejects malformed construction") {
    intercept[IllegalArgumentException] {
      new IVFIndex(4, Array(Array(0f, 0f, 0f, 0f)), Array.empty, Array.empty)
    }
  }
}
