package repro.linalg

import java.util.Random

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite

class TopKSpec extends AnyFunSuite {

  test("rejects non-positive k") {
    intercept[IllegalArgumentException](new BoundedMaxHeap(0))
  }

  test("threshold is +inf until the heap fills") {
    val h = new BoundedMaxHeap(3)
    h.offer(1, 1.0); h.offer(2, 2.0)
    assert(h.threshold == Double.PositiveInfinity)
    h.offer(3, 3.0)
    assert(h.threshold == 3.0)
  }

  test("threshold is the worst kept distance once full") {
    val h = new BoundedMaxHeap(2)
    Seq(5.0, 1.0, 3.0, 2.0).zipWithIndex.foreach { case (d, i) => h.offer(i, d) }
    assert(h.threshold == 2.0)
  }

  test("keeps the k smallest of many offers") {
    val h = new BoundedMaxHeap(4)
    val r = new Random(1)
    val items = (0 until 200).map(i => (i.toLong, r.nextDouble() * 100))
    items.foreach { case (id, d) => h.offer(id, d) }
    val expect = items.sortBy(t => (t._2, t._1)).take(4).map(_._1)
    assert(h.toSortedArray.map(_.id).toSeq == expect)
  }

  test("toSortedArray is ascending by (dist, id)") {
    val h = new BoundedMaxHeap(5)
    Seq((1L, 2.0), (2L, 1.0), (3L, 2.0), (4L, 0.5)).foreach { case (id, d) => h.offer(id, d) }
    val arr = h.toSortedArray
    assert(arr.map(_.dist).toSeq == arr.map(_.dist).sorted.toSeq)
    assert(arr.take(2).map(_.id).toSeq == Seq(4L, 2L))
  }

  test("offer returns false for a worse duplicate id") {
    val h = new BoundedMaxHeap(3)
    assert(h.offer(7, 1.0))
    assert(!h.offer(7, 2.0))
    assert(h.size == 1)
  }

  test("offer improves an existing id in place") {
    val h = new BoundedMaxHeap(3)
    h.offer(7, 5.0)
    assert(h.offer(7, 1.0))
    assert(h.size == 1)
    assert(h.toSortedArray.head.dist == 1.0)
  }

  test("duplicate ids never occupy two slots (prewarm dedupe invariant)") {
    val h = new BoundedMaxHeap(5)
    for (i <- 0 until 50) h.offer(i % 7, (i % 7).toDouble + i * 0.001)
    val ids = h.toSortedArray.map(_.id)
    assert(ids.distinct.length == ids.length)
  }

  test("eviction removes the worst element") {
    val h = new BoundedMaxHeap(2)
    h.offer(1, 10.0); h.offer(2, 20.0); h.offer(3, 5.0)
    assert(h.toSortedArray.map(_.id).toSet == Set(1L, 3L))
  }

  test("an offer above the threshold is rejected") {
    val h = new BoundedMaxHeap(2)
    h.offer(1, 1.0); h.offer(2, 2.0)
    assert(!h.offer(3, 3.0))
    assert(h.toSortedArray.map(_.id).toSet == Set(1L, 2L))
  }

  test("contains tracks membership through eviction") {
    val h = new BoundedMaxHeap(1)
    h.offer(1, 2.0)
    assert(h.contains(1))
    h.offer(2, 1.0)
    assert(!h.contains(1) && h.contains(2))
  }

  test("threshold only tightens as better candidates arrive") {
    val h = new BoundedMaxHeap(3)
    val r = new Random(5)
    var last = Double.PositiveInfinity
    for (i <- 0 until 100) {
      h.offer(i, r.nextDouble() * 50)
      assert(h.threshold <= last)
      last = h.threshold
    }
  }

  // few ids and few distances, so repeated ids and equal distances are common
  private val hitsGen: Gen[List[(Long, Double)]] =
    Gen.listOf(Gen.zip(Gen.choose(0L, 12L), Gen.choose(0, 6).map(_ * 0.5)))

  private def offered(h: BoundedMaxHeap, hits: Seq[(Long, Double)]): BoundedMaxHeap = {
    hits.foreach { case (id, d) => h.offer(id, d) }
    h
  }

  private def check(p: Prop): Unit = {
    val res = Check.check(Check.Parameters.default.withMinSuccessfulTests(500), p)
    assert(res.passed, Pretty.pretty(res))
  }

  test("offering one multiset of hits in any order leaves the same contents and threshold") {
    check(Prop.forAll(Gen.choose(1, 6), hitsGen, Gen.long) { (k, hits, seed) =>
      val a = offered(new BoundedMaxHeap(k), hits)
      val b = offered(new BoundedMaxHeap(k), new scala.util.Random(seed).shuffle(hits))
      a.toSortedArray.toSeq == b.toSortedArray.toSeq && a.threshold == b.threshold
    })
  }

  test("a heap rebuilt from its sorted contents takes further offers like the original") {
    check(Prop.forAll(Gen.choose(1, 6), hitsGen, hitsGen) { (k, first, next) =>
      val a = offered(new BoundedMaxHeap(k), first)
      val b = offered(new BoundedMaxHeap(k), a.toSortedArray.map(h => (h.id, h.dist)).toSeq)
      offered(a, next)
      offered(b, next)
      a.toSortedArray.toSeq == b.toSortedArray.toSeq && a.threshold == b.threshold
    })
  }

  test("bruteForce returns exact nearest neighbours") {
    val data = Array.tabulate(20)(i => Array(i.toFloat))
    val ids = Array.tabulate(20)(_.toLong)
    val hits = TopK.bruteForce(Array(7.2f), ids, data, 3)
    assert(hits.map(_.id).toSeq == Seq(7L, 8L, 6L))
  }

  test("bruteForce with k larger than data returns all, sorted") {
    val data = Array(Array(1f), Array(3f), Array(2f))
    val hits = TopK.bruteForce(Array(0f), Array(10L, 11L, 12L), data, 10)
    assert(hits.map(_.id).toSeq == Seq(10L, 12L, 11L))
  }

  test("bruteForce validates array alignment") {
    intercept[IllegalArgumentException](
      TopK.bruteForce(Array(0f), Array(1L), Array.empty[Array[Float]], 1))
  }
}
