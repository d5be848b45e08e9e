package repro.linalg

import java.util.Random

import org.scalatest.funsuite.AnyFunSuite

class VecOpsSpec extends AnyFunSuite {

  private def randVec(dim: Int, seed: Long): Array[Float] = {
    val r = new Random(seed)
    Array.fill(dim)(r.nextGaussian().toFloat)
  }

  test("l2 of identical vectors is zero") {
    val v = randVec(16, 1)
    assert(VecOps.l2(v, v) == 0.0)
  }

  test("l2 of unit-apart vectors is 1") {
    val a = Array(0f, 0f, 0f)
    val b = Array(1f, 0f, 0f)
    assert(VecOps.l2(a, b) == 1.0)
  }

  test("l2 is symmetric") {
    val a = randVec(32, 2); val b = randVec(32, 3)
    assert(VecOps.l2(a, b) == VecOps.l2(b, a))
  }

  test("l2 is non-negative on random pairs") {
    for (s <- 0 until 20) {
      assert(VecOps.l2(randVec(24, s), randVec(24, s + 100)) >= 0.0)
    }
  }

  test("l2 rejects mismatched dimensions") {
    intercept[IllegalArgumentException](VecOps.l2(randVec(4, 1), randVec(5, 2)))
  }

  test("slice partial distances sum exactly to the full distance (monotonicity basis)") {
    // summed slice by slice, a distance may differ from the one-pass sum in
    // its last bits (Double addition is not associative); the engine's
    // pruning slack absorbs that, so the split sums only agree within 1e-9
    for (s <- 0 until 25) {
      val dim = 48
      val a = randVec(dim, s); val b = randVec(dim, s + 500)
      val full = VecOps.l2(a, b)
      val r = new Random(s)
      val nSplits = 1 + r.nextInt(6)
      val cuts = (Seq(0, dim) ++ Seq.fill(nSplits)(r.nextInt(dim + 1))).distinct.sorted
      val sum = cuts.sliding(2).map(w => VecOps.l2PartialAt(a, w(0), b, w(0), w(1) - w(0))).sum
      assert(math.abs(sum - full) < 1e-9, s"split=$cuts")
    }
  }

  test("partial sums are monotonically non-decreasing as slices accumulate") {
    for (s <- 0 until 10) {
      val dim = 32
      val a = randVec(dim, s); val b = randVec(dim, s + 77)
      var acc = 0.0
      for (lo <- 0 until dim by 8) {
        val next = acc + VecOps.l2PartialAt(a, lo, b, lo, 8)
        assert(next >= acc)
        acc = next
      }
      assert(math.abs(acc - VecOps.l2(a, b)) < 1e-9)
    }
  }

  test("l2PartialAt on a compact stored slice matches full-vector offset addressing") {
    val a = randVec(40, 11); val b = randVec(40, 12)
    // simulate a stored slice: copy dims [8,24) of b into a compact array
    val sliceLen = 16
    val stored = new Array[Float](sliceLen)
    System.arraycopy(b, 8, stored, 0, sliceLen)
    assert(VecOps.l2PartialAt(a, 8, stored, 0, sliceLen) == VecOps.l2PartialAt(a, 8, b, 8, sliceLen))
  }

  private def bits(d: Double): Long = java.lang.Double.doubleToRawLongBits(d)

  test("the widened kernel equals l2PartialAt bit for bit") {
    val r = new Random(31)
    for (trial <- 0 until 400) {
      val len = r.nextInt(301)
      val aOff = r.nextInt(20); val bOff = r.nextInt(20)
      val a = randVec(aOff + len + r.nextInt(5), r.nextLong())
      val b = randVec(bOff + len + r.nextInt(5), r.nextLong())
      assert(bits(VecOps.l2PartialAt(VecOps.widen(a), aOff, b, bOff, len)) ==
        bits(VecOps.l2PartialAt(a, aOff, b, bOff, len)), s"trial $trial: len=$len")
    }
  }

  test("the 4-query row kernel equals l2PartialAt bit for bit") {
    val r = new Random(32)
    for (trial <- 0 until 200) {
      val len = r.nextInt(301)
      val qOff = r.nextInt(20)
      val nRows = 1 + r.nextInt(6)
      val rowLo = r.nextInt(nRows); val rowHi = rowLo + r.nextInt(nRows - rowLo + 1)
      val qs = Array.fill(4)(randVec(qOff + len + r.nextInt(5), r.nextLong()))
      val block = randVec(nRows * len, r.nextLong())
      val offs = Array.fill(4)(r.nextInt(10))
      val outs = Array.tabulate(4)(j => Array.fill(offs(j) + nRows + 3)(-1.0))
      val executed = VecOps.l2PartialRows4(qs.map(VecOps.widen), qOff, block, len, rowLo, rowHi,
        Array.fill(4)(Double.PositiveInfinity), outs, offs)
      assert(executed == 4L * len * (rowHi - rowLo), s"trial $trial: unbounded rows run to the end")
      for (j <- 0 until 4; i <- outs(j).indices) {
        val row = rowLo + i - offs(j)
        if (row >= rowLo && row < rowHi) {
          assert(bits(outs(j)(i)) == bits(VecOps.l2PartialAt(qs(j), qOff, block, row * len, len)),
            s"trial $trial: query $j row $row len=$len")
        } else assert(outs(j)(i) == -1.0, s"trial $trial: query $j wrote outside its rows at $i")
      }
    }
  }

  /** Bounds that probe every way an early-abandoning kernel can go wrong
    * for a row whose running sums (from `base`, dimension by dimension) are
    * `running`: +inf, the full value and 1 ulp either side of it, every
    * running value and 1 ulp below it (so each check boundary is hit
    * exactly and just past), and random bounds below the full value. */
  private def probeBounds(running: Array[Double], r: Random): Seq[Double] = {
    val full = running.last
    Seq(Double.PositiveInfinity, full, math.nextUp(full), math.nextDown(full)) ++
      running.toSeq.flatMap(v => Seq(v, math.nextDown(v))) ++
      Seq.fill(4)(full * r.nextDouble())
  }

  /** `base +` the running sums of `l2PartialAt(a, aOff, b, bOff, c)` for
    * `c = 0..len`, each summed from 0.0 in dimension order. */
  private def runningSums(a: Array[Float], aOff: Int, b: Array[Float], bOff: Int, len: Int,
                          base: Double): Array[Double] =
    Array.tabulate(len + 1)(c => base + VecOps.l2PartialAt(a, aOff, b, bOff, c))

  private def randBase(r: Random): Double =
    if (r.nextInt(4) == 0) 0.0 else math.abs(r.nextGaussian()) * math.pow(10, r.nextInt(5) - 2)

  test("the bounded kernel abandons exactly when the full sum exceeds its bound") {
    val r = new Random(33)
    for (trial <- 0 until 150) {
      val len = r.nextInt(301)
      val aOff = r.nextInt(20); val bOff = r.nextInt(20)
      val a = randVec(aOff + len + r.nextInt(5), r.nextLong())
      val b = randVec(bOff + len + r.nextInt(5), r.nextLong())
      val base = randBase(r)
      val running = runningSums(a, aOff, b, bOff, len, base)
      val full = base + VecOps.l2PartialAt(a, aOff, b, bOff, len)
      assert(bits(running.last) == bits(full))
      val wa = VecOps.widen(a)
      for (bound <- probeBounds(running, r)) {
        val out = Array.fill(3)(-1.0)
        val executed = VecOps.l2PartialBounded(wa, aOff, b, bOff, len, base, bound, out, 1)
        val got = out(1)
        val ctx = s"trial $trial: len=$len base=$base bound=$bound got=$got full=$full"
        assert(out(0) == -1.0 && out(2) == -1.0, ctx)
        assert((got > bound) == (full > bound), ctx)
        if (!(got > bound)) assert(bits(got) == bits(full), ctx)
        assert(executed >= 0 && executed <= len, ctx)
        if (executed < len) assert(got > bound, ctx)
        if (bound == Double.PositiveInfinity) assert(executed == len, ctx)
      }
    }
  }

  test("the bounded 4-query row kernel abandons exactly when each full sum exceeds its bound") {
    val r = new Random(34)
    for (trial <- 0 until 300) {
      val len = r.nextInt(301)
      val qOff = r.nextInt(20)
      val nRows = 1 + r.nextInt(4)
      val rowLo = r.nextInt(nRows); val rowHi = rowLo + 1 + r.nextInt(nRows - rowLo)
      val qs = Array.fill(4)(randVec(qOff + len + r.nextInt(5), r.nextLong()))
      val block = randVec(nRows * len, r.nextLong())
      val probe = rowLo + r.nextInt(rowHi - rowLo)
      val bounds = Array.tabulate(4) { j =>
        val bs = probeBounds(runningSums(qs(j), qOff, block, probe * len, len, 0.0), r)
        // bias toward the running values, where all four pass together
        if (r.nextInt(3) == 0) bs(r.nextInt(4)) else bs(r.nextInt(bs.length))
      }
      if (r.nextBoolean()) {
        // every query's bound at the same boundary: the row stops there
        val c = r.nextInt(len + 1)
        val below = r.nextBoolean()
        for (j <- 0 until 4) {
          val v = VecOps.l2PartialAt(qs(j), qOff, block, probe * len, c)
          bounds(j) = if (below) math.nextDown(v) else v
        }
      }
      val offs = Array.fill(4)(r.nextInt(10))
      val outs = Array.tabulate(4)(j => Array.fill(offs(j) + nRows + 3)(-1.0))
      val executed = VecOps.l2PartialRows4(qs.map(VecOps.widen), qOff, block, len, rowLo, rowHi,
        bounds, outs, offs)
      assert(executed >= 0 && executed <= 4L * len * (rowHi - rowLo), s"trial $trial")
      var abandoned = false
      for (j <- 0 until 4; i <- outs(j).indices) {
        val row = rowLo + i - offs(j)
        if (row >= rowLo && row < rowHi) {
          val got = outs(j)(i)
          val full = VecOps.l2PartialAt(qs(j), qOff, block, row * len, len)
          val ctx = s"trial $trial: query $j row $row len=$len bound=${bounds(j)} got=$got full=$full"
          assert((got > bounds(j)) == (full > bounds(j)), ctx)
          if (!(got > bounds(j))) assert(bits(got) == bits(full), ctx)
          if (bits(got) != bits(full)) abandoned = true
        } else assert(outs(j)(i) == -1.0, s"trial $trial: query $j wrote outside its rows at $i")
      }
      if (executed < 4L * len * (rowHi - rowLo)) {
        // some row stopped early: all four of its values exceed their bounds
        assert((0 until 4).forall(j => bounds(j) < Double.PositiveInfinity), s"trial $trial")
      }
      if (abandoned) assert(executed < 4L * len * (rowHi - rowLo), s"trial $trial")
    }
  }

  test("dot of orthogonal unit vectors is zero") {
    assert(VecOps.dot(Array(1f, 0f), Array(0f, 1f)) == 0.0)
  }

  test("dot slices sum to full dot product") {
    val a = randVec(30, 21); val b = randVec(30, 22)
    val parts = (0 until 30 by 10).map(lo => VecOps.dot(a.slice(lo, lo + 10), b.slice(lo, lo + 10))).sum
    assert(math.abs(parts - VecOps.dot(a, b)) < 1e-9)
  }

  test("norm of a unit vector is 1") {
    assert(math.abs(VecOps.norm(Array(0f, 1f, 0f)) - 1.0) < 1e-12)
  }

  test("normalizeInPlace produces unit norm") {
    val v = randVec(20, 41)
    VecOps.normalizeInPlace(v)
    assert(math.abs(VecOps.norm(v) - 1.0) < 1e-5)
  }

  test("normalizeInPlace is a no-op on the zero vector") {
    val z = new Array[Float](5)
    VecOps.normalizeInPlace(z)
    assert(z.forall(_ == 0f))
  }

  test("nearest returns the argmin centroid") {
    val cents = Array(Array(0f, 0f), Array(10f, 0f), Array(0f, 10f))
    assert(TestVecOps.nearest(Array(9f, 1f), cents) == 1)
    assert(TestVecOps.nearest(Array(1f, 9f), cents) == 2)
    assert(TestVecOps.nearest(Array(0.1f, 0.1f), cents) == 0)
  }

  test("nearest breaks ties toward the lowest index") {
    val cents = Array(Array(1f, 0f), Array(-1f, 0f))
    assert(TestVecOps.nearest(Array(0f, 0f), cents) == 0)
  }

  /** The unbounded definition `nearest` must reproduce: the lowest index
    * among the minimal full distances, and that distance. */
  private def nearestByScan(q: Array[Float], cents: Array[Array[Float]]): (Int, Double) = {
    val ds = cents.map(c => VecOps.l2PartialAt(q, 0, c, 0, q.length))
    val best = ds.indices.minBy(c => (ds(c), c))
    (best, ds(best))
  }

  test("nearest equals the full scan with every guess, also with exact ties") {
    val r = new Random(4242)
    for (trial <- 0 until 120) {
      // dimension counts on both sides of the bound checks, with and without a tail
      val dim = Seq(1 + r.nextInt(31), 33 + r.nextInt(31), 64, 65 + r.nextInt(100))(trial % 4)
      val base = Array.fill(2 + r.nextInt(30))(randVec(dim, r.nextLong()))
      val q = if (trial % 5 == 0) base(r.nextInt(base.length)).clone() else randVec(dim, r.nextLong())
      // copies of the nearest centroid and of others, at random positions
      val (near, _) = nearestByScan(q, base)
      val copies = Array.fill(1 + r.nextInt(4))(base(near).clone()) ++
        Array.fill(r.nextInt(4))(base(r.nextInt(base.length)).clone())
      val cents = new scala.util.Random(r.nextLong()).shuffle((base ++ copies).toSeq).toArray
      val (want, wantD) = nearestByScan(q, cents)
      assert(cents.count(c => VecOps.l2(q, c) == wantD) >= 2, s"trial $trial: no tie")
      assert(TestVecOps.nearest(q, cents) == want, s"trial $trial: no guess")
      val wq = VecOps.widen(q)
      val dist = Array.fill(3)(-1.0)
      for (guess <- -1 until cents.length) {
        assert(VecOps.nearest(wq, new VecOps.CentroidTable(cents), guess, dist, 1, new Array[Long](1)) == want, s"trial $trial: guess $guess")
        assert(bits(dist(1)) == bits(wantD), s"trial $trial: guess $guess distance")
        assert(dist(0) == -1.0 && dist(2) == -1.0)
      }
    }
  }

  test("nearest returns 0 when no distance is below Double.MaxValue, whatever the guess") {
    val cents = Array.fill(5)(randVec(40, 6))
    val q = Array.fill(40)(Float.NaN)
    val dist = new Array[Double](1)
    for (guess <- -1 until cents.length) {
      assert(VecOps.nearest(VecOps.widen(q), new VecOps.CentroidTable(cents), guess, dist, 0, new Array[Long](1)) == 0)
      assert(dist(0) == Double.MaxValue)
    }
    assert(TestVecOps.nearest(q, cents) == 0)
  }

  test("nearestN returns ascending-distance prefix") {
    val cents = Array.tabulate(8)(i => Array(i.toFloat, 0f))
    val got = VecOps.nearestN(Array(2.2f, 0f), cents, 3)
    assert(got.toSeq == Seq(2, 3, 1))
  }

  test("nearestN caps at the number of centroids") {
    val cents = Array(Array(0f), Array(1f))
    assert(VecOps.nearestN(Array(0f), cents, 10).length == 2)
  }

  test("nearestN(1) agrees with nearest on random inputs") {
    val r = new Random(99)
    val cents = Array.fill(12)(randVec(6, r.nextLong()))
    for (s <- 0 until 15) {
      val q = randVec(6, 1000 + s)
      assert(VecOps.nearestN(q, cents, 1).head == TestVecOps.nearest(q, cents))
    }
  }

  /** The sort-based definition `nearestN` must reproduce exactly. */
  private def nearestNBySort(q: Array[Float], cents: Array[Array[Float]], n: Int): Array[Int] =
    Array.tabulate(cents.length)(c => (VecOps.l2(q, cents(c)), c))
      .sortBy(t => (t._1, t._2)).take(math.min(n, cents.length)).map(_._2)

  test("nearestN equals the full sort on random inputs") {
    val r = new Random(2024)
    for (trial <- 0 until 300) {
      val dim = 1 + r.nextInt(12)
      val cents = Array.fill(1 + r.nextInt(60))(randVec(dim, r.nextLong()))
      val q = randVec(dim, r.nextLong())
      val n = r.nextInt(cents.length + 5) - 1
      val want = nearestNBySort(q, cents, n).toSeq
      assert(VecOps.nearestN(q, cents, n).toSeq == want, s"trial $trial: n=$n nlist=${cents.length}")
      assert(VecOps.nearestN(VecOps.widen(q), cents, n).toSeq == want, s"trial $trial: widened")
    }
  }

  test("nearestN equals the full sort when distances tie") {
    val r = new Random(77)
    for (trial <- 0 until 300) {
      val dim = 1 + r.nextInt(4)
      // a few small-integer points, repeated: many exactly equal distances
      val base = Array.fill(1 + r.nextInt(5))(Array.fill(dim)((r.nextInt(5) - 2).toFloat))
      val cents = Array.fill(1 + r.nextInt(40))(base(r.nextInt(base.length)).clone())
      val q = Array.fill(dim)((r.nextInt(5) - 2).toFloat)
      val n = 1 + r.nextInt(cents.length + 2)
      val want = nearestNBySort(q, cents, n).toSeq
      assert(VecOps.nearestN(q, cents, n).toSeq == want, s"trial $trial: n=$n nlist=${cents.length}")
      assert(VecOps.nearestN(VecOps.widen(q), cents, n).toSeq == want, s"trial $trial: widened")
    }
  }

  test("nearestN equals the full sort when every distance is NaN") {
    val cents = Array.fill(6)(randVec(3, 5))
    val q = Array(Float.NaN, 0f, 0f)
    assert(VecOps.nearestN(q, cents, 4).toSeq == nearestNBySort(q, cents, 4).toSeq)
  }
}
