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
    // Double accumulation makes the slice sum exactly associative-safe for
    // the slice boundaries we use — verified over many random splits.
    for (s <- 0 until 25) {
      val dim = 48
      val a = randVec(dim, s); val b = randVec(dim, s + 500)
      val full = VecOps.l2(a, b)
      val r = new Random(s)
      val nSplits = 1 + r.nextInt(6)
      val cuts = (Seq(0, dim) ++ Seq.fill(nSplits)(r.nextInt(dim + 1))).distinct.sorted
      val sum = cuts.sliding(2).map(w => VecOps.l2Slice(a, b, w(0), w(1))).sum
      assert(math.abs(sum - full) < 1e-9, s"split=$cuts")
    }
  }

  test("partial sums are monotonically non-decreasing as slices accumulate") {
    for (s <- 0 until 10) {
      val dim = 32
      val a = randVec(dim, s); val b = randVec(dim, s + 77)
      var acc = 0.0
      for (lo <- 0 until dim by 8) {
        val next = acc + VecOps.l2Slice(a, b, lo, lo + 8)
        assert(next >= acc)
        acc = next
      }
      assert(math.abs(acc - VecOps.l2(a, b)) < 1e-9)
    }
  }

  test("l2PartialAt matches l2Slice for offset addressing") {
    val a = randVec(40, 11); val b = randVec(40, 12)
    // simulate a stored slice: copy dims [8,24) of b into a compact array
    val sliceLen = 16
    val stored = new Array[Float](sliceLen)
    System.arraycopy(b, 8, stored, 0, sliceLen)
    assert(VecOps.l2PartialAt(a, 8, stored, 0, sliceLen) == VecOps.l2Slice(a, b, 8, 24))
  }

  test("dot of orthogonal unit vectors is zero") {
    assert(VecOps.dot(Array(1f, 0f), Array(0f, 1f)) == 0.0)
  }

  test("dot slices sum to full dot product") {
    val a = randVec(30, 21); val b = randVec(30, 22)
    val parts = (0 until 30 by 10).map(lo => VecOps.dotPartialAt(a, lo, b, lo, 10)).sum
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
    assert(VecOps.nearest(Array(9f, 1f), cents) == 1)
    assert(VecOps.nearest(Array(1f, 9f), cents) == 2)
    assert(VecOps.nearest(Array(0.1f, 0.1f), cents) == 0)
  }

  test("nearest breaks ties toward the lowest index") {
    val cents = Array(Array(1f, 0f), Array(-1f, 0f))
    assert(VecOps.nearest(Array(0f, 0f), cents) == 0)
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
      assert(VecOps.nearestN(q, cents, 1).head == VecOps.nearest(q, cents))
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
      assert(VecOps.nearestN(q, cents, n).toSeq == nearestNBySort(q, cents, n).toSeq,
        s"trial $trial: n=$n nlist=${cents.length}")
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
      assert(VecOps.nearestN(q, cents, n).toSeq == nearestNBySort(q, cents, n).toSeq,
        s"trial $trial: n=$n nlist=${cents.length}")
    }
  }

  test("nearestN equals the full sort when every distance is NaN") {
    val cents = Array.fill(6)(randVec(3, 5))
    val q = Array(Float.NaN, 0f, 0f)
    assert(VecOps.nearestN(q, cents, 4).toSeq == nearestNBySort(q, cents, 4).toSeq)
  }
}
