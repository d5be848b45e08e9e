package repro.linalg

/** Dense float-vector distance kernels.
  *
  * All kernels accumulate in `Double`, in dimension order. A distance split
  * into dimension slices (Harmony's dimension-based partition) and summed
  * slice by slice is therefore equal to a single full-dimension pass up to
  * rounding in the last bits, and the result depends on the order the slices
  * are added in; the engine's pruning threshold carries a slack that absorbs
  * that difference (DESIGN.md, "Pruning is lossless").
  */
object VecOps {

  /** Dimensions summed between two tests of a bounded kernel against its
    * bound (8, 16 and 32 were measured; see CHANGES.md). */
  private final val AbandonCheck = 32

  /** Squared L2 distance over the dimension slice `[lo, hi)`.
    *
    * `a` is addressed at `aOff + (lo - sliceBase)`-style offsets by callers
    * that store only a slice; here both arrays are indexed absolutely from
    * their respective offsets, i.e. we compare `a(aOff+i)` with `b(bOff+i)`
    * for `i in [0, len)`.
    */
  def l2PartialAt(a: Array[Float], aOff: Int, b: Array[Float], bOff: Int, len: Int): Double = {
    var s = 0.0
    var i = 0
    while (i < len) {
      val d = a(aOff + i).toDouble - b(bOff + i).toDouble
      s += d * d
      i += 1
    }
    s
  }

  /** [[l2PartialAt]] with `a` already widened to `Double` (see [[widen]]):
    * the same terms summed in the same order, so bit-identical to the
    * `Float` form, without converting `a` on every dimension. */
  def l2PartialAt(a: Array[Double], aOff: Int, b: Array[Float], bOff: Int, len: Int): Double = {
    var s = 0.0
    var i = 0
    while (i < len) {
      val d = a(aOff + i) - b(bOff + i).toDouble
      s += d * d
      i += 1
    }
    s
  }

  /** `base +` [[l2PartialAt]]`(a, aOff, b, bOff, len)`, abandoned early once
    * it is certain to exceed `bound`, written to `out(outIdx)`. Returns the
    * number of dimensions actually summed.
    *
    * The sum runs in dimension order from `0.0`. After every
    * [[AbandonCheck]] dimensions the kernel tests `base + s > bound` and, if
    * it holds, stops and writes `base + s`. Each
    * term is `>= 0`, and rounded addition of non-negative terms never
    * decreases a sum, so the full value would also exceed `bound`:
    * `out(outIdx) > bound` holds exactly when `base + l2PartialAt(...) > bound`,
    * and a value not above `bound` is that full value, bit for bit. With
    * `bound = +inf` nothing is abandoned.
    */
  def l2PartialBounded(
      a: Array[Double], aOff: Int, b: Array[Float], bOff: Int, len: Int,
      base: Double, bound: Double, out: Array[Double], outIdx: Int,
  ): Int = {
    val checked = len - len % AbandonCheck
    var s = 0.0
    var i = 0
    while (i < checked) {
      // a fixed trip count measured faster than a `min(i + AbandonCheck, len)` limit
      var t = 0
      while (t < AbandonCheck) {
        val d = a(aOff + i + t) - b(bOff + i + t).toDouble
        s += d * d
        t += 1
      }
      i += AbandonCheck
      if (base + s > bound) {
        out(outIdx) = base + s
        return i
      }
    }
    while (i < len) {
      val d = a(aOff + i) - b(bOff + i).toDouble
      s += d * d
      i += 1
    }
    out(outIdx) = base + s
    len
  }

  /** Squared L2 partials of rows `[rowLo, rowHi)` of the row-major,
    * `len`-wide `block` against four widened queries at once, each read from
    * offset `qOff`. Row `r`'s partial against `qs(j)` is written to
    * `outs(j)(outOffs(j) + r - rowLo)`. Each query keeps its own accumulator,
    * summed in dimension order from `0.0`; each block value is read once for
    * all four queries. Returns the number of (query, dimension) terms
    * actually summed.
    *
    * A row is abandoned, as in [[l2PartialBounded]] with `base = 0`, once
    * all four partials exceed their `bounds(j)`; its written values are then
    * the running sums, each above its bound. Every other row runs to the end,
    * so a written value not above its bound is bit-identical to
    * `l2PartialAt(qs(j), qOff, block, r * len, len)`.
    */
  def l2PartialRows4(
      qs: Array[Array[Double]], qOff: Int,
      block: Array[Float], len: Int, rowLo: Int, rowHi: Int,
      bounds: Array[Double],
      outs: Array[Array[Double]], outOffs: Array[Int],
  ): Long = {
    val q0 = qs(0); val q1 = qs(1); val q2 = qs(2); val q3 = qs(3)
    val b0 = bounds(0); val b1 = bounds(1); val b2 = bounds(2); val b3 = bounds(3)
    val o0 = outs(0); val o1 = outs(1); val o2 = outs(2); val o3 = outs(3)
    // output index of row r for query j is fj + r
    val f0 = outOffs(0) - rowLo; val f1 = outOffs(1) - rowLo
    val f2 = outOffs(2) - rowLo; val f3 = outOffs(3) - rowLo
    val checked = len - len % AbandonCheck
    var executed = 0L
    var r = rowLo
    while (r < rowHi) {
      val base = r * len
      var s0 = 0.0
      var s1 = 0.0
      var s2 = 0.0
      var s3 = 0.0
      var i = 0
      // both limits drop to i once all four partials pass their bounds
      var lim = checked
      var end = len
      while (i < lim) {
        var t = 0
        while (t < AbandonCheck) {
          val x = block(base + i + t).toDouble
          val j = qOff + i + t
          val d0 = q0(j) - x
          val d1 = q1(j) - x
          val d2 = q2(j) - x
          val d3 = q3(j) - x
          s0 += d0 * d0
          s1 += d1 * d1
          s2 += d2 * d2
          s3 += d3 * d3
          t += 1
        }
        i += AbandonCheck
        if (s0 > b0 && s1 > b1 && s2 > b2 && s3 > b3) { lim = i; end = i }
      }
      while (i < end) {
        val x = block(base + i).toDouble
        val j = qOff + i
        val d0 = q0(j) - x
        val d1 = q1(j) - x
        val d2 = q2(j) - x
        val d3 = q3(j) - x
        s0 += d0 * d0
        s1 += d1 * d1
        s2 += d2 * d2
        s3 += d3 * d3
        i += 1
      }
      executed += 4L * end
      o0(f0 + r) = s0
      o1(f1 + r) = s1
      o2(f2 + r) = s2
      o3(f3 + r) = s3
      r += 1
    }
    executed
  }

  /** `a` converted to `Double`. The conversion is exact, so the widened
    * kernels return the same bits as their `Float` forms. */
  def widen(a: Array[Float]): Array[Double] = {
    val w = new Array[Double](a.length)
    var i = 0
    while (i < a.length) { w(i) = a(i).toDouble; i += 1 }
    w
  }

  /** Squared L2 distance over full vectors of equal length. */
  def l2(a: Array[Float], b: Array[Float]): Double = {
    require(a.length == b.length, s"dim mismatch: ${a.length} vs ${b.length}")
    l2PartialAt(a, 0, b, 0, a.length)
  }

  /** Dot product of full vectors. */
  def dot(a: Array[Float], b: Array[Float]): Double = {
    require(a.length == b.length, s"dim mismatch: ${a.length} vs ${b.length}")
    var s = 0.0
    var i = 0
    while (i < a.length) {
      s += a(i).toDouble * b(i).toDouble
      i += 1
    }
    s
  }

  /** Euclidean norm. */
  def norm(a: Array[Float]): Double = math.sqrt(dot(a, a))

  /** In-place L2 normalization; no-op on the zero vector. */
  def normalizeInPlace(a: Array[Float]): Unit = {
    val n = norm(a)
    if (n > 0) {
      var i = 0
      while (i < a.length) { a(i) = (a(i) / n).toFloat; i += 1 }
    }
  }

  /** Largest dimension count for which [[TriangleSlack]] covers the
    * rounding of a computed squared distance (DESIGN.md, "Early abandoning
    * in index build is exact too"). */
  final val TriangleMaxDim = 1 << 20

  /** Factor on `4·d` in the triangle-inequality skip test. A squared
    * distance summed over `n <= TriangleMaxDim` dimensions is within a
    * relative `δ = (n + 2)·2^-53 <= 1.2e-10` of the exact one, and the skip
    * is exact once the factor is at least `((1 + δ) / (1 - δ))²`, below
    * `1 + 5e-10`. */
  private final val TriangleSlack = 1.0 + 1e-9

  /** The squared centroid gap above which a centroid provably cannot beat
    * one at computed squared distance `d` from a point: if
    * `gap(b, c) > skipGap(d(x, b))`, then the computed `d(x, c)` is strictly
    * above `d(x, b)`. By the triangle inequality `|x - c| >= |b - c| - |x - b|`,
    * and `|b - c| > 2·|x - b|` makes that exceed `|x - b|`; the slack covers
    * rounding in all three computed distances. With `d = Double.MaxValue`,
    * `+inf` or NaN no gap is above it (or the test is false), so nothing is
    * skipped. */
  def skipGap(d: Double): Double = 4.0 * d * TriangleSlack

  /** Centroids with the squared distance between every pair of them, which
    * lets [[nearest]] skip centroids that cannot win (Elkan, ICML 2003).
    * `gaps(a)(b)` is [[l2PartialAt]] of `a` against `b` (symmetric: `(a - b)²`
    * and `(b - a)²` have the same bits; 0 on the diagonal), `minGap(a)` the
    * smallest `gaps(a)(b)` over `b != a` (`+inf` for one centroid).
    * Computed on [[Par]] over rows; `executed` is the dim-ops that took. */
  final class CentroidTable(val centroids: Array[Array[Float]]) {
    require(centroids.nonEmpty, "no centroids")
    val dim: Int = centroids(0).length
    require(centroids.forall(_.length == dim), s"dim mismatch: centroids of ${centroids.map(_.length).distinct.mkString("/")}")
    require(dim <= TriangleMaxDim, s"dim $dim above $TriangleMaxDim")
    val gaps: Array[Array[Double]] = Array.fill(centroids.length)(new Array[Double](centroids.length))
    Par.foreachChunk(centroids.length, (lo, hi) => {
      var a = lo
      while (a < hi) {
        val w = widen(centroids(a))
        var b = a + 1
        while (b < centroids.length) {
          gaps(a)(b) = l2PartialAt(w, 0, centroids(b), 0, dim)
          b += 1
        }
        a += 1
      }
    })
    for (a <- centroids.indices; b <- 0 until a) gaps(a)(b) = gaps(b)(a)
    val minGap: Array[Double] = Array.tabulate(centroids.length) { a =>
      var m = Double.PositiveInfinity
      var b = 0
      while (b < centroids.length) { if (b != a && gaps(a)(b) < m) m = gaps(a)(b); b += 1 }
      m
    }
    val executed: Long = centroids.length.toLong * (centroids.length - 1) / 2 * dim
  }

  /** Index of the centroid of `table` nearest to the widened query `q`
    * (squared L2); ties → lowest index. The winner's distance is written to
    * `dist(distIdx)`, which also serves as scratch, and the dim-ops actually
    * summed are added to `executed(0)`.
    *
    * A `guess` in `[0, centroids.length)` is measured first, so a good guess
    * gives a tight bound from the start; `-1` means none. With `best` the
    * best centroid so far and `bestD` its full distance, a centroid `c` is
    * skipped when `table.gaps(best)(c) > skipGap(bestD)`, and the scan ends
    * right after the guess when `table.minGap(guess)` is above that (Hamerly,
    * SDM 2010); any other is bounded by `bestD` ([[l2PartialBounded]]).
    * A centroid replaces the best so far when its distance is lower, or
    * equal with a lower index, and a skipped centroid or an abandoned
    * partial is strictly above `bestD`, so the result is the lowest index
    * among the minimal distances whatever the guess, and the written
    * distance is summed in full, in dimension order. As in the unbounded
    * scan, a distance must be below `Double.MaxValue` to win; otherwise the
    * result is 0 with distance `Double.MaxValue`.
    */
  def nearest(q: Array[Double], table: CentroidTable, guess: Int,
              dist: Array[Double], distIdx: Int, executed: Array[Long]): Int = {
    require(q.length == table.dim, s"dim mismatch: query has ${q.length}, centroids ${table.dim}")
    val centroids = table.centroids
    val dim = q.length
    var ops = 0L
    var best = 0
    var bestD = Double.MaxValue
    if (guess >= 0 && guess < centroids.length) {
      val d = l2PartialAt(q, 0, centroids(guess), 0, dim)
      ops += dim
      if (d < bestD) { bestD = d; best = guess }
    }
    var reach = skipGap(bestD)
    if (!(best == guess && table.minGap(best) > reach)) {
      var gapsBest = table.gaps(best)
      var c = 0
      while (c < centroids.length) {
        if (c != guess && !(gapsBest(c) > reach)) {
          ops += l2PartialBounded(q, 0, centroids(c), 0, dim, 0.0, bestD, dist, distIdx)
          val d = dist(distIdx)
          if (d < bestD || (d == bestD && c < best)) {
            bestD = d; best = c; reach = skipGap(d); gapsBest = table.gaps(c)
          }
        }
        c += 1
      }
    }
    executed(0) += ops
    dist(distIdx) = bestD
    best
  }

  /** Indices of the `n` nearest centroids, ascending by distance (ties by
    * index; distances ordered by `java.lang.Double.compare`).
    *
    * Partial selection: the best `n` so far are kept sorted in primitive
    * arrays and each centroid is insertion-placed only if it beats the
    * current worst. Centroids arrive in index order, so an equal distance
    * never moves ahead of an earlier index. `q` is widened once, and every
    * distance comes from the widened kernel.
    */
  def nearestN(q: Array[Float], centroids: Array[Array[Float]], n: Int): Array[Int] =
    nearestN(widen(q), centroids, n)

  /** [[nearestN]] for a query already widened to `Double`. */
  def nearestN(q: Array[Double], centroids: Array[Array[Float]], n: Int): Array[Int] = {
    val m = math.max(0, math.min(n, centroids.length))
    val bestD = new Array[Double](m)
    val bestC = new Array[Int](m)
    var size = 0
    var c = 0
    while (c < centroids.length) {
      val cent = centroids(c)
      require(cent.length == q.length, s"dim mismatch: ${q.length} vs ${cent.length}")
      val d = l2PartialAt(q, 0, cent, 0, q.length)
      if (size < m || (m > 0 && java.lang.Double.compare(d, bestD(m - 1)) < 0)) {
        var i = if (size < m) size else m - 1
        while (i > 0 && java.lang.Double.compare(d, bestD(i - 1)) < 0) {
          bestD(i) = bestD(i - 1)
          bestC(i) = bestC(i - 1)
          i -= 1
        }
        bestD(i) = d
        bestC(i) = c
        if (size < m) size += 1
      }
      c += 1
    }
    bestC
  }
}
