package repro.linalg

/** Dense float-vector distance kernels.
  *
  * All kernels accumulate in `Double` so that slicing a distance computation
  * into dimension blocks (Harmony's dimension-based partition) yields the
  * same total as a single full-dimension pass, independent of slice order —
  * the lossless-pruning invariant in DESIGN.md depends on this.
  */
object VecOps {

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

  /** Squared L2 distance over full vectors of equal length. */
  def l2(a: Array[Float], b: Array[Float]): Double = {
    require(a.length == b.length, s"dim mismatch: ${a.length} vs ${b.length}")
    l2PartialAt(a, 0, b, 0, a.length)
  }

  /** Squared L2 distance over dimensions `[lo, hi)` of full vectors. */
  def l2Slice(a: Array[Float], b: Array[Float], lo: Int, hi: Int): Double =
    l2PartialAt(a, lo, b, lo, hi - lo)

  /** Dot product over the slice `[0, len)` from the given offsets. */
  def dotPartialAt(a: Array[Float], aOff: Int, b: Array[Float], bOff: Int, len: Int): Double = {
    var s = 0.0
    var i = 0
    while (i < len) {
      s += a(aOff + i).toDouble * b(bOff + i).toDouble
      i += 1
    }
    s
  }

  /** Dot product of full vectors. */
  def dot(a: Array[Float], b: Array[Float]): Double = {
    require(a.length == b.length, s"dim mismatch: ${a.length} vs ${b.length}")
    dotPartialAt(a, 0, b, 0, a.length)
  }

  /** Euclidean norm. */
  def norm(a: Array[Float]): Double = math.sqrt(dot(a, a))

  /** Cosine similarity; 0 for a zero vector. */
  def cosine(a: Array[Float], b: Array[Float]): Double = {
    val na = norm(a); val nb = norm(b)
    if (na == 0.0 || nb == 0.0) 0.0 else dot(a, b) / (na * nb)
  }

  /** In-place L2 normalization; no-op on the zero vector. */
  def normalizeInPlace(a: Array[Float]): Unit = {
    val n = norm(a)
    if (n > 0) {
      var i = 0
      while (i < a.length) { a(i) = (a(i) / n).toFloat; i += 1 }
    }
  }

  /** Index of the centroid nearest to `q` (squared L2); ties → lowest index. */
  def nearest(q: Array[Float], centroids: Array[Array[Float]]): Int = {
    var best = 0
    var bestD = Double.MaxValue
    var c = 0
    while (c < centroids.length) {
      val d = l2(q, centroids(c))
      if (d < bestD) { bestD = d; best = c }
      c += 1
    }
    best
  }

  /** Indices of the `n` nearest centroids, ascending by distance (ties by
    * index; distances ordered by `java.lang.Double.compare`).
    *
    * Partial selection: the best `n` so far are kept sorted in primitive
    * arrays and each centroid is insertion-placed only if it beats the
    * current worst. Centroids arrive in index order, so an equal distance
    * never moves ahead of an earlier index.
    */
  def nearestN(q: Array[Float], centroids: Array[Array[Float]], n: Int): Array[Int] = {
    val m = math.max(0, math.min(n, centroids.length))
    val bestD = new Array[Double](m)
    val bestC = new Array[Int](m)
    var size = 0
    var c = 0
    while (c < centroids.length) {
      val d = l2(q, centroids(c))
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
