package repro.ivf

import java.util.Random

import repro.linalg.{Par, VecOps}

/** Lloyd's k-means with k-means++ seeding.
  *
  * All compared systems in the paper share the same clustering (§6.1
  * methodology: "all methods adopt the same clustering algorithm and number
  * of clusters as Faiss"), so a single deterministic trainer feeds Faiss,
  * Harmony-vector, Harmony-dimension and Harmony alike.
  */
object KMeans {

  final case class Result(centroids: Array[Array[Float]], iterations: Int, inertia: Double)

  /** Train `k` centroids on (a sample of) `data`; deterministic in `seed`. */
  def fit(data: Array[Array[Float]], k: Int, maxIter: Int = 10, seed: Long = 17L,
          sampleSize: Int = 20000): Result = {
    require(data.nonEmpty, "empty training data")
    require(k > 0, s"k must be positive: $k")
    val dim = data(0).length
    val sample: Array[Array[Float]] =
      if (data.length <= sampleSize) data
      else {
        val rnd = new Random(seed)
        Array.fill(sampleSize)(data(rnd.nextInt(data.length)))
      }
    val kk = math.min(k, sample.length)
    var centroids = seedPlusPlus(sample, kk, seed)

    var iter = 0
    var inertia = Double.MaxValue
    var converged = false
    var assign: Option[Array[Int]] = None
    while (iter < maxIter && !converged) {
      // each point's last cluster is a good first guess: its distance bounds the scan
      val a = assignAll(sample, centroids, assign)
      val sums = Array.ofDim[Double](kk, dim)
      val counts = new Array[Long](kk)
      var newInertia = 0.0
      var i = 0
      while (i < sample.length) {
        val c = a.clusters(i)
        val v = sample(i)
        var j = 0
        while (j < dim) { sums(c)(j) += v(j); j += 1 }
        counts(c) += 1
        newInertia += a.dists(i)
        i += 1
      }
      val next = Array.tabulate(kk) { c =>
        if (counts(c) == 0) centroids(c) // keep empty-cluster centroid
        else Array.tabulate(dim)(j => (sums(c)(j) / counts(c)).toFloat)
      }
      converged = math.abs(inertia - newInertia) < 1e-6 * math.max(1.0, inertia)
      inertia = newInertia
      centroids = next
      assign = Some(a.clusters)
      iter += 1
    }
    Result(centroids, iter, inertia)
  }

  /** Each point's nearest centroid and the squared distance to it. */
  final case class Assignment(clusters: Array[Int], dists: Array[Double])

  /** Assign every vector to its nearest centroid (parallel over points),
    * measuring `guess(i)`, if given, first for point `i`. The guess only
    * tightens the scan's bound: the result is the same with any guess or
    * none ([[VecOps.nearest]]), and each distance is the full one.
    */
  def assignAll(data: Array[Array[Float]], centroids: Array[Array[Float]],
                guess: Option[Array[Int]] = None): Assignment = {
    val clusters = new Array[Int](data.length)
    val dists = new Array[Double](data.length)
    Par.foreachChunk(data.length, (lo, hi) => {
      var i = lo
      while (i < hi) {
        val g = guess.fold(-1)(_(i))
        clusters(i) = VecOps.nearest(VecOps.widen(data(i)), centroids, g, dists, i)
        i += 1
      }
    })
    Assignment(clusters, dists)
  }

  /** Lower each `minD(i)` to the squared distance from `data(i)` to
    * `newest` where that is smaller. A point's distance is abandoned once
    * its running partial exceeds `minD(i)` ([[VecOps.l2PartialBounded]]),
    * which can then not be lowered; one that is not abandoned is summed in
    * full, so `minD` ends bit-identical to the unbounded update. `newest` is
    * widened once; `(a - b)²` and `(b - a)²` have the same bits.
    */
  private[ivf] def lowerMinD(data: Array[Array[Float]], newest: Array[Float],
                             minD: Array[Double]): Unit = {
    val w = VecOps.widen(newest)
    Par.foreachChunk(data.length, (lo, hi) => {
      val d = new Array[Double](1)
      var i = lo
      while (i < hi) {
        require(data(i).length == w.length, s"dim mismatch: ${w.length} vs ${data(i).length}")
        VecOps.l2PartialBounded(w, 0, data(i), 0, w.length, 0.0, minD(i), d, 0)
        if (d(0) < minD(i)) minD(i) = d(0)
        i += 1
      }
    })
  }

  /** k-means++ seeding, deterministic in the seed. */
  private def seedPlusPlus(data: Array[Array[Float]], k: Int, seed: Long): Array[Array[Float]] = {
    val rnd = new Random(seed)
    val centroids = new Array[Array[Float]](k)
    centroids(0) = data(rnd.nextInt(data.length))
    val minD = Array.fill(data.length)(Double.MaxValue)
    var c = 1
    while (c < k) {
      lowerMinD(data, centroids(c - 1), minD)
      val total = minD.sum
      val target = rnd.nextDouble() * total
      var acc = 0.0
      var pick = 0
      var i = 0
      var found = false
      while (i < data.length && !found) {
        acc += minD(i)
        if (acc >= target) { pick = i; found = true }
        i += 1
      }
      centroids(c) = data(pick)
      c += 1
    }
    centroids
  }
}
