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

  /** Dim-ops a nearest-centroid scan actually executed, next to the
    * `n · k · dim` per pass it counts: every point measured against every
    * centroid in full, as the scans did before any abandoning or skipping.
    * `executed` includes the centroid-gap tables the skipping needs. */
  final case class Work(executed: Long, counted: Long) {
    def +(o: Work): Work = Work(executed + o.executed, counted + o.counted)
  }

  /** `seeding` is k-means++ with its final pass, which gives the first Lloyd
    * assignment; `lloyd` is every later assignment. */
  final case class Result(centroids: Array[Array[Float]], iterations: Int, inertia: Double,
                          seeding: Work, lloyd: Work)

  /** Train `k` centroids on (a sample of) `data`; deterministic in `seed`. */
  def fit(data: Array[Array[Float]], k: Int, maxIter: Int = 10, seed: Long = 17L,
          sampleSize: Int = 20000): Result = {
    require(data.nonEmpty, "empty training data")
    require(k > 0, s"k must be positive: $k")
    val sample: Array[Array[Float]] =
      if (data.length <= sampleSize) data
      else {
        val rnd = new Random(seed)
        Array.fill(sampleSize)(data(rnd.nextInt(data.length)))
      }
    val kk = math.min(k, sample.length)
    var (centroids, a) = seedPlusPlus(sample, kk, seed)
    val seeding = a.work
    var lloyd = Work(0L, 0L)

    var iter = 0
    var inertia = Double.MaxValue
    var converged = false
    while (iter < maxIter && !converged) {
      if (iter > 0) {
        // each point's last cluster is a good first guess: its distance bounds the scan
        a = assignAll(sample, centroids, Some(a.clusters))
        lloyd += a.work
      }
      var newInertia = 0.0
      a.dists.foreach(newInertia += _)
      val next = update(sample, a.clusters, centroids)
      converged = math.abs(inertia - newInertia) < 1e-6 * math.max(1.0, inertia)
      inertia = newInertia
      centroids = next
      iter += 1
    }
    Result(centroids, iter, inertia, seeding, lloyd)
  }

  /** Each cluster's mean of its points, in `Double` and then rounded to
    * `Float`; an empty cluster keeps its centroid. Parallel over dimension
    * ranges ([[Par]]): every `(cluster, dimension)` sum still adds its
    * points in point order, so the result does not depend on the split.
    */
  private def update(points: Array[Array[Float]], clusters: Array[Int],
                     centroids: Array[Array[Float]]): Array[Array[Float]] = {
    val k = centroids.length
    val dim = centroids(0).length
    val counts = new Array[Long](k)
    clusters.foreach(c => counts(c) += 1)
    val next = Array.tabulate(k)(c => if (counts(c) == 0) centroids(c) else new Array[Float](dim))
    Par.foreachChunk(dim, (lo, hi) => {
      val sums = Array.ofDim[Double](k, hi - lo)
      var i = 0
      while (i < points.length) {
        val s = sums(clusters(i))
        val v = points(i)
        var j = lo
        while (j < hi) { s(j - lo) += v(j); j += 1 }
        i += 1
      }
      var c = 0
      while (c < k) {
        if (counts(c) > 0) {
          var j = lo
          while (j < hi) { next(c)(j) = (sums(c)(j - lo) / counts(c)).toFloat; j += 1 }
        }
        c += 1
      }
    })
    next
  }

  /** Each point's nearest centroid, the squared distance to it, and the
    * scan's work. */
  final case class Assignment(clusters: Array[Int], dists: Array[Double], work: Work)

  /** Assign every vector to its nearest centroid (parallel over points),
    * measuring `guess(i)`, if given, first for point `i`. The centroids'
    * gap table is computed once per call and lets each scan skip centroids
    * that cannot win. The guess only tightens the scan's bounds: the result
    * is the same with any guess or none ([[VecOps.nearest]]), and each
    * distance is the full one.
    */
  def assignAll(data: Array[Array[Float]], centroids: Array[Array[Float]],
                guess: Option[Array[Int]] = None): Assignment = {
    val table = new VecOps.CentroidTable(centroids)
    val clusters = new Array[Int](data.length)
    val dists = new Array[Double](data.length)
    val executed = Par.mapChunks(data.length, (lo, hi) => {
      val ops = new Array[Long](1)
      var i = lo
      while (i < hi) {
        val g = guess.fold(-1)(_(i))
        clusters(i) = VecOps.nearest(VecOps.widen(data(i)), table, g, dists, i, ops)
        i += 1
      }
      ops(0)
    }).sum
    Assignment(clusters, dists,
      Work(table.executed + executed, data.length.toLong * centroids.length * table.dim))
  }

  /** Lower each `minD(i)` to the squared distance from `data(i)` to
    * `seeds(newest)` where that is smaller, and then set `nearestSeed(i)`
    * to `newest`. Returns the dim-ops executed.
    *
    * `minD(i)` is the full distance to seed `nearestSeed(i)`, so a point is
    * skipped when that seed's squared gap to the newest one is above
    * [[VecOps.skipGap]]`(minD(i))`: the newest is then strictly farther
    * (the triangle inequality). Any other point's distance is abandoned
    * once its running partial exceeds `minD(i)` ([[VecOps.l2PartialBounded]]),
    * which can then not be lowered; one that is not abandoned is summed in
    * full, so `minD` ends bit-identical to the unbounded update. `newest` is
    * widened once; `(a - b)²` and `(b - a)²` have the same bits. Only a
    * strictly lower distance moves a point, so among seeds at equal
    * distance it keeps the lowest index, as [[VecOps.nearest]] does.
    */
  private[ivf] def lowerMinD(data: Array[Array[Float]], seeds: Array[Array[Float]], newest: Int,
                             minD: Array[Double], nearestSeed: Array[Int]): Long = {
    val w = VecOps.widen(seeds(newest))
    require(w.length <= VecOps.TriangleMaxDim, s"dim ${w.length} above ${VecOps.TriangleMaxDim}")
    val gaps = Array.tabulate(newest)(s => VecOps.l2PartialAt(w, 0, seeds(s), 0, w.length))
    val executed = Par.mapChunks(data.length, (lo, hi) => {
      val d = new Array[Double](1)
      var ops = 0L
      var i = lo
      while (i < hi) {
        val s = nearestSeed(i)
        if (!(s < newest && gaps(s) > VecOps.skipGap(minD(i)))) {
          require(data(i).length == w.length, s"dim mismatch: ${w.length} vs ${data(i).length}")
          ops += VecOps.l2PartialBounded(w, 0, data(i), 0, w.length, 0.0, minD(i), d, 0)
          if (d(0) < minD(i)) { minD(i) = d(0); nearestSeed(i) = newest }
        }
        i += 1
      }
      ops
    }).sum
    executed + newest.toLong * w.length
  }

  /** k-means++ seeding, deterministic in the seed. Each seed's pass lowers
    * every point's `minD` ([[lowerMinD]]); after the last seed's pass,
    * `(nearestSeed, minD)` is exactly what [[assignAll]] would return for
    * the seeds, so it is returned as the first Lloyd assignment. */
  private[ivf] def seedPlusPlus(data: Array[Array[Float]], k: Int, seed: Long): (Array[Array[Float]], Assignment) = {
    val rnd = new Random(seed)
    val centroids = new Array[Array[Float]](k)
    centroids(0) = data(rnd.nextInt(data.length))
    val minD = Array.fill(data.length)(Double.MaxValue)
    val nearestSeed = new Array[Int](data.length)
    var executed = 0L
    var c = 1
    while (c < k) {
      executed += lowerMinD(data, centroids, c - 1, minD, nearestSeed)
      var total = 0.0
      minD.foreach(total += _)
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
    executed += lowerMinD(data, centroids, k - 1, minD, nearestSeed)
    (centroids, Assignment(nearestSeed, minD, Work(executed, data.length.toLong * k * data(0).length)))
  }
}
