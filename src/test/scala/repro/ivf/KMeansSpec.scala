package repro.ivf

import java.util.Random

import org.scalatest.funsuite.AnyFunSuite

import repro.linalg.{TestVecOps, VecOps}

class KMeansSpec extends AnyFunSuite {

  private def blobs(nPerBlob: Int, centers: Seq[Array[Float]], std: Double,
                    seed: Long): Array[Array[Float]] = {
    val r = new Random(seed)
    centers.flatMap { c =>
      Array.fill(nPerBlob)(c.indices.map(i => (c(i) + r.nextGaussian() * std).toFloat).toArray)
    }.toArray
  }

  private val wellSeparated = blobs(100,
    Seq(Array(0f, 0f), Array(20f, 0f), Array(0f, 20f), Array(20f, 20f)), 0.5, 1)

  test("returns the requested number of centroids") {
    val res = KMeans.fit(wellSeparated, 4, seed = 2)
    assert(res.centroids.length == 4)
  }

  test("recovers well-separated blob centers") {
    val res = KMeans.fit(wellSeparated, 4, seed = 2)
    val expected = Seq(Array(0f, 0f), Array(20f, 0f), Array(0f, 20f), Array(20f, 20f))
    expected.foreach { e =>
      assert(res.centroids.exists(c => VecOps.l2(c, e) < 1.0),
        s"no centroid near ${e.toSeq}")
    }
  }

  test("is deterministic in the seed") {
    val a = KMeans.fit(wellSeparated, 4, seed = 3)
    val b = KMeans.fit(wellSeparated, 4, seed = 3)
    assert(a.centroids.zip(b.centroids).forall { case (x, y) => x.sameElements(y) })
    assert(a.inertia == b.inertia)
  }

  test("different seeds can give different seedings but similar inertia on blobs") {
    val a = KMeans.fit(wellSeparated, 4, seed = 3)
    val b = KMeans.fit(wellSeparated, 4, seed = 4)
    assert(math.abs(a.inertia - b.inertia) / math.max(a.inertia, 1e-9) < 0.5)
  }

  test("inertia decreases (or holds) with more clusters") {
    val i2 = KMeans.fit(wellSeparated, 2, seed = 5).inertia
    val i8 = KMeans.fit(wellSeparated, 8, seed = 5).inertia
    assert(i8 <= i2)
  }

  test("k capped at the sample size") {
    val tiny = wellSeparated.take(3)
    val res = KMeans.fit(tiny, 10, seed = 6)
    assert(res.centroids.length == 3)
  }

  test("rejects empty data and non-positive k") {
    intercept[IllegalArgumentException](KMeans.fit(Array.empty[Array[Float]], 2))
    intercept[IllegalArgumentException](KMeans.fit(wellSeparated, 0))
  }

  test("assignAll maps every point to its nearest centroid") {
    val res = KMeans.fit(wellSeparated, 4, seed = 7)
    val assign = KMeans.assignAll(wellSeparated, res.centroids).clusters
    assert(assign.length == wellSeparated.length)
    wellSeparated.indices.take(50).foreach { i =>
      assert(assign(i) == TestVecOps.nearest(wellSeparated(i), res.centroids))
    }
  }

  test("assignment of blob data is pure per blob") {
    val res = KMeans.fit(wellSeparated, 4, seed = 8)
    val assign = KMeans.assignAll(wellSeparated, res.centroids).clusters
    (0 until 4).foreach { blob =>
      val slice = assign.slice(blob * 100, (blob + 1) * 100)
      assert(slice.distinct.length == 1, s"blob $blob split across clusters")
    }
  }

  test("training respects the sample cap") {
    // huge sampleSize vs small: both must converge to valid centroids
    val res = KMeans.fit(wellSeparated, 4, seed = 9, sampleSize = 50)
    assert(res.centroids.length == 4)
    assert(res.iterations >= 1)
  }

  test("iterations never exceed maxIter") {
    val res = KMeans.fit(wellSeparated, 4, maxIter = 3, seed = 10)
    assert(res.iterations <= 3)
  }

  /** Gaussian points in `dim` dimensions around a few random centers. */
  private def cloud(n: Int, dim: Int, seed: Long): Array[Array[Float]] = {
    val r = new Random(seed)
    val centers = Array.fill(6)(Array.fill(dim)((r.nextGaussian() * 3).toFloat))
    Array.fill(n) {
      val c = centers(r.nextInt(centers.length))
      Array.tabulate(dim)(j => (c(j) + r.nextGaussian()).toFloat)
    }
  }

  private def bits(d: Double): Long = java.lang.Double.doubleToRawLongBits(d)

  test("assignAll gives the same clusters and distance bits with any guess") {
    for ((dim, seed) <- Seq((45, 11L), (70, 12L), (3, 13L))) {
      val data = cloud(600, dim, seed)
      val cents = KMeans.fit(data, 12, maxIter = 2, seed = seed).centroids ++
        Array.fill(2)(data(0).clone()) // exact ties for point 0
      val plain = KMeans.assignAll(data, cents)
      data.indices.foreach { i =>
        assert(plain.clusters(i) == TestVecOps.nearest(data(i), cents))
        assert(bits(plain.dists(i)) == bits(VecOps.l2(data(i), cents(plain.clusters(i)))))
      }
      val r = new Random(seed)
      val guesses = Seq(
        Array.fill(data.length)(r.nextInt(cents.length)),
        Array.fill(data.length)(cents.length - 1),
        plain.clusters,
      )
      guesses.foreach { g =>
        val got = KMeans.assignAll(data, cents, Some(g))
        assert(got.clusters.toSeq == plain.clusters.toSeq, s"dim $dim")
        assert(got.dists.map(bits).toSeq == plain.dists.map(bits).toSeq, s"dim $dim")
      }
    }
  }

  test("the bounded seeding update leaves minD bit-identical to the full one") {
    for ((dim, seed) <- Seq((45, 21L), (70, 22L), (96, 23L), (5, 24L))) {
      val data = cloud(500, dim, seed)
      val r = new Random(seed)
      val got = Array.fill(data.length)(Double.MaxValue)
      val want = got.clone()
      // successive newest centroids, as k-means++ picks them
      (0 until 8).foreach { _ =>
        val newest = data(r.nextInt(data.length))
        KMeans.lowerMinD(data, Array(newest), 0, got, new Array[Int](data.length))
        data.indices.foreach { i =>
          val d = VecOps.l2(data(i), newest)
          if (d < want(i)) want(i) = d
        }
        assert(got.map(bits).toSeq == want.map(bits).toSeq, s"dim $dim")
      }
    }
  }

  /** The brute-force definition every scan must reproduce: the full
    * distance to every centroid, the lowest index among the minimal ones,
    * and 0 with `Double.MaxValue` when none is below it. */
  private def oracle(x: Array[Float], cents: Array[Array[Float]]): (Int, Double) = {
    var best = 0
    var bestD = Double.MaxValue
    cents.indices.foreach { c =>
      val d = VecOps.l2PartialAt(x, 0, cents(c), 0, x.length)
      if (d < bestD) { bestD = d; best = c }
    }
    (best, bestD)
  }

  /** Clustered points, some of them copies of others, and for point 0 two
    * extra points with a coordinate set to exactly 0 (see [[hardCentroids]]). */
  private def hardData(n: Int, dim: Int, seed: Long): Array[Array[Float]] = {
    val data = cloud(n, dim, seed)
    data(n - 1) = data(1).clone()
    val tie = data(0).clone()
    tie(0) = 0f
    data ++ Array(tie)
  }

  /** Trained centroids plus: duplicates of two of them, two points of the
    * data (distance 0), and two centroids at distance exactly 1 from the
    * last point, one on each side along dimension 0 (an equidistant tie). */
  private def hardCentroids(data: Array[Array[Float]], k: Int, seed: Long): Array[Array[Float]] = {
    val trained = KMeans.fit(data, k, maxIter = 2, seed = seed).centroids
    val tie = data.last
    val plus = tie.clone(); plus(0) = 1f
    val minus = tie.clone(); minus(0) = -1f
    val extra = Array(trained(0).clone(), trained(k / 2).clone(), data(2).clone(), data(3), plus, minus)
    val all = trained ++ extra
    new scala.util.Random(seed).shuffle(all.toSeq).toArray
  }

  test("assignAll matches the brute-force oracle with and without guesses, bit for bit") {
    for ((dim, seed) <- Seq((1, 31L), (5, 32L), (31, 33L), (45, 34L), (64, 35L), (129, 36L))) {
      val data = hardData(400, dim, seed)
      for (cents <- Seq(hardCentroids(data, 10, seed), Array(data(7).clone()))) {
        val k = cents.length
        val want = data.map(oracle(_, cents))
        val r = new Random(seed)
        val guesses = Seq(
          None,
          Some(Array.fill(data.length)(-1)),
          Some(Array.fill(data.length)(r.nextInt(k + 6) - 3)), // includes -3..-1 and k..k+2
          Some(Array.fill(data.length)(k)),
          Some(want.map(_._1)),
        )
        guesses.foreach { g =>
          val got = KMeans.assignAll(data, cents, g)
          data.indices.foreach { i =>
            assert(got.clusters(i) == want(i)._1, s"dim $dim k $k point $i")
            assert(bits(got.dists(i)) == bits(want(i)._2), s"dim $dim k $k point $i")
          }
          assert(got.work.counted == data.length.toLong * k * dim)
          assert(got.work.executed <= got.work.counted + k.toLong * (k - 1) / 2 * dim)
        }
      }
    }
  }

  test("lowerMinD keeps minD and the nearest seed equal to the brute-force oracle") {
    for ((dim, seed) <- Seq((1, 41L), (31, 42L), (45, 43L), (129, 44L))) {
      val data = hardData(400, dim, seed)
      val r = new Random(seed)
      // random points, a repeated seed and a copy of a point, as k-means++ may pick
      val picks = Array.fill(10)(data(r.nextInt(data.length)))
      val seeds = picks ++ Array(picks(3), data(5).clone(), data.last)
      val minD = Array.fill(data.length)(Double.MaxValue)
      val nearestSeed = new Array[Int](data.length)
      seeds.indices.foreach { c =>
        KMeans.lowerMinD(data, seeds, c, minD, nearestSeed)
        val sofar = seeds.take(c + 1)
        data.indices.foreach { i =>
          val (s, d) = oracle(data(i), sofar)
          assert(nearestSeed(i) == s, s"dim $dim seed $c point $i")
          assert(bits(minD(i)) == bits(d), s"dim $dim seed $c point $i")
        }
      }
    }
  }

  test("seeding hands Lloyd exactly the assignment assignAll gives for the seeds") {
    for ((dim, seed, k) <- Seq((31, 51L, 12), (70, 52L, 20), (3, 53L, 1))) {
      val data = hardData(500, dim, seed)
      val (seeds, a) = KMeans.seedPlusPlus(data, k, seed)
      val want = KMeans.assignAll(data, seeds)
      assert(a.clusters.toSeq == want.clusters.toSeq, s"dim $dim")
      assert(a.dists.map(bits).toSeq == want.dists.map(bits).toSeq, s"dim $dim")
      assert(a.work.counted == data.length.toLong * k * dim)
    }
  }

  test("on clustered data the triangle inequality skips most of the work") {
    // 31 dimensions: the bounded kernel never abandons below 32, so only skipping saves
    val data = cloud(3000, 31, 61)
    val res = KMeans.fit(data, 24, maxIter = 4, seed = 61)
    val add = KMeans.assignAll(data, res.centroids)
    for ((name, w) <- Seq("seeding" -> res.seeding, "lloyd" -> res.lloyd, "add" -> add.work)) {
      assert(w.counted > 0, name)
      assert(w.executed < w.counted / 2, s"$name: ${w.executed} of ${w.counted}")
    }
    assert(res.seeding.counted == 3000L * 24 * 31)
    assert(res.lloyd.counted == (res.iterations - 1) * 3000L * 24 * 31)
  }
}
