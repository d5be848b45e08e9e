package repro.ivf

import java.util.Random

import org.scalatest.funsuite.AnyFunSuite

import repro.linalg.VecOps

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
      assert(assign(i) == VecOps.nearest(wellSeparated(i), res.centroids))
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
        assert(plain.clusters(i) == VecOps.nearest(data(i), cents))
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
        KMeans.lowerMinD(data, newest, got)
        data.indices.foreach { i =>
          val d = VecOps.l2(data(i), newest)
          if (d < want(i)) want(i) = d
        }
        assert(got.map(bits).toSeq == want.map(bits).toSeq, s"dim $dim")
      }
    }
  }
}
