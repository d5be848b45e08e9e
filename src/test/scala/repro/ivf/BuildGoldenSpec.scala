package repro.ivf

import java.security.MessageDigest

import org.apache.spark.sql.SparkSession

import repro.SparkSpec
import repro.vectors.{GenConfig, VectorDataset, VectorGen}

/** Pins index build: the trained centroids, the Lloyd iteration count, the
  * inertia and the inverted lists of two fixed datasets must reproduce the
  * recorded values bit for bit. Every simulated metric depends on them, so
  * a faster build is acceptable only if it leaves these unchanged.
  *
  * Both datasets have more than 32 dimensions and a dimension count that is
  * not a multiple of 32, so the bounded kernels both test their bound and
  * run their tail. `k-means` on `b` and `c` trains on a sample
  * (`n > sampleSize`). `c`'s clusters are well separated, so the
  * triangle-inequality skips in seeding, Lloyd and Add fire on most
  * (point, centroid) pairs; its values were recorded before those skips
  * existed.
  *
  * To re-record on purpose, run `sbt "Test/runMain repro.RecordGoldens"`:
  * it prints `goldenFit` and `goldenIndex` as they would be recorded now,
  * ready to paste over the maps below.
  */
class BuildGoldenSpec extends SparkSpec {
  import BuildGoldenSpec._

  for ((name, ds, k, sampleSize) <- fitCases) {
    test(s"KMeans.fit on $name reproduces the recorded centroids, iterations and inertia") {
      assert(fitCase(ds, k, sampleSize) == goldenFit(name))
    }
  }

  for ((name, ds, k, _) <- fitCases) {
    test(s"IVFIndex.build on $name reproduces the recorded centroids and inverted lists") {
      assert(indexCase(spark, ds, k) == goldenIndex(name))
    }
  }
}

object BuildGoldenSpec {
  private val a: VectorDataset = VectorGen.generate(GenConfig(
    name = "golden-a", n = 3000, dim = 45, nQueries = 1, nGenClusters = 12,
    decayRate = 2.0, seed = 31))
  private val b: VectorDataset = VectorGen.generate(GenConfig(
    name = "golden-b", n = 5000, dim = 70, nQueries = 1, nGenClusters = 20,
    decayRate = 0.5, radiusSpread = 0.9, seed = 32))
  private val c: VectorDataset = VectorGen.generate(GenConfig(
    name = "golden-c", n = 6000, dim = 129, nQueries = 1, nGenClusters = 32,
    centerScale = 4.0, seed = 33))

  /** (name, dataset, k, k-means sample size) */
  val fitCases: Seq[(String, VectorDataset, Int, Int)] = Seq(
    ("golden-a", a, 24, 20000),
    ("golden-b", b, 40, 1500),
    ("golden-c", c, 64, 4000),
  )

  def fitCase(ds: VectorDataset, k: Int, sampleSize: Int): String =
    renderFit(KMeans.fit(ds.data, k, seed = ds.config.seed, sampleSize = sampleSize))

  def indexCase(spark: SparkSession, ds: VectorDataset, k: Int): String =
    renderIndex(IVFIndex.build(spark, ds, k, seed = ds.config.seed)._1)

  private def sha(update: MessageDigest => Unit): String = {
    val md = MessageDigest.getInstance("SHA-256")
    update(md)
    md.digest().map("%02x".format(_)).mkString
  }

  private def putInt(md: MessageDigest, v: Int): Unit =
    (0 until 4).foreach(i => md.update((v >>> (8 * i)).toByte))

  private def putLong(md: MessageDigest, v: Long): Unit =
    (0 until 8).foreach(i => md.update((v >>> (8 * i)).toByte))

  def centroidsSha(cs: Array[Array[Float]]): String = sha { md =>
    cs.foreach { c => putInt(md, c.length); c.foreach(f => putInt(md, java.lang.Float.floatToRawIntBits(f))) }
  }

  def listIdsSha(lists: Array[Array[Long]]): String = sha { md =>
    lists.foreach { l => putInt(md, l.length); l.foreach(putLong(md, _)) }
  }

  def renderFit(r: KMeans.Result): String =
    s"centroids=${r.centroids.length} sha256 ${centroidsSha(r.centroids)} iterations=${r.iterations} " +
      s"inertia=${java.lang.Long.toHexString(java.lang.Double.doubleToRawLongBits(r.inertia))}"

  def renderIndex(idx: IVFIndex): String =
    s"centroids=${idx.nlist} sha256 ${centroidsSha(idx.centroids)} lists sha256 ${listIdsSha(idx.listIds)}"

  /** Recorded from the build that scanned every centroid in full. */
  val goldenFit: Map[String, String] = Map(
    "golden-a" -> ("centroids=24 sha256 3ea421ed4f9c86739fa3e3247990bbcbc51127afa7ca812cff7b5cda29f81bdf " +
      "iterations=10 inertia=40f690701c5e68fb"),
    "golden-b" -> ("centroids=40 sha256 837e64b35ab4053814fbf6f32fbdd291af6ed44a2950f198e559698af5e88585 " +
      "iterations=10 inertia=41025eaba4ba0a8c"),
    "golden-c" -> ("centroids=64 sha256 39d0919efcc6cc4a83115258f3a4d7be43393f61b239361e9ba245f405f8b4fd " +
      "iterations=5 inertia=411d595c350b0b0f"),
  )

  val goldenIndex: Map[String, String] = Map(
    "golden-a" -> ("centroids=24 sha256 907872032d987a0418272290b4116dc737091314b49b9de46d46e29d3327e4a4 " +
      "lists sha256 fae7df2cd5ba0a727600528913333a7cc44a0b989f7c11c017a1aef9278bc4b4"),
    "golden-b" -> ("centroids=40 sha256 a21a8c4c054606ff77b0ec0d54bf44040ba92dfdd1b70b413f3806c253dbc415 " +
      "lists sha256 f935eed33db32d97a4b026840bc2dabc247cb5978c6fc14ec8c30ae07de0b22f"),
    "golden-c" -> ("centroids=64 sha256 25432c94de884f9f04ccdc48257236c5880487193d9508a65822fc20c5d45dc2 " +
      "lists sha256 305120a3283df5b90f85d25b3ddbb06d6eb876c867d88daddda666620ccbf319"),
  )
}
