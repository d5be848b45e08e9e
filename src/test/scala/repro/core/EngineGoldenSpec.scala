package repro.core

import java.security.MessageDigest

import org.apache.spark.sql.SparkSession

import repro.{SparkSpec, TestFixtures => F}
import repro.sim.CostParams

/** Pins the simulated clock: every counted quantity and every top-K result
  * of a fixed search must reproduce the recorded values exactly. Doubles are
  * compared by bit pattern, so any change to what the engine counts, prunes
  * or merges — including the order of completed hits reaching the heaps —
  * shows up here.
  */
class EngineGoldenSpec extends SparkSpec {
  import EngineGoldenSpec._

  for ((bVec, bDim) <- grids; rotation <- rotations) {
    val key = caseKey(bVec, bDim, rotation)
    test(s"grid $key reproduces the recorded ledgers and top-K bit for bit") {
      assert(searchCase(spark, bVec, bDim, rotation) == golden(key))
    }
  }
}

object EngineGoldenSpec {
  val grids: Seq[(Int, Int)] = Seq((4, 1), (2, 2), (1, 4))
  val rotations: Seq[Rotation] = Seq(Rotation.LoadAware, Rotation.RoundRobin)
  val k = 10
  val nprobe = 8

  def caseKey(bVec: Int, bDim: Int, rotation: Rotation): String = s"${bVec}x$bDim/$rotation"

  /** Deploy `F.small` on a `bVec × bDim` plan (storage-balanced placement),
    * search its queries in 4 waves with pruning on, and render the result. */
  def searchCase(spark: SparkSession, bVec: Int, bDim: Int, rotation: Rotation): Seq[String] = {
    val (idx, store) = F.smallStore(spark, bVec, bDim)
    try {
      val cfg = EngineConfig(k = k, nprobe = nprobe, rotation = rotation, maxWaves = 4)
      render(Engine.search(spark, store, idx, F.small.queries, cfg, CostParams()))
    } finally store.unpersist()
  }

  private def bits(d: Double): String = java.lang.Long.toHexString(java.lang.Double.doubleToRawLongBits(d))

  def render(r: EngineResult): Seq[String] = {
    val s = r.report
    val topK = r.hits.map(_.map(h => s"${h.id}:${bits(h.dist)}").mkString(",")).mkString(";")
    val digest = MessageDigest.getInstance("SHA-256").digest(topK.getBytes("UTF-8"))
    Seq(
      s"nodes=${s.nNodes} queries=${s.nQueries} dimOps=${s.totalDimOps} bytes=${s.totalBytes} msgs=${s.totalMsgs}",
      s"comp=${bits(s.compSeconds)} comm=${bits(s.commSeconds)} other=${bits(s.otherSeconds)} total=${bits(s.totalSeconds)}",
      s"perNodeDimOps=${s.perNodeDimOps.mkString(",")}",
      s"pruneEntering=${r.pruneEntering.mkString(",")}",
      s"prunePruned=${r.prunePruned.mkString(",")}",
      s"perNodePeakStateBytes=${r.perNodePeakStateBytes.mkString(",")}",
      s"topK=${r.hits.map(_.length).sum} hits sha256 ${digest.map("%02x".format(_)).mkString}",
    )
  }

  /** Recorded from the engine that returned to the driver after every
    * dimension slice (one Spark job per wave position). */
  val golden: Map[String, Seq[String]] = Map(
    "4x1/LoadAware" -> Seq(
      "nodes=4 queries=24 dimOps=6807680 bytes=50300 msgs=173",
      "comp=3f3b86c0ba4a0744 comm=0 other=3f183c7cfffb3874 total=3f40caeffd246ab0",
      "perNodeDimOps=2100096,1401280,1745472,1462528",
      "pruneEntering=104834",
      "prunePruned=88130",
      "perNodePeakStateBytes=3652,3384,4172,3652",
      "topK=240 hits sha256 5ce654eb26b5dccbad73ac58adc5bc05d58cf40e33d656847c64f2055fc2d1dd",
    ),
    "4x1/RoundRobin" -> Seq(
      "nodes=4 queries=24 dimOps=6807680 bytes=50300 msgs=173",
      "comp=3f3b86c0ba4a0744 comm=0 other=3f183c7cfffb3874 total=3f40caeffd246ab0",
      "perNodeDimOps=2100096,1401280,1745472,1462528",
      "pruneEntering=104834",
      "prunePruned=88130",
      "perNodePeakStateBytes=3652,3384,4172,3652",
      "topK=240 hits sha256 5ce654eb26b5dccbad73ac58adc5bc05d58cf40e33d656847c64f2055fc2d1dd",
    ),
    "2x2/LoadAware" -> Seq(
      "nodes=4 queries=24 dimOps=4762848 bytes=524920 msgs=224",
      "comp=3f3390aef8f72e3c comm=3f30806c2637dae0 other=3f265a2c97c8bf0e total=3f479f18b589b452",
      "perNodeDimOps=1492704,1277312,996960,897568",
      "pruneEntering=104834,40933",
      "prunePruned=63901,24229",
      "perNodePeakStateBytes=104432,91400,59308,51544",
      "topK=240 hits sha256 a961b5c3adb3d8876035d07f978df60f13de3130afee8dab4cd967c6b1438a75",
    ),
    "2x2/RoundRobin" -> Seq(
      "nodes=4 queries=24 dimOps=4772224 bytes=527924 msgs=220",
      "comp=3f33e438794337e3 comm=3f2d86dfbed32036 other=3f265a2c97c8bf0e total=3f46ea5f524893c2",
      "perNodeDimOps=1517600,1233152,1080960,842208",
      "pruneEntering=104834,41226",
      "prunePruned=63608,24522",
      "perNodePeakStateBytes=93240,100912,65472,45884",
      "topK=240 hits sha256 a961b5c3adb3d8876035d07f978df60f13de3130afee8dab4cd967c6b1438a75",
    ),
    "1x4/LoadAware" -> Seq(
      "nodes=4 queries=24 dimOps=3930640 bytes=1637116 msgs=268",
      "comp=3f2e2328398a2e4e comm=3f50dea667530d7e other=3f357cbf455c1ef5 total=3f5a023b3fdb5b05",
      "perNodeDimOps=1149648,801488,892112,989088",
      "pruneEntering=104834,66254,42086,26347",
      "prunePruned=38580,24168,15739,9643",
      "perNodePeakStateBytes=83184,78432,81228,82440",
      "topK=240 hits sha256 310ddbde18ce47d7f488416901db45034b948ee55b3ff3904d103aef283eb0cf",
    ),
    "1x4/RoundRobin" -> Seq(
      "nodes=4 queries=24 dimOps=3845952 bytes=1573024 msgs=259",
      "comp=3f2dc86d0aa82133 comm=3f5021d6d77726a7 other=3f357cbf455c1ef5 total=3f593a144a23328a",
      "perNodeDimOps=1136128,794032,868944,948544",
      "pruneEntering=104834,61878,40311,27205",
      "prunePruned=42956,21567,13106,10501",
      "perNodePeakStateBytes=80928,84876,81408,82608",
      "topK=240 hits sha256 ed7b77c20956ef0fc6db4539996f5d4c348e10628a11a6aed02351b2029025bd",
    ),
  )
}
