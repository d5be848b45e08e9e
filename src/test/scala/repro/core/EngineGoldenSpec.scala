package repro.core

import java.security.MessageDigest

import org.apache.spark.sql.SparkSession

import repro.{SparkSpec, TestFixtures => F}

/** Pins the simulated clock: every counted quantity and every top-K result
  * of a fixed search must reproduce the recorded values exactly. Doubles are
  * compared by bit pattern, so any change to what the engine counts, prunes
  * or merges — including the order of completed hits reaching the heaps —
  * shows up here.
  */
class EngineGoldenSpec extends SparkSpec {
  import EngineGoldenSpec._

  for ((bVec, bDim) <- grids; balanced <- Seq(true, false)) {
    val key = caseKey(bVec, bDim, balanced)
    test(s"grid $key reproduces the recorded ledgers and top-K bit for bit") {
      assert(searchCase(spark, bVec, bDim, balanced) == golden(key))
    }
  }
}

object EngineGoldenSpec {
  val grids: Seq[(Int, Int)] = Seq((4, 1), (2, 2), (1, 4))
  val k = 10
  val nprobe = 8

  def caseKey(bVec: Int, bDim: Int, balanced: Boolean): String =
    s"${bVec}x$bDim/${if (balanced) "LoadAware" else "InOrder"}"

  /** Deploy `F.small` on a `bVec × bDim` plan (storage-balanced placement),
    * search its queries in 4 waves with pruning on — slice visit orders
    * rotated load-aware with `balanced`, in dimension order without — and
    * render the result. */
  def searchCase(spark: SparkSession, bVec: Int, bDim: Int, balanced: Boolean): Seq[String] = {
    val (idx, store) = F.smallStore(spark, bVec, bDim)
    try {
      val cfg = HarmonyConfig(nNodes = bVec * bDim, k = k, nprobe = nprobe,
        balancedLoad = balanced, maxWaves = 4)
      render(Engine.search(spark, store, idx, F.small.queries, cfg))
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

  /** The `LoadAware` cases were recorded from the engine that returned to
    * the driver after every dimension slice (one Spark job per wave
    * position); the `InOrder` cases from the one-job-per-wave engine. */
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
    "4x1/InOrder" -> Seq(
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
    "2x2/InOrder" -> Seq(
      "nodes=4 queries=24 dimOps=4322624 bytes=356252 msgs=196",
      "comp=3f3966e7115cf9cb comm=3f186a92c27b3f54 other=3f265a2c97c8bf0e total=3f45575106f01494",
      "perNodeDimOps=1938016,550752,1416672,318880",
      "pruneEntering=104834,27176",
      "prunePruned=77658,10472",
      "perNodePeakStateBytes=2812,179008,2804,101264",
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
    "1x4/InOrder" -> Seq(
      "nodes=4 queries=24 dimOps=3178544 bytes=1070356 msgs=226",
      "comp=3f35fc3b865b26d8 comm=3f48d6751e0d7cd8 other=3f357cbf455c1ef5 total=3f57497941f48fdf",
      "perNodeDimOps=1677344,638176,434816,329904",
      "pruneEntering=104834,39886,27176,20619",
      "prunePruned=64948,12710,6557,3915",
      "perNodePeakStateBytes=1728,313092,277200,239304",
      "topK=240 hits sha256 da51d84fa1bbb40131a51fac5297ef08a448be3c58441911beee366667e3341d",
    ),
  )
}
