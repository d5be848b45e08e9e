package repro.core

import java.security.MessageDigest

import org.apache.spark.sql.SparkSession

import repro.{SparkSpec, TestFixtures => F}

/** Pins the simulated clock: every counted quantity and every top-K result
  * of a fixed search must reproduce the recorded values exactly. Doubles are
  * compared by bit pattern, so any change to what the engine counts, prunes
  * or merges — including the order of completed hits reaching the heaps —
  * shows up here.
  *
  * To re-record on purpose, run `sbt "Test/runMain repro.RecordGoldens"`:
  * it prints `golden` as it would be recorded now, ready to paste over the
  * map below.
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

  /** Recorded from the one-job-per-batch engine with the doubling wave
    * schedule (`Dataflow.waveStart`). */
  val golden: Map[String, Seq[String]] = Map(
    "4x1/LoadAware" -> Seq(
      "nodes=4 queries=24 dimOps=6807680 bytes=42388 msgs=151",
      "comp=3f3b86c0ba4a0744 comm=0 other=3f170a78cbe404a6 total=3f40a4af76a18437",
      "perNodeDimOps=2100096,1401280,1745472,1462528",
      "pruneEntering=104834",
      "prunePruned=93653",
      "perNodePeakStateBytes=4960,5236,5792,4716",
      "topK=240 hits sha256 5ce654eb26b5dccbad73ac58adc5bc05d58cf40e33d656847c64f2055fc2d1dd",
    ),
    "4x1/InOrder" -> Seq(
      "nodes=4 queries=24 dimOps=6807680 bytes=42388 msgs=151",
      "comp=3f3b86c0ba4a0744 comm=0 other=3f170a78cbe404a6 total=3f40a4af76a18437",
      "perNodeDimOps=2100096,1401280,1745472,1462528",
      "pruneEntering=104834",
      "prunePruned=93653",
      "perNodePeakStateBytes=4960,5236,5792,4716",
      "topK=240 hits sha256 5ce654eb26b5dccbad73ac58adc5bc05d58cf40e33d656847c64f2055fc2d1dd",
    ),
    "2x2/LoadAware" -> Seq(
      "nodes=4 queries=24 dimOps=4789600 bytes=529408 msgs=191",
      "comp=3f3469e6c5e9a61a comm=3f31053e8bdf7a56 other=3f2601972a63b6cb total=3f4837f8737d7deb",
      "perNodeDimOps=1557440,1201984,1109568,822304",
      "pruneEntering=104834,41769",
      "prunePruned=63065,30588",
      "perNodePeakStateBytes=107780,55892,94148,27004",
      "topK=240 hits sha256 a961b5c3adb3d8876035d07f978df60f13de3130afee8dab4cd967c6b1438a75",
    ),
    "2x2/InOrder" -> Seq(
      "nodes=4 queries=24 dimOps=4053120 bytes=249644 msgs=163",
      "comp=3f3966e7115cf9ca comm=0 other=3f2601972a63b6cb total=3f4233d953476a98",
      "perNodeDimOps=1938016,403200,1416672,196928",
      "pruneEntering=104834,18754",
      "prunePruned=86080,7573",
      "perNodePeakStateBytes=3324,108532,3300,54644",
      "topK=240 hits sha256 a961b5c3adb3d8876035d07f978df60f13de3130afee8dab4cd967c6b1438a75",
    ),
    "1x4/LoadAware" -> Seq(
      "nodes=4 queries=24 dimOps=3347520 bytes=1200172 msgs=274",
      "comp=3f2a21695c3a12a1 comm=3f4aab51fdcea266 other=3f357d2659a38fde total=3f55f91fc0d7777e",
      "perNodeDimOps=996800,713808,753296,785312",
      "pruneEntering=104834,54098,28776,15368",
      "prunePruned=50736,25322,13408,4187",
      "perNodePeakStateBytes=133452,50620,70092,62276",
      "topK=240 hits sha256 51be09e047836b4abb6ad8078d9c7ad49e15dbccb1e9653b9f60d229d5116b7d",
    ),
    "1x4/InOrder" -> Seq(
      "nodes=4 queries=24 dimOps=2805632 bytes=791068 msgs=232",
      "comp=3f35fc3b865b26d7 comm=3f431bcb138d7130 other=3f357d2659a38fde total=3f546c3e01c66646",
      "perNodeDimOps=1677344,517360,300064,212560",
      "pruneEntering=104834,32335,18754,13285",
      "prunePruned=72499,13581,5469,2104",
      "perNodePeakStateBytes=2016,175380,161640,147492",
      "topK=240 hits sha256 da51d84fa1bbb40131a51fac5297ef08a448be3c58441911beee366667e3341d",
    ),
  )
}
