package repro.perfbench

import repro.core.EngineResult
import repro.linalg.Hit

/** Correctness gate applied to every executed batch. */
object Gate {

  /** `EngineSpec`'s comparison rule: the same number of hits, the same
    * distance at every rank (within 1e-6), and ids that differ only among
    * exact-distance ties. */
  def sameTopK(a: Array[Hit], b: Array[Hit]): Boolean =
    a.length == b.length &&
      a.indices.forall(i => math.abs(a(i).dist - b(i).dist) < 1e-6) && {
        val ids = b.map(_.id).toSet
        a.forall(h => ids.contains(h.id) || b.exists(o => math.abs(o.dist - h.dist) < 1e-6))
      }

  /** Every counted quantity of one execution, doubles by bit pattern: two
    * executions of the same batch must produce the same string. */
  def fingerprint(r: EngineResult): String = {
    val s = r.report
    def bits(d: Double): String = java.lang.Long.toHexString(java.lang.Double.doubleToRawLongBits(d))
    Seq(
      Seq(s.nNodes, s.nQueries, s.totalDimOps, s.totalBytes, s.totalMsgs).mkString(","),
      Seq(s.compSeconds, s.commSeconds, s.otherSeconds, s.totalSeconds).map(bits).mkString(","),
      s.perNodeDimOps.mkString(","),
      r.pruneEntering.mkString(","),
      r.prunePruned.mkString(","),
      r.perNodePeakStateBytes.mkString(","),
    ).mkString("|")
  }
}
