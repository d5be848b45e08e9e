package repro.baselines

import repro.ivf.IVFIndex
import repro.linalg.Hit
import repro.sim.{CostParams, NodeLedger, Sim, SimReport, StageRecord}

/** Single-node IVF-Flat comparator (the paper's Faiss baseline).
  *
  * Runs the exhaustive nprobe search of [[IVFIndex]] for the whole batch on
  * one simulated node and prices the counted dim-ops through the same
  * timing model as the distributed modes, so QPS ratios are apples-to-apples.
  */
object Faiss {

  final case class FaissResult(hits: Array[Array[Hit]], report: SimReport)

  def run(index: IVFIndex, queries: Array[Array[Float]], k: Int, nprobe: Int,
          params: CostParams): FaissResult = {
    var ops = 0L
    val hits = queries.map { q =>
      val (hs, dimOps) = index.search(q, k, nprobe)
      ops += dimOps
      hs
    }
    val ledger = NodeLedger(dimOps = ops)
    // one stage, one node, no communication: both regimes agree
    val report = Sim.evaluate(
      Seq(StageRecord(0, 0, Array(ledger))),
      params, overlapComm = true, nNodes = 1, nQueries = queries.length)
    FaissResult(hits, report)
  }
}
