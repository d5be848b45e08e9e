package repro.sim

/** Analytical model of the paper's testbed (DESIGN.md → Substitutions).
  *
  * The engine executes the real distributed dataflow on Spark and *counts*
  * per-node work; this model converts the counts into times. Defaults are
  * calibrated to the paper's platform ratios: per-node compute measured in
  * "dim-ops" (one scanned dimension of one candidate) at an effective
  * 5 G dim-ops/s, an effective 1 GB/s serialized network path (raw links are
  * 100 Gb/s but intermediate-result exchange pays serialization and framing;
  * §3.1 notes the bandwidth/compute disparity makes this the bottleneck),
  * and a per-message latency that penalizes the extra round-trips
  * dimension-based partitioning introduces.
  */
final case class CostParams(
    dimOpSeconds: Double = 1.0 / 5.0e9,
    byteSeconds: Double = 2.0 / 1.0e9,
    /** per transferred candidate-batch framing/handling cost; real network
      * RTT is amortized because stages exchange one bulk message per node
      * pair (the paper's non-blocking MPI_Isend batching) */
    msgLatencySeconds: Double = 2e-6,
    stageOverheadSeconds: Double = 2e-5,
    /** client-side routing (centroid scan, prewarm) is embarrassingly
      * parallel across the client node's 56 threads and overlaps with
      * worker compute, so it is priced an order of magnitude below the
      * per-worker serial rate */
    clientDimOpSeconds: Double = 2e-11,
)

/** Per-node ledger for one pipeline stage: counted, never timed. */
final case class NodeLedger(
    var dimOps: Long = 0L,
    var bytesIn: Long = 0L,
    var bytesOut: Long = 0L,
    var msgsIn: Long = 0L,
    var msgsOut: Long = 0L,
) extends Serializable {
  def add(o: NodeLedger): NodeLedger = {
    dimOps += o.dimOps; bytesIn += o.bytesIn; bytesOut += o.bytesOut
    msgsIn += o.msgsIn; msgsOut += o.msgsOut
    this
  }
}

/** One pipeline stage (one wave × one dimension-slice position). */
final case class StageRecord(wave: Int, stagePos: Int, perNode: Array[NodeLedger])

/** Timing + accounting summary of one search batch. */
final case class SimReport(
    nNodes: Int,
    nQueries: Int,
    compSeconds: Double,
    commSeconds: Double,
    otherSeconds: Double,
    totalSeconds: Double,
    totalDimOps: Long,
    totalBytes: Long,
    totalMsgs: Long,
    perNodeDimOps: Array[Long],
) {
  def qps: Double = if (totalSeconds > 0) nQueries / totalSeconds else 0.0
  /** Std-dev of per-node dim-ops — the measured I(π). */
  def loadStddev: Double = Sim.stddev(perNodeDimOps.map(_.toDouble))
  def loadCV: Double = {
    val loads = perNodeDimOps.map(_.toDouble)
    val mean = loads.sum / loads.length
    if (mean == 0) 0.0 else loadStddev / mean
  }
}

object Sim {

  /** Population standard deviation of a per-node load vector — the paper's
    * imbalance measure I(π) (§4.2.1), both as the planner predicts it and
    * as `SimReport.loadStddev` measures it. 0 for no loads. */
  def stddev(loads: Array[Double]): Double = {
    if (loads.isEmpty) return 0.0
    val mean = loads.sum / loads.length
    math.sqrt(loads.map(l => (l - mean) * (l - mean)).sum / loads.length)
  }

  /** Convert stage ledgers into a timing report.
    *
    * Per stage and node: compute = dimOps × dimOpSeconds; comm =
    * bytesIn × byteSeconds + msgsIn × latency.
    *
    * In the overlapped (non-blocking, pipelined) regime — the paper's
    * design, where "each stage proceeds independently without waiting for
    * the previous stage" — stages flow through the cluster concurrently, so
    * the critical path is the *busiest node's total* work:
    * `max_n max(Σ comp_n, Σ comm_n)`. With `overlapComm = false` (the
    * Fig 9 pipeline ablation, `HarmonyConfig.pipeline` off) every stage is
    * a blocking barrier: `Σ_stages max_n (comp + comm)`.
    *
    * The breakdown attributes the compute critical path to `comp` and the
    * residual to `comm`; fixed per-stage scheduling cost and client-side
    * work land in `other`.
    */
  def evaluate(
      stages: Seq[StageRecord],
      params: CostParams,
      overlapComm: Boolean,
      nNodes: Int,
      nQueries: Int,
      clientDimOps: Long = 0L,
      clientBytes: Long = 0L,
  ): SimReport = {
    var comp = 0.0
    var comm = 0.0
    var other = 0.0
    var totOps = 0L
    var totBytes = 0L
    var totMsgs = 0L
    val perNodeOps = new Array[Long](nNodes)
    val nodeComp = new Array[Double](nNodes)
    val nodeComm = new Array[Double](nNodes)

    stages.foreach { st =>
      require(st.perNode.length == nNodes, s"ledger has ${st.perNode.length} nodes, expected $nNodes")
      var stageComp = 0.0
      var stageTime = 0.0
      var n = 0
      while (n < nNodes) {
        val l = st.perNode(n)
        val c = l.dimOps * params.dimOpSeconds
        val m = l.bytesIn * params.byteSeconds + l.msgsIn * params.msgLatencySeconds
        nodeComp(n) += c
        nodeComm(n) += m
        if (c > stageComp) stageComp = c
        if (c + m > stageTime) stageTime = c + m
        perNodeOps(n) += l.dimOps
        totOps += l.dimOps
        totBytes += l.bytesIn
        totMsgs += l.msgsIn
        n += 1
      }
      if (!overlapComm) {
        comp += stageComp
        comm += math.max(0.0, stageTime - stageComp)
      }
      other += params.stageOverheadSeconds
    }
    if (overlapComm && stages.nonEmpty) {
      comp = nodeComp.max
      val core = (0 until nNodes).map(n => math.max(nodeComp(n), nodeComm(n))).max
      comm = math.max(0.0, core - comp)
    }

    val clientSeconds = clientDimOps * params.clientDimOpSeconds + clientBytes * params.byteSeconds
    other += clientSeconds
    totOps += clientDimOps
    totBytes += clientBytes

    val total = comp + comm + other
    SimReport(nNodes, nQueries, comp, comm, other, total, totOps, totBytes, totMsgs, perNodeOps)
  }
}
