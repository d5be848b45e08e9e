package repro.sim

import org.scalatest.funsuite.AnyFunSuite

class SimSpec extends AnyFunSuite {

  private val params = CostParams(
    dimOpSeconds = 1e-9, byteSeconds = 1e-9, msgLatencySeconds = 1e-6,
    stageOverheadSeconds = 1e-4, clientDimOpSeconds = 1e-9)

  private def ledger(ops: Long = 0, bytesIn: Long = 0, msgsIn: Long = 0): NodeLedger =
    NodeLedger(dimOps = ops, bytesIn = bytesIn, msgsIn = msgsIn)

  test("empty stage list yields only client time") {
    val r = Sim.evaluate(Seq.empty, params, overlapComm = true, nNodes = 2, nQueries = 10,
      clientDimOps = 1000)
    assert(r.compSeconds == 0.0 && r.commSeconds == 0.0)
    assert(math.abs(r.otherSeconds - 1000e-9) < 1e-15)
  }

  test("single balanced stage: comp is the per-node time") {
    val st = StageRecord(0, 0, Array(ledger(ops = 1000000), ledger(ops = 1000000)))
    val r = Sim.evaluate(Seq(st), params, overlapComm = true, 2, 10)
    assert(math.abs(r.compSeconds - 1e-3) < 1e-12)
  }

  test("makespan: stage compute is the max over nodes, not the sum") {
    val st = StageRecord(0, 0, Array(ledger(ops = 2000000), ledger(ops = 500000)))
    val r = Sim.evaluate(Seq(st), params, overlapComm = true, 2, 10)
    assert(math.abs(r.compSeconds - 2e-3) < 1e-12)
  }

  test("overlapped comm hides under compute") {
    val st = StageRecord(0, 0, Array(ledger(ops = 1000000, bytesIn = 500000)))
    val r = Sim.evaluate(Seq(st), params, overlapComm = true, 1, 10)
    assert(r.commSeconds == 0.0) // 0.5ms comm < 1ms comp, overlapped
  }

  test("overlapped comm surfaces only the excess over compute") {
    val st = StageRecord(0, 0, Array(ledger(ops = 1000000, bytesIn = 3000000)))
    val r = Sim.evaluate(Seq(st), params, overlapComm = true, 1, 10)
    assert(math.abs(r.commSeconds - 2e-3) < 1e-12) // 3ms comm - 1ms comp
  }

  test("blocking mode adds comm and compute") {
    val st = StageRecord(0, 0, Array(ledger(ops = 1000000, bytesIn = 1000000)))
    val r = Sim.evaluate(Seq(st), params, overlapComm = false, 1, 10)
    assert(math.abs((r.compSeconds + r.commSeconds) - 2e-3) < 1e-12)
  }

  test("message latency is charged per incoming message") {
    val st = StageRecord(0, 0, Array(ledger(msgsIn = 1000)))
    val r = Sim.evaluate(Seq(st), params, overlapComm = true, 1, 10)
    assert(math.abs(r.commSeconds - 1e-3) < 1e-12)
  }

  test("pipelined stages overlap: alternating hot nodes do not serialize") {
    // stage 1 busies node 0, stage 2 busies node 1 — a pipelined engine
    // finishes in ~one node's total time, a barrier engine in the sum
    val sts = Seq(
      StageRecord(0, 0, Array(ledger(ops = 2000000), ledger())),
      StageRecord(0, 1, Array(ledger(), ledger(ops = 2000000))))
    val overlapped = Sim.evaluate(sts, params, overlapComm = true, 2, 10)
    assert(math.abs(overlapped.compSeconds - 2e-3) < 1e-12)
    val barrier = Sim.evaluate(sts, params, overlapComm = false, 2, 10)
    assert(math.abs(barrier.compSeconds - 4e-3) < 1e-12)
  }

  test("stage overhead accrues per stage into other") {
    val sts = Seq.tabulate(5)(i => StageRecord(i, i, Array(ledger(ops = 1))))
    val r = Sim.evaluate(sts, params, overlapComm = true, 1, 10)
    assert(math.abs(r.otherSeconds - 5e-4) < 1e-12)
  }

  test("totals aggregate ops, bytes and msgs across stages") {
    val sts = Seq(
      StageRecord(0, 0, Array(ledger(ops = 100, bytesIn = 10, msgsIn = 1), ledger(ops = 50))),
      StageRecord(0, 1, Array(ledger(ops = 25), ledger(ops = 25, bytesIn = 5, msgsIn = 2))))
    val r = Sim.evaluate(sts, params, overlapComm = true, 2, 10)
    assert(r.totalDimOps == 200)
    assert(r.totalBytes == 15)
    assert(r.totalMsgs == 3)
    assert(r.perNodeDimOps.toSeq == Seq(125L, 75L))
  }

  test("qps is queries over total seconds") {
    val st = StageRecord(0, 0, Array(ledger(ops = 1000000)))
    val r = Sim.evaluate(Seq(st), params.copy(stageOverheadSeconds = 0), overlapComm = true, 1, 50)
    assert(math.abs(r.qps - 50 / 1e-3) < 1e-6)
  }

  test("loadStddev is zero for equal loads and positive for skew") {
    val bal = Sim.evaluate(Seq(StageRecord(0, 0, Array(ledger(ops = 10), ledger(ops = 10)))),
      params, overlapComm = true, 2, 1)
    assert(bal.loadStddev == 0.0)
    val skew = Sim.evaluate(Seq(StageRecord(0, 0, Array(ledger(ops = 20), ledger(ops = 0)))),
      params, overlapComm = true, 2, 1)
    assert(skew.loadStddev > 0.0)
    assert(math.abs(skew.loadCV - 1.0) < 1e-12)
  }

  test("stddev of a uniform load vector is zero") {
    assert(Sim.stddev(Array(5.0, 5.0, 5.0)) == 0.0)
  }

  test("stddev matches a hand-computed case") {
    // loads 2,4,4,4,5,5,7,9 → mean 5, variance 4, std 2 (population)
    assert(math.abs(Sim.stddev(Array(2, 4, 4, 4, 5, 5, 7, 9).map(_.toDouble)) - 2.0) < 1e-12)
  }

  test("stddev of empty input is zero") {
    assert(Sim.stddev(Array.empty) == 0.0)
  }

  private def loads(ops: Long*): SimReport =
    SimReport(ops.length, 1, 0, 0, 0, 0, ops.sum, 0, 0, ops.toArray)

  test("loadCV is scale-invariant") {
    assert(math.abs(loads(1, 2, 3).loadCV - loads(10, 20, 30).loadCV) < 1e-12)
  }

  test("loadCV of all-zero loads is zero") {
    assert(loads(0, 0).loadCV == 0.0)
  }

  test("ledger add accumulates all fields") {
    val a = NodeLedger(1, 2, 3)
    a.add(NodeLedger(10, 20, 30))
    assert(a == NodeLedger(11, 22, 33))
  }

  test("mismatched ledger width is rejected") {
    val st = StageRecord(0, 0, Array(ledger()))
    intercept[IllegalArgumentException](Sim.evaluate(Seq(st), params, overlapComm = true, 2, 1))
  }

  test("client bytes are priced into other") {
    val r = Sim.evaluate(Seq.empty, params, overlapComm = true, 1, 1, clientBytes = 1000000)
    assert(math.abs(r.otherSeconds - 1e-3) < 1e-12)
  }

  test("default CostParams model a compute-rich, bandwidth-poor cluster") {
    val p = CostParams()
    // effective network byte time exceeds per-dim compute time (the paper's
    // bandwidth/compute disparity, §1)
    assert(p.byteSeconds > p.dimOpSeconds)
  }
}
