package repro.vectors

import org.scalatest.funsuite.AnyFunSuite

import repro.linalg.VecOps

class WorkloadsSpec extends AnyFunSuite {

  private val cfg = GenConfig(name = "wl-test", n = 1000, dim = 16, nQueries = 10,
    nGenClusters = 8, seed = 21)

  test("alphaFor maps [0,1] onto [0,3]") {
    assert(Workloads.alphaFor(0.0) == 0.0)
    assert(Workloads.alphaFor(1.0) == 3.0)
    assert(Workloads.alphaFor(0.5) == 1.5)
  }

  test("alphaFor rejects out-of-range levels") {
    intercept[IllegalArgumentException](Workloads.alphaFor(-0.1))
    intercept[IllegalArgumentException](Workloads.alphaFor(1.1))
  }

  test("queries returns the requested count and dimension") {
    val qs = Workloads.queries(cfg, 37, 0.5)
    assert(qs.length == 37)
    assert(qs.forall(_.length == cfg.dim))
  }

  test("higher skew level concentrates load (lower entropy)") {
    val centers = VectorGen.genCenters(cfg)
    def entropy(qs: Array[Array[Float]]): Double = {
      val h = new Array[Double](cfg.nGenClusters)
      qs.foreach(q => h(VecOps.nearest(q, centers)) += 1)
      val ps = h.map(_ / qs.length).filter(_ > 0)
      -ps.map(p => p * math.log(p)).sum
    }
    val levels = Seq(0.0, 0.5, 1.0).map(l => entropy(Workloads.queries(cfg, 300, l)))
    assert(levels(1) < levels(0))
    assert(levels(2) < levels(1))
  }
}
