package repro.vectors

import org.scalatest.funsuite.AnyFunSuite

import repro.linalg.TestVecOps

/** Query workloads of the skew experiments (§6.2.2): `VectorGen.genQueries`
  * with a Zipf exponent over the latent clusters, 0 for the uniform
  * workload up to 3 for the most skewed. */
class WorkloadsSpec extends AnyFunSuite {

  private val cfg = GenConfig(name = "wl-test", n = 1000, dim = 16, nQueries = 10,
    nGenClusters = 8, seed = 21)

  test("queries returns the requested count and dimension") {
    val qs = VectorGen.genQueries(cfg, 37, 1.5, seed = 991L)
    assert(qs.length == 37)
    assert(qs.forall(_.length == cfg.dim))
  }

  test("higher skew level concentrates load (lower entropy)") {
    val centers = VectorGen.genCenters(cfg)
    def entropy(qs: Array[Array[Float]]): Double = {
      val h = new Array[Double](cfg.nGenClusters)
      qs.foreach(q => h(TestVecOps.nearest(q, centers)) += 1)
      val ps = h.map(_ / qs.length).filter(_ > 0)
      -ps.map(p => p * math.log(p)).sum
    }
    val levels = Seq(0.0, 1.5, 3.0).map(a => entropy(VectorGen.genQueries(cfg, 300, a, seed = 991L)))
    assert(levels(1) < levels(0))
    assert(levels(2) < levels(1))
  }
}
