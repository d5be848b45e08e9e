package repro.vectors

import org.scalatest.funsuite.AnyFunSuite

import repro.linalg.{TestVecOps, VecOps}

class VectorGenSpec extends AnyFunSuite {

  private val cfg = GenConfig(name = "gen-test", n = 2000, dim = 24, nQueries = 50,
    nGenClusters = 8, decayRate = 2.0, seed = 11)

  test("generation is deterministic in the config") {
    val a = VectorGen.generate(cfg)
    val b = VectorGen.generate(cfg)
    assert(a.data.zip(b.data).forall { case (x, y) => x.sameElements(y) })
    assert(a.queries.zip(b.queries).forall { case (x, y) => x.sameElements(y) })
  }

  test("different seeds give different data") {
    val a = VectorGen.generate(cfg)
    val b = VectorGen.generate(cfg.copy(seed = 12))
    assert(!a.data(0).sameElements(b.data(0)))
  }

  test("dataset has the configured shape") {
    val ds = VectorGen.generate(cfg)
    assert(ds.n == cfg.n)
    assert(ds.data.forall(_.length == cfg.dim))
    assert(ds.queries.length == cfg.nQueries)
    assert(ds.queries.forall(_.length == cfg.dim))
    assert(ds.ids.toSeq == (0 until cfg.n).map(_.toLong))
  }

  test("dataBytes reflects float32 payload") {
    val ds = VectorGen.generate(cfg)
    assert(ds.dataBytes == cfg.n.toLong * cfg.dim * 4)
  }

  test("normalize=true yields unit vectors") {
    val ds = VectorGen.generate(cfg.copy(name = "gen-norm", normalize = true))
    ds.data.take(100).foreach(v => assert(math.abs(VecOps.norm(v) - 1.0) < 1e-4))
  }

  test("stdProfile is non-increasing and starts at 1") {
    val p = VectorGen.stdProfile(32, 3.0)
    assert(math.abs(p(0) - 1.0) < 1e-12)
    p.sliding(2).foreach(w => assert(w(1) <= w(0)))
  }

  test("stdProfile with decay 0 is flat") {
    assert(VectorGen.stdProfile(16, 0.0).forall(x => math.abs(x - 1.0) < 1e-12))
  }

  test("decayed data concentrates empirical variance in leading dims") {
    val flat = VectorGen.generate(cfg.copy(name = "gen-flat", decayRate = 0.0))
    val dec = VectorGen.generate(cfg.copy(name = "gen-dec", decayRate = 6.0))
    def varFracFirstHalf(data: Array[Array[Float]], dim: Int): Double = {
      val v = new Array[Double](dim)
      val mean = new Array[Double](dim)
      data.foreach(row => (0 until dim).foreach(j => mean(j) += row(j)))
      (0 until dim).foreach(j => mean(j) /= data.length)
      data.foreach(row => (0 until dim).foreach(j => v(j) += math.pow(row(j) - mean(j), 2)))
      v.take(dim / 2).sum / v.sum
    }
    assert(varFracFirstHalf(dec.data, cfg.dim) > 0.85)
    assert(varFracFirstHalf(flat.data, cfg.dim) < 0.65)
  }

  test("baseCluster round-robins over gen clusters") {
    assert(VectorGen.baseCluster(cfg, 0) == 0)
    assert(VectorGen.baseCluster(cfg, 8) == 0)
    assert(VectorGen.baseCluster(cfg, 9) == 1)
  }

  test("zipfRanks is a normalized, non-increasing pmf") {
    val p = VectorGen.zipfRanks(10, 1.2)
    assert(math.abs(p.sum - 1.0) < 1e-9)
    p.sliding(2).foreach(w => assert(w(1) <= w(0)))
  }

  test("zipfRanks with alpha 0 is uniform") {
    val p = VectorGen.zipfRanks(5, 0.0)
    assert(p.forall(x => math.abs(x - 0.2) < 1e-12))
  }

  test("sampleDiscrete respects pmf boundaries") {
    val pmf = Array(0.5, 0.3, 0.2)
    assert(VectorGen.sampleDiscrete(pmf, 0.1) == 0)
    assert(VectorGen.sampleDiscrete(pmf, 0.6) == 1)
    assert(VectorGen.sampleDiscrete(pmf, 0.95) == 2)
    assert(VectorGen.sampleDiscrete(pmf, 0.999999) == 2)
  }

  test("genQueries is deterministic in (cfg, alpha, seed)") {
    val a = VectorGen.genQueries(cfg, 20, 1.0, seed = 3)
    val b = VectorGen.genQueries(cfg, 20, 1.0, seed = 3)
    assert(a.zip(b).forall { case (x, y) => x.sameElements(y) })
  }

  test("skewed queries concentrate on fewer latent clusters than uniform") {
    val centers = VectorGen.genCenters(cfg)
    def clusterEntropy(qs: Array[Array[Float]]): Double = {
      val counts = new Array[Double](cfg.nGenClusters)
      qs.foreach(q => counts(TestVecOps.nearest(q, centers)) += 1)
      val ps = counts.map(_ / qs.length).filter(_ > 0)
      -ps.map(p => p * math.log(p)).sum
    }
    val uni = VectorGen.genQueries(cfg, 200, 0.0, seed = 4)
    val skew = VectorGen.genQueries(cfg, 200, 3.0, seed = 4)
    assert(clusterEntropy(skew) < clusterEntropy(uni))
  }

  test("config validation rejects degenerate shapes") {
    intercept[IllegalArgumentException](GenConfig(name = "bad", n = 0, dim = 4, nQueries = 1))
    intercept[IllegalArgumentException](GenConfig(name = "bad", n = 4, dim = 0, nQueries = 1))
  }
}
