package repro.vectors

import org.scalatest.funsuite.AnyFunSuite

class DatasetsSpec extends AnyFunSuite {

  test("registry lists exactly the paper's ten datasets") {
    assert(Datasets.all.size == 10)
    assert(Datasets.small8.size == 8)
    assert(Datasets.big2.size == 2)
    assert(Datasets.all.map(_.name).toSet == Set(
      "StarLightCurves", "Msong", "Sift1M", "Deep1M", "Word2vec",
      "HandOutlines", "Glove1.2m", "Glove2.2m", "SpaceV1B", "Sift1B"))
  }

  test("dataset names are unique with unique seeds") {
    assert(Datasets.all.map(_.name).distinct.size == 10)
    assert(Datasets.all.map(_.seed).distinct.size == 10)
  }

  test("paper-scale metadata matches Table 2") {
    val sift = Datasets.sift1m
    assert(sift.paperSize == 1000000L && sift.paperDim == 128 && sift.paperQueries == 10000)
    val hand = Datasets.handOutlines
    assert(hand.paperSize == 1000000L && hand.paperDim == 2709 && hand.paperQueries == 370)
    val star = Datasets.starLightCurves
    assert(star.paperSize == 823600L && star.paperDim == 1024)
  }

  test("billion-scale stand-ins are the largest reproduction sets") {
    val bigMin = Datasets.big2.map(_.n).min
    assert(Datasets.small8.forall(_.n <= bigMin))
  }

  test("relative dimension ordering follows the paper (Hand > Star > rest)") {
    val dims = Datasets.all.map(c => c.name -> c.dim).toMap
    assert(dims("HandOutlines") > dims("StarLightCurves"))
    assert(Datasets.small8.forall(c => c.dim <= dims("HandOutlines")))
  }

  test("time-series sets decay faster than text sets (pruning property class)") {
    val byName = Datasets.all.map(c => c.name -> c).toMap
    assert(byName("StarLightCurves").decayRate > byName("Sift1M").decayRate)
    assert(byName("Sift1M").decayRate > byName("Glove1.2m").decayRate)
    assert(byName("HandOutlines").decayRate > byName("Glove2.2m").decayRate)
  }

  test("load materializes the configured shape and memoizes") {
    val small = Datasets.sift1m.copy(name = "Sift1M-mini", n = 500, nQueries = 5)
    val a = Datasets.load(small)
    assert(a.n == 500 && a.dim == small.dim && a.queries.length == 5)
    val b = Datasets.load(small)
    assert(a eq b)
    Datasets.clearCache()
    val c = Datasets.load(small)
    assert(!(a eq c))
  }

  test("Deep1M stand-in is normalized, others are not") {
    assert(Datasets.deep1m.normalize)
    assert(!Datasets.sift1m.normalize)
  }

  test("query sets are smaller than base sets (Table 2 property)") {
    assert(Datasets.all.forall(c => c.nQueries < c.n))
  }
}
