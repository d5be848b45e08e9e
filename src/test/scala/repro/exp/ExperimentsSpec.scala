package repro.exp

import repro.SparkSpec
import repro.vectors.GenConfig

/** The experiment harness at miniature scale: every table/figure function
  * must produce well-formed, shape-correct output.
  */
class ExperimentsSpec extends SparkSpec {

  private val tinyA = GenConfig(name = "exp-tiny-a", n = 3000, dim = 32, nQueries = 16,
    nGenClusters = 16, decayRate = 3.0, seed = 61)
  private val tinyB = GenConfig(name = "exp-tiny-b", n = 3000, dim = 32, nQueries = 16,
    nGenClusters = 16, decayRate = 0.0, seed = 62)
  private val tiny = Seq(tinyA, tinyB)

  test("registry names are unique") {
    val names = Experiments.Artifacts.all.map(_.name)
    assert(names.distinct == names)
  }

  test("Run selects artifacts by name and rejects an unknown one, listing the known ones") {
    assert(repro.jobs.Run.select(Nil) == Experiments.Artifacts.all)
    assert(repro.jobs.Run.select(Seq("fig9", "table3")) ==
      Seq(Experiments.Artifacts.fig9, Experiments.Artifacts.table3))
    val e = intercept[IllegalArgumentException](repro.jobs.Run.select(Seq("table3", "fig99")))
    assert(e.getMessage.contains("unknown artifact fig99"))
    Experiments.Artifacts.all.foreach(a => assert(e.getMessage.contains(a.name)))
  }

  test("nlistFor scales with dataset size within bounds") {
    assert(Experiments.nlistFor(1000) == 16)
    assert(Experiments.nlistFor(60000) == 256)
    assert(Experiments.nlistFor(30000) == 150)
  }

  test("table2 lists all ten paper datasets with scaled sizes") {
    val rows = Experiments.table2()
    assert(rows.size == 10)
    rows.foreach { r =>
      assert(r.reproSize <= r.paperSize)
      assert(r.reproQ <= r.paperQ)
    }
    val t = Experiments.table2Render(rows)
    assert(t.render.contains("Sift1M"))
  }

  test("table3 yields 4 monotone ratios per dataset starting at zero") {
    val rows = Experiments.table3(spark, tiny, nprobe = 8)
    assert(rows.size == 2)
    rows.foreach { r =>
      assert(r.ratios.length == 4)
      assert(r.ratios.head == 0.0)
      r.ratios.toSeq.sliding(2).foreach(w => assert(w(1) >= w(0) - 1e-12))
      assert(r.avg >= 0.0 && r.avg <= 1.0)
    }
    // decayed dataset prunes more on average
    assert(rows(0).avg > rows(1).avg)
    assert(Experiments.table3Render(rows).render.contains("exp-tiny-a"))
  }

  test("table4: distributed per-node index is a fraction of Faiss's") {
    val rows = Experiments.table4(spark, Seq(tinyA))
    val r = rows.head
    assert(r.vector < r.faiss / 2)
    assert(r.dimension >= r.vector) // accumulator overhead
    assert(r.harmony <= math.max(r.vector, r.dimension) * 2)
    assert(Experiments.table4Render(rows).render.nonEmpty)
  }

  test("table5: peak memory orders vector <= harmony <= dimension (roughly)") {
    val rows = Experiments.table5(spark, Seq(tinyA))
    val r = rows.head
    assert(r.vector > 0 && r.harmony > 0 && r.dimension > 0)
    assert(r.dimension >= r.vector, s"dim ${r.dimension} < vec ${r.vector}")
    assert(Experiments.table5Render(rows).render.nonEmpty)
  }

  test("fig6 produces recall in [0,1] and positive speedups") {
    val curve = Experiments.fig6(spark, tinyA, Seq(2, 8))
    assert(curve.points.size == 2)
    curve.points.foreach { p =>
      assert(p.recall >= 0 && p.recall <= 1)
      assert(p.faissQps > 0 && p.speedupHarmony > 0)
    }
    // recall grows with nprobe
    assert(curve.points(1).recall >= curve.points(0).recall)
    assert(Experiments.fig6Render(Seq(curve)).render.contains("exp-tiny-a"))
  }

  test("fig7 covers all skew levels with all four systems") {
    val curve = Experiments.fig7(spark, tinyB, Seq(0.0, 1.0), nprobe = 8)
    assert(curve.points.size == 2)
    curve.points.foreach { p =>
      assert(p.vectorQps > 0 && p.dimensionQps > 0 && p.harmonyQps > 0 && p.auncelQps > 0)
    }
    // skew raises the measured load variance under vector placement
    assert(curve.points(1).loadVariance > curve.points(0).loadVariance)
    assert(Experiments.fig7Render(Seq(curve)).render.nonEmpty)
  }

  test("fig8 breakdown: vector comm below dimension comm") {
    val rows = Experiments.fig8(spark, Seq(tinyA), nprobe = 8)
    assert(rows.size == 3)
    val byMode = rows.map(r => r.mode -> r).toMap
    assert(byMode("Harmony-vector").commSec <= byMode("Harmony-dimension").commSec)
    assert(rows.forall(r => r.compSec > 0))
    assert(Experiments.fig8Render(rows).render.nonEmpty)
  }

  test("fig9 ablation produces positive gains") {
    val rows = Experiments.fig9(spark, Seq(tinyA), nprobe = 8, skewLevel = 0.6)
    val r = rows.head
    assert(r.fullQps > 0)
    assert(r.balancedGain > 0 && r.pipelineGain > 0 && r.pruningGain > 0)
    assert(Experiments.fig9Render(rows).render.nonEmpty)
  }

  test("fig10 reports build stages for all four methods") {
    val rows = Experiments.fig10(spark, Seq(tinyA))
    assert(rows.map(_.method).toSet == Set("Faiss", "Vector", "Dimension", "Harmony"))
    val faiss = rows.find(_.method == "Faiss").get
    assert(faiss.preAssignMs == 0)
    rows.filterNot(_.method == "Faiss").foreach(r => assert(r.preAssignMs >= 0))
    // train/add identical across methods (shared clustering)
    assert(rows.map(r => (r.trainMs, r.addMs)).distinct.size == 1)
    assert(Experiments.fig10Render(rows).render.nonEmpty)
  }

  test("fig11a sweeps the dim x size grid") {
    val rows = Experiments.fig11a(spark, Seq(16), Seq(2000), nprobe = 4)
    assert(rows.size == 1)
    assert(rows.head.harmonySpeedup > 0)
    assert(Experiments.fig11aRender(rows).render.nonEmpty)
  }

  test("fig11b reports one row per node count") {
    val rows = Experiments.fig11b(spark, tinyA, Seq(2, 4), nprobe = 8)
    assert(rows.map(_.nNodes) == Seq(2, 4))
    rows.foreach(r => assert(r.vectorX > 0 && r.dimensionX > 0 && r.harmonyX > 0))
    assert(Experiments.fig11bRender("tiny", rows).render.contains("tiny"))
  }
}
