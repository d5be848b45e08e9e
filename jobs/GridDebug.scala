package repro.jobs

import repro.baselines.Faiss
import repro.core._
import repro.exp.Experiments
import repro.ivf.BuildTimes
import repro.linalg.VecOps
import repro.vectors.Datasets

/** Diagnostic: the planner's prediction for every candidate grid next to
  * what the engine measures on the same plan.
  *
  * `GridDebug [skew [dataset ...]]`. With a skew level the batch is
  * `Experiments.adversarialQueries` at that level (Fig 9 uses 0.6), without
  * one it is the dataset's own queries; either way the batch is also the
  * planner's workload sample, as in the paper benches. Each grid is laid out
  * by `PartitionPlan.forWorkload` and searched under the same
  * `HarmonyConfig`. Per grid it prints the estimated total, compute makespan,
  * communication (before overlap) and per-node loads (M dim-ops), then the
  * simulated total, its comp/comm/other split, the measured per-node dim-ops
  * (M) and the speedup over single-node Faiss.
  * `*` marks the grid the planner chooses.
  */
object GridDebug {
  def main(args: Array[String]): Unit = {
    val skew = args.headOption.map(_.toDouble)
    val datasets =
      if (args.length > 1) args.toSeq.drop(1).map(Datasets.byName)
      else Seq(Datasets.sift1m, Datasets.starLightCurves, Datasets.glove1_2m, Datasets.msong)
    val cfg = HarmonyConfig(nNodes = Experiments.DefaultNodes, k = Experiments.DefaultK,
      nprobe = Experiments.DefaultNprobe)
    def mops(xs: Seq[Double]): String = xs.map(x => f"${x / 1e6}%.2f").mkString("[", " ", "]")
    def ms(sec: Double): String = f"${sec * 1000}%.3f"

    val spark = Jobs.session("grid-debug")
    try datasets.foreach { dcfg =>
      val (ds, idx, _) = Experiments.indexed(spark, dcfg)
      val queries = skew.fold(ds.queries)(s =>
        Experiments.adversarialQueries(idx, ds, cfg.nNodes, dcfg.nQueries, s, nprobe = cfg.nprobe))
      val probes = queries.toSeq.map(VecOps.nearestN(_, idx.centroids, cfg.nprobe))
      val popularity = CostModel.popularityOf(probes, idx.nlist)
      val survival = CostModel.SurvivalStats.fromData(idx, queries, k = cfg.k)
      val (chosen, _) = CostModel.choose(cfg, idx.dim, idx.listSizes, popularity,
        queries.length, survival)
      val faiss = Faiss.run(idx, queries, cfg.k, cfg.nprobe, cfg.costParams)
      println(s"${dcfg.name} skew=${skew.getOrElse("-")} faiss=${ms(faiss.report.totalSeconds)}ms")
      PartitionPlan.candidateGrids(cfg.nNodes, idx.dim).foreach { case (bv, bd) =>
        val plan = PartitionPlan.forWorkload(bv, bd, idx.dim, idx.listSizes, popularity,
          cfg.balancedLoad)
        val est = CostModel.estimate(plan, cfg, idx.listSizes, popularity, queries.length, survival)
        val store = BlockStore.build(spark, idx, plan, samplePerCluster = cfg.prewarmPerCluster)
        val sys = new HarmonySystem(spark, idx, cfg, plan, store, Some(est), BuildTimes(0, 0, 0))
        val r = try sys.search(queries).report finally sys.shutdown()
        val mark = if ((bv, bd) == (chosen.bVec, chosen.bDim)) "*" else " "
        println(s"  $mark($bv,$bd) est ${ms(est.totalSec)}ms [c${ms(est.compMakespanSec)}" +
          s" m${ms(est.commSec)}] loads ${mops(est.perNodeLoadOps.toSeq)}" +
          s" | sim ${ms(r.totalSeconds)}ms [c${ms(r.compSeconds)} m${ms(r.commSeconds)}" +
          s" o${ms(r.otherSeconds)}] dimops ${mops(r.perNodeDimOps.toSeq.map(_.toDouble))}" +
          f" x${r.qps / faiss.report.qps}%.2f")
      }
    } finally spark.stop()
  }
}
