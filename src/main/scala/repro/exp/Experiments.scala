package repro.exp

import scala.collection.concurrent.TrieMap

import org.apache.spark.sql.SparkSession

import repro.baselines.Faiss
import repro.core._
import repro.ivf.{BuildTimes, IVFIndex}
import repro.metrics.Recall
import repro.sim.CostParams
import repro.vectors.{Datasets, GenConfig, VectorDataset, VectorGen}

/** One function per paper table/figure (see DESIGN.md experiment index).
  * Shared by the `jobs/` spark-submit entrypoints and the `bench/` suites.
  */
object Experiments {

  /** Default indexing parameters for the reproduction scale. */
  def nlistFor(n: Int): Int = math.max(16, math.min(256, n / 200))
  val DefaultK = 10
  val DefaultNprobe = 16
  val DefaultNodes = 4

  private val indexCache = TrieMap.empty[String, (VectorDataset, IVFIndex, BuildTimes)]

  /** Build (and memoize) the shared IVF index for a dataset — all compared
    * systems reuse the same clustering, as in the paper's methodology. */
  def indexed(spark: SparkSession, cfg: GenConfig): (VectorDataset, IVFIndex, BuildTimes) =
    indexCache.getOrElseUpdate(cfg.name + "#" + cfg.hashCode, {
      val ds = Datasets.load(cfg)
      val (idx, times) = IVFIndex.build(spark, ds, nlistFor(cfg.n), seed = cfg.seed)
      (ds, idx, times)
    })

  def clearCaches(): Unit = { indexCache.clear(); Datasets.clearCache(); Recall.clearCache() }

  /** Skewed workload engineered against the vector-partition placement
    * (§6.2.2: "query sets are manipulated to ensure different load
    * differences on each machine"). With probability `level` a query is a
    * perturbed copy of a vector stored in a cluster of shard 0 of the
    * size-balanced vector plan (concentrating on fewer clusters as `level`
    * rises), otherwise a perturbed copy of a uniformly random vector.
    * `level = 0` is a uniform workload; `level = 1` concentrates nearly all
    * probes on the clusters of one machine.
    */
  def adversarialQueries(idx: IVFIndex, ds: VectorDataset, nNodes: Int, nQ: Int,
                         level: Double, seed: Long = 77L,
                         nprobe: Int = DefaultNprobe,
                         naiveTarget: Boolean = false): Array[Array[Float]] = {
    require(level >= 0.0 && level <= 1.0, s"level out of range: $level")
    // reference placement the workload is skewed against: the size-balanced
    // vector plan by default, or the naive (Auncel-style) placement
    val plan = PartitionPlan.build(nNodes, 1, idx.dim,
      idx.listSizes.map(_.toDouble), balanced = !naiveTarget)
    val nonEmpty = (0 until idx.nlist).filter(idx.listSize(_) > 0).toArray
    val hot = plan.clustersOfShard(0).filter(idx.listSize(_) > 0)
    require(hot.nonEmpty, "hot shard has no non-empty clusters")
    val hotSet = hot.toSet
    val rnd = new java.util.Random(seed)

    def perturbedFrom(c: Int): Array[Float] = {
      val r = rnd.nextInt(idx.listSize(c))
      val base = java.util.Arrays.copyOfRange(idx.listData(c), r * idx.dim, (r + 1) * idx.dim)
      val rms = math.sqrt(base.map(x => x.toDouble * x).sum / idx.dim)
      Array.tabulate(idx.dim)(j => (base(j) + rnd.nextGaussian() * 0.05 * rms).toFloat)
    }
    // fraction of this query's candidate rows that land on the hot machine
    def hotRowFrac(q: Array[Float]): Double = {
      val probed = repro.linalg.VecOps.nearestN(q, idx.centroids, nprobe)
      val total = probed.map(idx.listSize(_).toLong).sum.toDouble
      if (total == 0) 0.0
      else probed.filter(hotSet).map(idx.listSize(_).toLong).sum / total
    }

    // rank hot clusters by how machine-concentrated their neighborhood is:
    // a query landing there keeps most of its probe set on the hot machine
    val rankedHot = hot
      .map(c => (c, hotRowFrac(idx.centroids(c))))
      .sortBy { case (c, f) => (-f, c) }
      .map(_._1)
    val hotTop = rankedHot.take(math.max(1, rankedHot.length / 4))
    val zipf = VectorGen.zipfRanks(hotTop.length, 1.0 + 3.0 * level)

    Array.fill(nQ) {
      if (rnd.nextDouble() < level) {
        // best-of-N draw maximizing the hot machine's share of the probe set
        (0 until 8).map { _ =>
          val c = hotTop(VectorGen.sampleDiscrete(zipf, rnd.nextDouble()))
          perturbedFrom(c)
        }.maxBy(hotRowFrac)
      } else {
        perturbedFrom(nonEmpty(rnd.nextInt(nonEmpty.length)))
      }
    }
  }

  private def deployMode(spark: SparkSession, idx: IVFIndex, mode: Mode, nNodes: Int,
                         nprobe: Int, workload: Array[Array[Float]],
                         pruning: Boolean = true, pipeline: Boolean = true,
                         balanced: Boolean = true, times: BuildTimes = BuildTimes(0, 0, 0),
                         params: CostParams = CostParams()): HarmonySystem = {
    val cfg = HarmonyConfig(nNodes = nNodes, mode = mode, k = DefaultK, nprobe = nprobe,
      pruning = pruning, pipeline = pipeline, balancedLoad = balanced, costParams = params)
    // Baseline modes use workload-agnostic (size-balanced) placement; only
    // Mode.Harmony adapts to the anticipated workload via the cost model.
    val sample = if (mode == Mode.Harmony) workload else Array.empty[Array[Float]]
    Harmony.deploy(spark, idx, cfg, sample, times)
  }

  // ------------------------------------------------------------------
  // Table 2 — dataset statistics (paper scale vs reproduction scale)
  // ------------------------------------------------------------------
  final case class T2Row(name: String, paperSize: Long, paperDim: Int, paperQ: Int,
                         reproSize: Int, reproDim: Int, reproQ: Int, dataType: String)

  def table2(): Seq[T2Row] = Datasets.all.map(c =>
    T2Row(c.name, c.paperSize, c.paperDim, c.paperQueries, c.n, c.dim, c.nQueries, c.dataType))

  def table2Render(rows: Seq[T2Row]): ExpUtil.Table = ExpUtil.Table(
    "Table 2: dataset statistics (paper → reproduction)",
    Seq("Dataset", "Size(paper)", "Dim(paper)", "Query(paper)", "Size", "Dim", "Query", "Type"),
    rows.map(r => Seq(r.name, r.paperSize.toString, r.paperDim.toString, r.paperQ.toString,
      r.reproSize.toString, r.reproDim.toString, r.reproQ.toString, r.dataType)))

  // ------------------------------------------------------------------
  // Table 3 — average pruning ratio per dimension slice (4 nodes, Bdim=4)
  // ------------------------------------------------------------------
  final case class T3Row(name: String, ratios: Array[Double]) {
    def avg: Double = ratios.sum / ratios.length
  }

  /** Dimension split of size 4, slices processed in dimension order (the
    * paper's Table 3 measurement isolates the pruning strategy): without
    * balanced load every batch starts at the first slice, and with a single
    * vector shard the placement is the same either way. */
  def table3(spark: SparkSession, datasets: Seq[GenConfig] = Datasets.small8,
             nprobe: Int = DefaultNprobe): Seq[T3Row] =
    datasets.map { cfg =>
      val (ds, idx, _) = indexed(spark, cfg)
      val sys = deployMode(spark, idx, Mode.HarmonyDimension, DefaultNodes, nprobe, ds.queries,
        balanced = false)
      try T3Row(cfg.name, sys.search(ds.queries).pruneRatios)
      finally sys.shutdown()
    }

  def table3Render(rows: Seq[T3Row]): ExpUtil.Table = ExpUtil.Table(
    "Table 3: average pruning ratio per slice (4 nodes)",
    Seq("Dataset", "First(%)", "Second(%)", "Third(%)", "Fourth(%)", "Average(%)"),
    rows.map(r => Seq(r.name) ++ r.ratios.map(ExpUtil.pct) :+ ExpUtil.pct(r.avg)))

  // ------------------------------------------------------------------
  // Table 4 — index memory per node (Faiss vs the three partitionings)
  // ------------------------------------------------------------------
  final case class T4Row(name: String, faiss: Long, vector: Long, dimension: Long, harmony: Long)

  def table4(spark: SparkSession, datasets: Seq[GenConfig] = Datasets.small8,
             nNodes: Int = DefaultNodes): Seq[T4Row] =
    datasets.map { cfg =>
      val (ds, idx, _) = indexed(spark, cfg)
      def nodeBytes(mode: Mode): Long = {
        val sys = deployMode(spark, idx, mode, nNodes, DefaultNprobe, ds.queries)
        try sys.store.maxNodeStorageBytes finally sys.shutdown()
      }
      T4Row(cfg.name, idx.sizeBytes, nodeBytes(Mode.HarmonyVector),
        nodeBytes(Mode.HarmonyDimension), nodeBytes(Mode.Harmony))
    }

  def table4Render(rows: Seq[T4Row]): ExpUtil.Table = ExpUtil.Table(
    "Table 4: index memory per node",
    Seq("Dataset", "Faiss", "Harmony-vector", "Harmony-dimension", "Harmony"),
    rows.map(r => Seq(r.name, ExpUtil.human(r.faiss), ExpUtil.human(r.vector),
      ExpUtil.human(r.dimension), ExpUtil.human(r.harmony))))

  // ------------------------------------------------------------------
  // Table 5 — peak per-node memory during query execution
  // ------------------------------------------------------------------
  final case class T5Row(name: String, vector: Long, harmony: Long, dimension: Long)

  def table5(spark: SparkSession, datasets: Seq[GenConfig] = Datasets.small8,
             nNodes: Int = DefaultNodes): Seq[T5Row] =
    datasets.map { cfg =>
      val (ds, idx, _) = indexed(spark, cfg)
      def peak(mode: Mode): Long = {
        val sys = deployMode(spark, idx, mode, nNodes, DefaultNprobe, ds.queries)
        try {
          val res = sys.search(ds.queries)
          val storage = sys.store.perNodeStorageBytes
          val queryBytes = ds.queries.length.toLong * ds.dim * 4L
          (0 until nNodes).map(n => storage(n) + res.perNodePeakStateBytes(n) + queryBytes).max
        } finally sys.shutdown()
      }
      T5Row(cfg.name, peak(Mode.HarmonyVector), peak(Mode.Harmony), peak(Mode.HarmonyDimension))
    }

  def table5Render(rows: Seq[T5Row]): ExpUtil.Table = ExpUtil.Table(
    "Table 5: peak per-node memory during queries",
    Seq("Dataset", "Harmony-vector", "Harmony", "Harmony-dimension"),
    rows.map(r => Seq(r.name, ExpUtil.human(r.vector), ExpUtil.human(r.harmony),
      ExpUtil.human(r.dimension))))

  // ------------------------------------------------------------------
  // Fig 6 — QPS & recall under uniform workloads (speedup vs Faiss)
  // ------------------------------------------------------------------
  final case class F6Point(nprobe: Int, recall: Double, faissQps: Double,
                           vectorQps: Double, dimensionQps: Double, harmonyQps: Double) {
    def speedupVector: Double = vectorQps / faissQps
    def speedupDimension: Double = dimensionQps / faissQps
    def speedupHarmony: Double = harmonyQps / faissQps
  }
  final case class F6Curve(name: String, nNodes: Int, points: Seq[F6Point])

  def fig6(spark: SparkSession, cfg: GenConfig, nprobes: Seq[Int],
           nNodes: Int = DefaultNodes): F6Curve = {
    val (ds, idx, _) = indexed(spark, cfg)
    val truths = Recall.groundTruth(ds, ds.queries, DefaultK, cacheKey = Some(cfg.name))
    val points = nprobes.map { np =>
      val fr = Faiss.run(idx, ds.queries, DefaultK, np, CostParams())
      val recall = Recall.meanRecall(fr.hits, truths, DefaultK)
      def qps(mode: Mode): Double = {
        val sys = deployMode(spark, idx, mode, nNodes, np, ds.queries)
        try sys.search(ds.queries).report.qps finally sys.shutdown()
      }
      F6Point(np, recall, fr.report.qps,
        qps(Mode.HarmonyVector), qps(Mode.HarmonyDimension), qps(Mode.Harmony))
    }
    F6Curve(cfg.name, nNodes, points)
  }

  def fig6Render(curves: Seq[F6Curve]): ExpUtil.Table = ExpUtil.Table(
    "Fig 6: QPS-recall under uniform workloads (speedup over Faiss)",
    Seq("Dataset", "Nodes", "nprobe", "Recall@10", "Faiss QPS", "Vector x", "Dimension x", "Harmony x"),
    for (c <- curves; p <- c.points) yield Seq(c.name, c.nNodes.toString, p.nprobe.toString,
      ExpUtil.f2(p.recall), ExpUtil.f1(p.faissQps), ExpUtil.f2(p.speedupVector),
      ExpUtil.f2(p.speedupDimension), ExpUtil.f2(p.speedupHarmony)))

  // ------------------------------------------------------------------
  // Fig 7 — QPS under increasingly skewed workloads (+ Auncel, §6.5.4)
  // ------------------------------------------------------------------
  final case class F7Point(skewLevel: Double, loadVariance: Double,
                           vectorQps: Double, dimensionQps: Double, harmonyQps: Double,
                           auncelQps: Double,
                           /** cluster utilization: total dim-ops per second —
                             * workload-volume-independent degradation metric */
                           vectorOpsRate: Double, dimensionOpsRate: Double,
                           harmonyOpsRate: Double)
  final case class F7Curve(name: String, points: Seq[F7Point])

  def fig7(spark: SparkSession, cfg: GenConfig, skewLevels: Seq[Double] = Seq(0.0, 0.5, 1.0),
           nNodes: Int = DefaultNodes, nprobe: Int = DefaultNprobe): F7Curve = {
    val (ds, idx, _) = indexed(spark, cfg)
    val points = skewLevels.map { skew =>
      val queries = adversarialQueries(idx, ds, nNodes, cfg.nQueries, skew, nprobe = nprobe)
      def run(mode: Mode): EngineResult = {
        val sys = deployMode(spark, idx, mode, nNodes, nprobe, queries)
        try sys.search(queries) finally sys.shutdown()
      }
      val v = run(Mode.HarmonyVector)
      val d = run(Mode.HarmonyDimension)
      val h = run(Mode.Harmony)
      val a = {
        val sys = Harmony.deploy(spark, idx, HarmonyConfig.auncel(nNodes, DefaultK, nprobe),
          workloadSample = Array.empty)
        try sys.search(queries) finally sys.shutdown()
      }
      // imbalance measured on the traditional (vector) distribution, as the
      // paper's x-axis variance is a property of the workload vs placement
      def rate(r: EngineResult): Double = r.report.totalDimOps / r.report.totalSeconds
      F7Point(skew, v.report.loadStddev, v.report.qps, d.report.qps, h.report.qps, a.report.qps,
        rate(v), rate(d), rate(h))
    }
    F7Curve(cfg.name, points)
  }

  def fig7Render(curves: Seq[F7Curve]): ExpUtil.Table = ExpUtil.Table(
    "Fig 7: QPS and cluster utilization under skewed workloads",
    Seq("Dataset", "Skew", "LoadStd(vec)", "Vector QPS", "Dimension QPS", "Harmony QPS",
      "Auncel QPS", "Vec Gops/s", "Dim Gops/s", "Har Gops/s"),
    for (c <- curves; p <- c.points) yield Seq(c.name, ExpUtil.f2(p.skewLevel),
      f"${p.loadVariance}%.3g", ExpUtil.f1(p.vectorQps), ExpUtil.f1(p.dimensionQps),
      ExpUtil.f1(p.harmonyQps), ExpUtil.f1(p.auncelQps),
      ExpUtil.f2(p.vectorOpsRate / 1e9), ExpUtil.f2(p.dimensionOpsRate / 1e9),
      ExpUtil.f2(p.harmonyOpsRate / 1e9)))

  // ------------------------------------------------------------------
  // Fig 8 — time breakdown (computation / communication / other)
  // ------------------------------------------------------------------
  final case class F8Row(name: String, mode: String, compSec: Double, commSec: Double,
                         otherSec: Double)

  def fig8(spark: SparkSession, datasets: Seq[GenConfig], nNodes: Int = DefaultNodes,
           nprobe: Int = DefaultNprobe): Seq[F8Row] =
    datasets.flatMap { cfg =>
      val (ds, idx, _) = indexed(spark, cfg)
      Seq(Mode.HarmonyVector -> "Harmony-vector", Mode.HarmonyDimension -> "Harmony-dimension",
          Mode.Harmony -> "Harmony").map { case (mode, label) =>
        val sys = deployMode(spark, idx, mode, nNodes, nprobe, ds.queries)
        try {
          val r = sys.search(ds.queries).report
          F8Row(cfg.name, label, r.compSeconds, r.commSeconds, r.otherSeconds)
        } finally sys.shutdown()
      }
    }

  def fig8Render(rows: Seq[F8Row]): ExpUtil.Table = ExpUtil.Table(
    "Fig 8: simulated time breakdown per query batch (seconds)",
    Seq("Dataset", "Mode", "Comp", "Comm", "Other", "Comm%"),
    rows.map(r => Seq(r.name, r.mode, f"${r.compSec}%.4f", f"${r.commSec}%.4f",
      f"${r.otherSec}%.4f", ExpUtil.pct(r.commSec / math.max(1e-12, r.compSec + r.commSec + r.otherSec)))))

  // ------------------------------------------------------------------
  // Fig 9 — contribution of each optimization (ablation)
  // ------------------------------------------------------------------
  final case class F9Row(name: String, fullQps: Double, noBalanceQps: Double,
                         noPipelineQps: Double, noPruneQps: Double) {
    def balancedGain: Double = fullQps / noBalanceQps
    def pipelineGain: Double = fullQps / noPipelineQps
    def pruningGain: Double = fullQps / noPruneQps
  }

  def fig9(spark: SparkSession, datasets: Seq[GenConfig], nNodes: Int = DefaultNodes,
           nprobe: Int = DefaultNprobe, skewLevel: Double = 0.6): Seq[F9Row] =
    datasets.map { cfg =>
      val (ds, idx, _) = indexed(spark, cfg)
      val queries = adversarialQueries(idx, ds, nNodes, cfg.nQueries, skewLevel, nprobe = nprobe)
      def qps(pruning: Boolean, pipeline: Boolean, balanced: Boolean): Double = {
        val sys = deployMode(spark, idx, Mode.Harmony, nNodes, nprobe, queries,
          pruning = pruning, pipeline = pipeline, balanced = balanced)
        try sys.search(queries).report.qps finally sys.shutdown()
      }
      F9Row(cfg.name,
        fullQps = qps(pruning = true, pipeline = true, balanced = true),
        noBalanceQps = qps(pruning = true, pipeline = true, balanced = false),
        noPipelineQps = qps(pruning = true, pipeline = false, balanced = true),
        noPruneQps = qps(pruning = false, pipeline = true, balanced = true))
    }

  def fig9Render(rows: Seq[F9Row]): ExpUtil.Table = ExpUtil.Table(
    "Fig 9: optimization contributions (speedup from each technique)",
    Seq("Dataset", "Full QPS", "BalancedLoad x", "Pipeline x", "Pruning x"),
    rows.map(r => Seq(r.name, ExpUtil.f1(r.fullQps), ExpUtil.f2(r.balancedGain),
      ExpUtil.f2(r.pipelineGain), ExpUtil.f2(r.pruningGain))))

  // ------------------------------------------------------------------
  // Fig 10 — index build time breakdown (Train / Add / Pre-assign)
  // ------------------------------------------------------------------
  final case class F10Row(name: String, method: String, trainMs: Long, addMs: Long,
                          preAssignMs: Long)

  def fig10(spark: SparkSession, datasets: Seq[GenConfig],
            nNodes: Int = DefaultNodes): Seq[F10Row] =
    datasets.flatMap { cfg =>
      val (ds, idx, times) = indexed(spark, cfg)
      val faiss = F10Row(cfg.name, "Faiss", times.trainMs, times.addMs, 0L)
      val modes = Seq(Mode.HarmonyVector -> "Vector", Mode.HarmonyDimension -> "Dimension",
        Mode.Harmony -> "Harmony").map { case (mode, label) =>
        val sys = deployMode(spark, idx, mode, nNodes, DefaultNprobe, ds.queries, times = times)
        try F10Row(cfg.name, label, times.trainMs, times.addMs, sys.buildTimes.preAssignMs)
        finally sys.shutdown()
      }
      faiss +: modes
    }

  def fig10Render(rows: Seq[F10Row]): ExpUtil.Table = ExpUtil.Table(
    "Fig 10: index build time breakdown (ms)",
    Seq("Dataset", "Method", "Train", "Add", "Pre-assign"),
    rows.map(r => Seq(r.name, r.method, r.trainMs.toString, r.addMs.toString,
      r.preAssignMs.toString)))

  // ------------------------------------------------------------------
  // Fig 11a — Gaussian sweep over dims and sizes; Fig 11b — scalability
  // ------------------------------------------------------------------
  final case class F11aRow(dim: Int, size: Int, harmonySpeedup: Double)

  def gaussianCfg(dim: Int, size: Int): GenConfig = GenConfig(
    name = s"Gauss-d$dim-n$size", n = size, dim = dim, nQueries = 100,
    decayRate = 1.5, dataType = "Synthetic", seed = 500 + dim + size)

  def fig11a(spark: SparkSession, dims: Seq[Int], sizes: Seq[Int],
             nNodes: Int = DefaultNodes, nprobe: Int = DefaultNprobe): Seq[F11aRow] =
    for (dim <- dims; size <- sizes) yield {
      val cfg = gaussianCfg(dim, size)
      val (ds, idx, _) = indexed(spark, cfg)
      val fr = Faiss.run(idx, ds.queries, DefaultK, nprobe, CostParams())
      val sys = deployMode(spark, idx, Mode.Harmony, nNodes, nprobe, ds.queries)
      try F11aRow(dim, size, sys.search(ds.queries).report.qps / fr.report.qps)
      finally sys.shutdown()
    }

  def fig11aRender(rows: Seq[F11aRow]): ExpUtil.Table = ExpUtil.Table(
    "Fig 11a: Harmony speedup vs dims and dataset size (4 nodes)",
    Seq("Dim", "Size", "Harmony speedup x"),
    rows.map(r => Seq(r.dim.toString, r.size.toString, ExpUtil.f2(r.harmonySpeedup))))

  final case class F11bRow(nNodes: Int, vectorX: Double, dimensionX: Double, harmonyX: Double)

  def fig11b(spark: SparkSession, cfg: GenConfig, nodeCounts: Seq[Int],
             nprobe: Int = DefaultNprobe): Seq[F11bRow] = {
    val (ds, idx, _) = indexed(spark, cfg)
    val fr = Faiss.run(idx, ds.queries, DefaultK, nprobe, CostParams())
    nodeCounts.map { nn =>
      def qps(mode: Mode): Double = {
        val sys = deployMode(spark, idx, mode, nn, nprobe, ds.queries)
        try sys.search(ds.queries).report.qps finally sys.shutdown()
      }
      F11bRow(nn, qps(Mode.HarmonyVector) / fr.report.qps,
        qps(Mode.HarmonyDimension) / fr.report.qps, qps(Mode.Harmony) / fr.report.qps)
    }
  }

  def fig11bRender(name: String, rows: Seq[F11bRow]): ExpUtil.Table = ExpUtil.Table(
    s"Fig 11b: scalability on $name (speedup over single-node Faiss)",
    Seq("Nodes", "Vector x", "Dimension x", "Harmony x"),
    rows.map(r => Seq(r.nNodes.toString, ExpUtil.f2(r.vectorX), ExpUtil.f2(r.dimensionX),
      ExpUtil.f2(r.harmonyX))))
}
