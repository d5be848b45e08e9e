package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import scala.collection.immutable.ListMap
import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession

import repro.baselines.Faiss
import repro.core.{EngineResult, Harmony, HarmonyConfig, HarmonySystem, Mode}
import repro.exp.Experiments
import repro.ivf.IVFIndex
import repro.linalg.{Hit, Par}
import repro.metrics.Recall
import repro.sim.CostParams
import repro.vectors.{Datasets, GenConfig, VectorDataset, VectorGen}

/** A named workload: a dataset stand-in, its index, and the query stream. */
final case class Workload(name: String, data: GenConfig, nlist: Int, batch: Int, nprobe: Int,
                          skewed: Boolean) {
  val config: HarmonyConfig = HarmonyConfig(nNodes = 4, mode = Mode.Harmony, k = 10, nprobe = nprobe)

  /** Query batch number `stream` drawn from `seed`. The planner's workload
    * sample is stream 0 of [[Workload.PlannerSeed]]; the batches searched
    * are streams 1.. of the run's seed. */
  def queries(ds: VectorDataset, idx: IVFIndex, seed: Long, stream: Int): Array[Array[Float]] = {
    val s = new java.util.SplittableRandom(seed * 7919L + stream).nextLong()
    if (skewed) Experiments.adversarialQueries(idx, ds, config.nNodes, batch, level = 1.0, seed = s, nprobe = nprobe)
    else VectorGen.genQueries(data, batch, zipfAlpha = 0.0, seed = s)
  }
}

object Workload {
  /** The planner sample is a fixed draw, so the deployment (grid and
    * placement) is a constant of the workload and `--seed` varies only the
    * queries searched. */
  val PlannerSeed = 0L

  val all: Seq[Workload] = Seq(
    Workload("sift-uniform", Datasets.sift1m, nlist = 250, batch = 200, nprobe = 16, skewed = false),
    Workload("star-highrecall", Datasets.starLightCurves, nlist = 200, batch = 100, nprobe = 48, skewed = false),
    Workload("sift-skewed", Datasets.sift1m, nlist = 250, batch = 200, nprobe = 16, skewed = true),
  )
}

/** One metric as printed: value and unit. */
final case class Metric(value: Double, unit: String)

/** Closed-loop benchmark of one workload: one client thread issues
  * `HarmonySystem.search(batch)` only after the previous call returned.
  *
  * Usage: `Main --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
  * The last stdout line is the result object; the line before it carries
  * the machine/config stamp and the failure share.
  */
object Main {

  /** Set-ups per run; `setup_s` is their median. */
  val SetupRepeats = 3
  /** Distinct query batches cycled by the client. */
  val PoolSize = 4
  /** Timed batches needed for a tail percentile with 10 samples beyond it. */
  val MinTimed = 11
  /** Batches run before timing, stopping early after `WarmupMaxS`. Batch
    * time halves over the first ~10 batches while the JIT compiles, then
    * keeps falling by about 1% per batch until roughly the 40th; warm-ups
    * of 16-24 batches left the timed phase on that slope and spread
    * run-to-run medians by 15-20%. The cap bounds a run's length when the
    * machine is slow. */
  val WarmupBatches = 32
  val WarmupMaxS = 18.0

  def main(argv: Array[String]): Unit = {
    val opts = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String): String = opts.getOrElse(k, { usage(s"missing --$k"); "" })
    val w = Workload.all.find(_.name == opt("workload"))
      .getOrElse { usage(s"unknown workload; known: ${Workload.all.map(_.name).mkString(", ")}"); null }
    val seed = opt("seed").toLong
    val seconds = opt("seconds").toDouble
    val trace = opt("trace") match { case "1" => true; case "0" => false; case _ => usage("--trace is 0 or 1"); false }

    val threads = math.min(4, Runtime.getRuntime.availableProcessors())
    val spark = SparkSession.builder
      .master(s"local[$threads]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    val ok =
      try new Bench(spark, w, seed, seconds, trace).run()
      catch { case NonFatal(e) => e.printStackTrace(); false }
      finally spark.stop()
    sys.exit(if (ok) 0 else 1)
  }

  private def usage(msg: String): Unit = {
    System.err.println(s"perfbench: $msg\nusage: Main --workload <name> --seed <n> --seconds <s> --trace <0|1>")
    sys.exit(2)
  }
}

/** One executed batch: which pool entry, its wall time, its span (0 untraced). */
final case class Exec(poolIdx: Int, seconds: Double, spanId: Long)

final class Bench(spark: SparkSession, w: Workload, seed: Long, seconds: Double, trace: Boolean) {
  import Main._

  private val tracer = new Tracer(spark.sparkContext)
  private val k = w.config.k
  private val started = System.nanoTime()
  private def log(msg: String): Unit =
    System.err.println(f"[perfbench ${w.name} ${(System.nanoTime() - started) / 1e9}%.1fs] $msg")

  type Info = ListMap[String, Any]

  final case class Setup(totalS: Double, trainS: Double, addS: Double, deployS: Double, preAssignS: Double)

  def run(): Boolean = {
    val ds = VectorGen.generate(w.data)
    log("data ready")
    if (trace) tracer.attach()
    val (sys, setups, sample) = setUp(ds)
    val heapLive = liveHeapBytes()
    if (trace) tracer.detach()
    log(s"setup (total/train/add/deploy/preassign s): ${setups.mkString(" ")}; " +
      s"grid ${sys.plan.bVec}x${sys.plan.bDim}")

    val pool = Array.tabulate(PoolSize)(i => w.queries(ds, sys.index, seed, i + 1))
    require((sample +: pool).map(_.flatten.toSeq).distinct.length == PoolSize + 1,
      "the planner sample and the searched batches must be distinct")
    val refs = pool.map(q => faissHits(sys.index, q))
    val truths = pool.map(q => Recall.groundTruth(ds, q, k))
    val client = new Client(sys, pool, refs)
    log("references ready")

    val warm = runFor(client, WarmupMaxS, max = WarmupBatches)
    log(f"warm-up ${warm.length} batches: ${warm.map(e => f"${e.seconds}%.3f").mkString(" ")}")
    val (metrics, info) =
      if (!trace) endToEnd(client, runFor(client, seconds), setups, heapLive, truths, sys)
      else perLayer(client, setups, sys, pool)
    sys.shutdown()
    log("done")

    val failedFrac = client.failed.toDouble / client.attempted
    val correct = client.failed == 0 && client.mismatched == 0
    if (!correct) log(s"FAILED: ${client.failed} of ${client.attempted} queries wrong; " +
      s"${client.mismatched} executions with differing ledgers")
    println(Json(ListMap("perfbench" -> (stamp(sys) ++ ListMap(
      "failed_frac" -> ListMap("value" -> failedFrac, "unit" -> "fraction"),
      "ledger_mismatches" -> client.mismatched,
      "warmup_batches" -> warm.length) ++ info))))
    println(Json(ListMap(
      "correct" -> correct,
      "attempted" -> client.attempted,
      "failed" -> client.failed,
      "metrics" -> metrics.map { case (n, m) => n -> ListMap("value" -> m.value, "unit" -> m.unit) })))
    correct
  }

  /** `IVFIndex.build` + `Harmony.deploy`, repeated; the last system serves.
    * The planner sample is drawn once, outside the timed intervals. */
  private def setUp(ds: VectorDataset): (HarmonySystem, Seq[Setup], Array[Array[Float]]) = {
    var sys: HarmonySystem = null
    var sample: Array[Array[Float]] = null
    val setups = (0 until SetupRepeats).map { _ =>
      if (sys != null) sys.shutdown()
      tracer.span("setup", 0L) { sid =>
        val t0 = System.nanoTime()
        val (idx, bt) = tracer.span("ivf.build", sid) { bid =>
          val t = System.nanoTime()
          val r = IVFIndex.build(spark, ds, w.nlist, seed = w.data.seed)
          tracer.synthetic("ivf.train", bid, tracer.epochUs(t), r._2.trainMs * 1000L)
          tracer.synthetic("ivf.add", bid, tracer.epochUs(t) + r._2.trainMs * 1000L, r._2.addMs * 1000L)
          r
        }
        val t1 = System.nanoTime()
        if (sample == null) sample = w.queries(ds, idx, Workload.PlannerSeed, 0)
        val t2 = System.nanoTime()
        sys = tracer.span("core.deploy", sid) { did =>
          val s = Harmony.deploy(spark, idx, w.config, sample, bt)
          // pre-assign is the last step of deploy; planning is what precedes it
          val end = tracer.epochUs(System.nanoTime())
          val pre = s.buildTimes.preAssignMs * 1000L
          tracer.synthetic("core.plan", did, tracer.epochUs(t2), end - pre - tracer.epochUs(t2))
          tracer.synthetic("core.store.preassign", did, end - pre, pre)
          s
        }
        val t3 = System.nanoTime()
        val deployS = (t3 - t2) / 1e9
        Setup(((t1 - t0) + (t3 - t2)) / 1e9, bt.trainMs / 1e3, bt.addMs / 1e3, deployS,
          sys.buildTimes.preAssignMs / 1e3)
      }
    }
    (sys, setups, sample)
  }

  private def liveHeapBytes(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed.toDouble
  }

  /** The single-node IVF reference (`Faiss.run`), computed over query
    * chunks in parallel; per-query results do not depend on the split. */
  private def faissHits(idx: IVFIndex, qs: Array[Array[Float]]): Array[Array[Hit]] =
    Par.mapChunks(qs.length, (lo, hi) =>
      Faiss.run(idx, qs.slice(lo, hi), k, w.nprobe, CostParams()).hits).flatten.toArray

  /** Issues pool batches in a closed loop and checks every result. */
  final class Client(sys: HarmonySystem, pool: Array[Array[Array[Float]]], refs: Array[Array[Array[Hit]]]) {
    val first = new Array[EngineResult](pool.length)
    private val prints = new Array[String](pool.length)
    private var next = 0
    var attempted = 0L
    var failed = 0L
    var mismatched = 0

    def step(): Exec = {
      val b = next
      next = (next + 1) % pool.length
      val q = pool(b)
      var res: Option[EngineResult] = None
      var dt = 0.0
      val id = tracer.span("batch", 0L) { id =>
        val t0 = System.nanoTime()
        res = try Some(sys.search(q)) catch { case NonFatal(e) => log(s"batch threw: $e"); None }
        dt = (System.nanoTime() - t0) / 1e9
        id
      }
      attempted += q.length
      res match {
        case None => failed += q.length
        case Some(r) =>
          val wrong = q.indices.count(i => !Gate.sameTopK(r.hits(i), refs(b)(i)))
          val fp = Gate.fingerprint(r)
          if (prints(b) == null) { prints(b) = fp; first(b) = r }
          val same = fp == prints(b)
          if (!same) mismatched += 1
          failed += (if (same) wrong else q.length)
      }
      Exec(b, dt, id)
    }
  }

  /** Run batches for `secs` seconds, and at least `min` and at most `max`
    * of them, starting from a collected heap. */
  private def runFor(c: Client, secs: Double, min: Int = MinTimed, max: Int = Int.MaxValue): Seq[Exec] = {
    System.gc()
    val out = ArrayBuffer.empty[Exec]
    val t0 = System.nanoTime()
    while (out.length < max && ((System.nanoTime() - t0) / 1e9 < secs || out.length < min)) out += c.step()
    out.toSeq
  }

  private def firsts(c: Client): Seq[EngineResult] = c.first.toSeq.filter(_ != null)

  private def endToEnd(c: Client, runs: Seq[Exec], setups: Seq[Setup], heapLive: Double,
                       truths: Array[Array[Array[Hit]]], sys: HarmonySystem): (ListMap[String, Metric], Info) = {
    val times = runs.map(_.seconds)
    val (tailP, tailV) = Stats.tail(times)
    log(f"timed ${times.length} batches: ${times.map(t => f"$t%.3f").mkString(" ")}")
    val rs = c.first.indices.filter(c.first(_) != null)
    val storage = sys.store.perNodeStorageBytes
    val queryBytes = w.batch.toLong * w.data.dim * 4L
    val metrics = ListMap(
      "qps_wall" -> Metric(runs.length * w.batch / times.sum, "1/s"),
      "batch_p50_s" -> Metric(Stats.median(times), "s"),
      "batch_tail_s" -> Metric(tailV, "s"),
      "qps_sim" -> Metric(rs.length * w.batch / rs.map(c.first(_).report.totalSeconds).sum, "1/s"),
      "recall_at_10" -> Metric(rs.map(i => Recall.meanRecall(c.first(i).hits, truths(i), k)).sum / rs.length,
        "fraction"),
      "setup_s" -> Metric(Stats.median(setups.map(_.totalS)), "s"),
      "node_peak_bytes" -> Metric(rs.map { i =>
        storage.indices.map(n => storage(n) + c.first(i).perNodePeakStateBytes(n) + queryBytes).max
      }.max.toDouble, "bytes"),
      "heap_live_bytes" -> Metric(heapLive, "bytes"),
    )
    (metrics, ListMap("batch_tail" -> ListMap("percentile" -> tailP, "samples" -> times.length)))
  }

  /** Untraced then traced halves of the timed phase, then kernel timings. */
  private def perLayer(c: Client, setups: Seq[Setup], sys: HarmonySystem,
                       pool: Array[Array[Array[Float]]]): (ListMap[String, Metric], Info) = {
    val plain = runFor(c, seconds / 2, PoolSize)
    tracer.attach()
    val traced = runFor(c, seconds / 2, PoolSize)
    tracer.detach()
    val traceFile = writeTrace(sys)

    val spark = traced.map(e => e -> tracer.batchSpark(e.spanId))
    def med(f: BatchSpark => Double): Double = Stats.median(spark.map { case (_, s) => f(s) })
    def medE(f: (Exec, BatchSpark) => Double): Double = Stats.median(spark.map { case (e, s) => f(e, s) })
    val rs = firsts(c)
    def medR(f: EngineResult => Double): Double = Stats.median(rs.map(f))
    def nodeOps(r: EngineResult): Double = r.report.perNodeDimOps.sum.toDouble
    val bDim = sys.plan.bDim
    val faissS = Stats.median((0 until 3).map { _ =>
      val t0 = System.nanoTime()
      Faiss.run(sys.index, pool(0), k, w.nprobe, CostParams())
      (System.nanoTime() - t0) / 1e9
    })
    val plainP50 = Stats.median(plain.map(_.seconds))
    val tracedP50 = Stats.median(traced.map(_.seconds))
    val metrics = ListMap(
      "linalg.l2_gdops" -> Metric(Micro.l2Gdops(sys.plan.sliceLen(0), seed), "Gdimops/s"),
      "linalg.nearest_n_us" -> Metric(Micro.nearestNus(pool(0), sys.index.centroids, w.nprobe), "us"),
      "linalg.heap_offer_ns" -> Metric(Micro.heapOfferNs(k, seed), "ns"),
      "ivf.train_s" -> Metric(Stats.median(setups.map(_.trainS)), "s"),
      "ivf.add_s" -> Metric(Stats.median(setups.map(_.addS)), "s"),
      "core.plan_s" -> Metric(Stats.median(setups.map(s => s.deployS - s.preAssignS)), "s"),
      "core.plan.grid_bdim" -> Metric(bDim, "count"),
      "core.store.preassign_s" -> Metric(Stats.median(setups.map(_.preAssignS)), "s"),
      "spark.jobs_per_batch" -> Metric(med(_.jobs), "count"),
      "spark.tasks_per_batch" -> Metric(med(_.tasks), "count"),
      "spark.task_run_s" -> Metric(med(_.taskRunS), "s"),
      "spark.task_cpu_s" -> Metric(med(_.taskCpuS), "s"),
      "spark.task_gc_s" -> Metric(med(_.taskGcS), "s"),
      "spark.task_deser_s" -> Metric(med(_.taskDeserS), "s"),
      "spark.job_idle_s" -> Metric(med(_.jobIdleS), "s"),
      "spark.driver_s" -> Metric(med(_.driverS), "s"),
      "spark.stage_skew" -> Metric(med(_.stageSkew), "ratio"),
      "spark.shuffle_write_bytes" -> Metric(med(_.shuffleWriteBytes.toDouble), "bytes"),
      "spark.shuffle_read_bytes" -> Metric(med(_.shuffleReadBytes.toDouble), "bytes"),
      "spark.result_bytes" -> Metric(med(_.resultBytes.toDouble), "bytes"),
      "spark.task_gdops" -> Metric(medE((e, s) => nodeOps(c.first(e.poolIdx)) / s.taskRunS / 1e9), "Gdimops/s"),
      "spark.shuffle_vs_counted" -> Metric(
        medE((e, s) => s.shuffleReadBytes.toDouble / c.first(e.poolIdx).report.totalBytes), "ratio"),
      "core.engine.counted_bytes" -> Metric(medR(_.report.totalBytes.toDouble), "bytes"),
      "core.engine.prune_ratio" -> Metric(medR(_.avgPruneRatio), "fraction"),
      "core.engine.useful_frac" -> Metric(medR { r =>
        w.batch.toDouble * k / (r.pruneEntering(bDim - 1) - r.prunePruned(bDim - 1))
      }, "fraction"),
      "sim.dimops_per_query" -> Metric(medR(_.report.totalDimOps.toDouble / w.batch), "dimops"),
      "sim.bytes_per_query" -> Metric(medR(_.report.totalBytes.toDouble / w.batch), "bytes"),
      "sim.msgs_per_query" -> Metric(medR(_.report.totalMsgs.toDouble / w.batch), "count"),
      "sim.comp_s" -> Metric(medR(_.report.compSeconds), "s"),
      "sim.comm_s" -> Metric(medR(_.report.commSeconds), "s"),
      "sim.other_s" -> Metric(medR(_.report.otherSeconds), "s"),
      "sim.load_cv" -> Metric(medR(_.report.loadCV), "ratio"),
      "baselines.faiss_batch_s" -> Metric(faissS, "s"),
      "trace.overhead_s" -> Metric(tracedP50 - plainP50, "s"),
    )
    (metrics, ListMap("trace_file" -> traceFile.toString,
      "batch_p50_s" -> ListMap("untraced" -> plainP50, "traced" -> tracedP50,
        "untraced_samples" -> plain.length, "traced_samples" -> traced.length)))
  }

  /** Spans and their self times, written once at the end of the run. */
  private def writeTrace(sys: HarmonySystem): java.nio.file.Path = {
    val dir = Paths.get(scala.sys.props.getOrElse("perfbench.traceDir", "traces"))
    Files.createDirectories(dir)
    val spans = tracer.allSpans
    val self = Tracer.selfTimeByName(spans).toSeq.sortBy(_._1).map { case (n, (cnt, dur, own)) =>
      n -> ListMap("count" -> cnt, "total_us" -> dur, "self_us" -> own)
    }
    val file = dir.resolve(s"${w.name}-seed$seed.json")
    val body = Json(ListMap(
      "stamp" -> stamp(sys),
      "self_time" -> ListMap(self: _*),
      "spans" -> spans.map(s => ListMap("id" -> s.id, "parent" -> s.parent, "name" -> s.name,
        "start_us" -> s.startUs, "end_us" -> s.endUs))))
    Files.write(file, body.getBytes(StandardCharsets.UTF_8))
    log(s"trace: ${spans.length} spans -> $file")
    file
  }

  private def stamp(sys: HarmonySystem): ListMap[String, Any] = {
    val rt = ManagementFactory.getRuntimeMXBean
    ListMap(
      "workload" -> w.name,
      "seed" -> seed,
      "seconds" -> seconds,
      "trace" -> trace,
      "nproc" -> Runtime.getRuntime.availableProcessors(),
      "jvm_flags" -> rt.getInputArguments.toArray.map(_.toString).filter(_.startsWith("-X")).toSeq,
      "max_heap_bytes" -> Runtime.getRuntime.maxMemory(),
      "spark_master" -> spark.sparkContext.master,
      "spark_version" -> spark.version,
      "jdk" -> s"${scala.sys.props("java.vm.name")} ${scala.sys.props("java.runtime.version")}",
      "commit" -> scala.sys.props.getOrElse("perfbench.commit", "unknown"),
      "source_sha256" -> scala.sys.props.getOrElse("perfbench.sourceSha", "unknown"),
      "dataset" -> ListMap("name" -> w.data.name, "n" -> w.data.n, "dim" -> w.data.dim, "seed" -> w.data.seed),
      "nlist" -> w.nlist,
      "nprobe" -> w.nprobe,
      "batch" -> w.batch,
      "k" -> k,
      "nodes" -> w.config.nNodes,
      "grid" -> ListMap("bVec" -> sys.plan.bVec, "bDim" -> sys.plan.bDim),
      "setup_repeats" -> SetupRepeats,
      "pool_batches" -> PoolSize,
    )
  }
}
