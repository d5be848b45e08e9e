package repro.perfbench

import java.util.concurrent.atomic.AtomicLong

import scala.collection.mutable

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** A traced interval. Times are epoch microseconds; `parent` 0 is the root. */
final case class Span(id: Long, parent: Long, name: String, startUs: Long, endUs: Long) {
  def durUs: Long = endUs - startUs
}

/** Spark work of one batch, from the listener (see [[Tracer.batchSpark]]). */
final case class BatchSpark(
    jobs: Int,
    tasks: Int,
    taskRunS: Double,
    taskCpuS: Double,
    taskGcS: Double,
    taskDeserS: Double,
    jobIdleS: Double,
    driverS: Double,
    stageSkew: Double,
    shuffleWriteBytes: Long,
    shuffleReadBytes: Long,
    resultBytes: Long,
)

/** Spans kept in memory, and a `SparkListener` for per-job, per-stage and
  * per-task metrics.
  *
  * While attached, [[span]] records a driver span and tags every Spark job
  * submitted inside it with the span's id (a local property), so the job's
  * stages and tasks become its children. While detached, [[span]] only runs
  * its body and no listener is registered.
  */
final class Tracer(sc: SparkContext) {
  import Tracer._

  private val nextId = new AtomicLong(1)
  private val nanoBase = System.nanoTime()
  private val epochBaseUs = System.currentTimeMillis() * 1000L
  /** A `System.nanoTime` reading as epoch microseconds, the spans' clock. */
  def epochUs(nanos: Long): Long = epochBaseUs + (nanos - nanoBase) / 1000L
  private def nowUs: Long = epochUs(System.nanoTime())

  private val driverSpans = mutable.ArrayBuffer.empty[Span]
  private var listener: Option[Collector] = None
  private val collectors = mutable.ArrayBuffer.empty[Collector]

  def attached: Boolean = listener.isDefined

  def attach(): Unit = if (listener.isEmpty) {
    val c = new Collector
    sc.addSparkListener(c)
    collectors += c
    listener = Some(c)
  }

  /** Wait until the listener has seen every event posted so far, then
    * unregister it. A marker job is posted last: its end event arriving
    * means all earlier events were delivered. */
  def detach(): Unit = listener.foreach { c =>
    val marker = s"drain-${nextId.getAndIncrement()}"
    val prev = sc.getLocalProperty(TagKey)
    sc.setLocalProperty(TagKey, marker)
    try sc.parallelize(Seq(0), 1).count() finally sc.setLocalProperty(TagKey, prev)
    val deadline = System.nanoTime() + 60L * 1000000000L
    while (!c.sawJobEnd(marker)) {
      if (System.nanoTime() > deadline) throw new IllegalStateException("listener did not drain")
      Thread.sleep(5)
    }
    sc.removeSparkListener(c)
    listener = None
  }

  /** Run `body` inside a span named `name` under `parent`; `body` gets the
    * span id (0 when detached, so nested spans stay untraced too). */
  def span[T](name: String, parent: Long)(body: Long => T): T =
    if (!attached) body(0L)
    else {
      val id = nextId.getAndIncrement()
      val prev = sc.getLocalProperty(TagKey)
      sc.setLocalProperty(TagKey, id.toString)
      val start = nowUs
      try body(id)
      finally {
        val end = nowUs
        sc.setLocalProperty(TagKey, prev)
        driverSpans += Span(id, parent, name, start, end)
      }
    }

  /** Record a span whose interval the program measured itself (e.g. a
    * `BuildTimes` phase), placed at `startUs` under `parent`. */
  def synthetic(name: String, parent: Long, startUs: Long, durUs: Long): Unit =
    if (parent != 0L) driverSpans += Span(nextId.getAndIncrement(), parent, name, startUs, startUs + durUs)

  def spanById(id: Long): Option[Span] = driverSpans.find(_.id == id)

  /** Every span: driver spans, then Spark job → stage → task spans under
    * the driver span that was innermost when the job was submitted. */
  def allSpans: Seq[Span] = {
    val out = mutable.ArrayBuffer.empty[Span] ++= driverSpans
    collectors.foreach { c =>
      c.synchronized {
        c.jobs.values.foreach { j =>
          j.tag.flatMap(_.toLongOption).foreach { parent =>
            val jobSpan = nextId.getAndIncrement()
            out += Span(jobSpan, parent, "spark.job", j.startMs * 1000L, j.endMs * 1000L)
            c.stagesOf(j).foreach { st =>
              val stageSpan = nextId.getAndIncrement()
              out += Span(stageSpan, jobSpan, "spark.stage", st.startMs * 1000L, st.endMs * 1000L)
              c.tasks.getOrElse(st.id, Nil).foreach { t =>
                out += Span(nextId.getAndIncrement(), stageSpan, "spark.task",
                  t.launchMs * 1000L, t.finishMs * 1000L)
              }
            }
          }
        }
      }
    }
    out.toSeq
  }

  /** Spark work of the batch span `id`: its jobs, their stages and tasks. */
  def batchSpark(id: Long): BatchSpark = {
    val batch = spanById(id).getOrElse(throw new NoSuchElementException(s"span $id"))
    val tag = id.toString
    val c = collectors.find(c => c.synchronized(c.jobs.values.exists(_.tag.contains(tag))))
      .getOrElse(throw new IllegalStateException(s"no Spark jobs recorded for batch span $id"))
    c.synchronized {
      val jobs = c.jobs.values.filter(_.tag.contains(tag)).toSeq
      val stages = jobs.flatMap(c.stagesOf)
      val tasks = stages.flatMap(st => c.tasks.getOrElse(st.id, Nil))
      val jobIdleMs = jobs.map { j =>
        val longest = c.stagesOf(j).flatMap(st => c.tasks.getOrElse(st.id, Nil)).map(_.durMs).maxOption
        (j.endMs - j.startMs) - longest.getOrElse(0L)
      }.sum
      val covered = unionUs(jobs.map(j => (j.startMs * 1000L, j.endMs * 1000L)), batch.startUs, batch.endUs)
      val skew = {
        val runs = stages.map(st => c.tasks.getOrElse(st.id, Nil).map(_.runMs.toDouble)).filter(_.nonEmpty)
        val mean = runs.map(r => r.sum / r.length).sum
        if (mean > 0) runs.map(_.max).sum / mean else 1.0
      }
      BatchSpark(
        jobs = jobs.length,
        tasks = tasks.length,
        taskRunS = tasks.map(_.runMs).sum / 1e3,
        taskCpuS = tasks.map(_.cpuNs).sum / 1e9,
        taskGcS = tasks.map(_.gcMs).sum / 1e3,
        taskDeserS = tasks.map(_.deserMs).sum / 1e3,
        jobIdleS = jobIdleMs / 1e3,
        driverS = (batch.durUs - covered) / 1e6,
        stageSkew = skew,
        shuffleWriteBytes = tasks.map(_.shuffleWrite).sum,
        shuffleReadBytes = tasks.map(_.shuffleRead).sum,
        resultBytes = tasks.map(_.resultBytes).sum,
      )
    }
  }
}

object Tracer {

  /** Local property carrying the id of the span a Spark job belongs to. */
  val TagKey = "perfbench.span"

  final case class JobRec(id: Int, tag: Option[String], startMs: Long, stageIds: Seq[Int], var endMs: Long)
  final case class StageRec(id: Int, startMs: Long, endMs: Long)
  final case class TaskRec(launchMs: Long, finishMs: Long, runMs: Long, cpuNs: Long, gcMs: Long,
                           deserMs: Long, shuffleRead: Long, shuffleWrite: Long, resultBytes: Long) {
    def durMs: Long = finishMs - launchMs
  }

  /** Records jobs, stages and tasks; callbacks run on the listener thread. */
  final class Collector extends SparkListener {
    val jobs = mutable.LinkedHashMap.empty[Int, JobRec]
    val stages = mutable.HashMap.empty[Int, StageRec]
    val tasks = mutable.HashMap.empty[Int, List[TaskRec]]

    /** Stages that ran in job `j`. A job also lists stages an earlier job
      * already computed (Spark skips them); a stage belongs to the first job,
      * in id order, that lists it. */
    def stagesOf(j: JobRec): Seq[StageRec] = synchronized {
      j.stageIds.filter(s => jobs.values.find(_.stageIds.contains(s)).exists(_.id == j.id))
        .flatMap(stages.get)
    }

    def sawJobEnd(tag: String): Boolean =
      synchronized(jobs.values.exists(j => j.tag.contains(tag) && j.endMs > 0))

    override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
      val tag = Option(e.properties).flatMap(p => Option(p.getProperty(TagKey)))
      jobs(e.jobId) = JobRec(e.jobId, tag, e.time, e.stageIds, 0L)
    }

    override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
      jobs.get(e.jobId).foreach(_.endMs = e.time)
    }

    override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
      val i = e.stageInfo
      stages(i.stageId) = StageRec(i.stageId, i.submissionTime.getOrElse(0L), i.completionTime.getOrElse(0L))
    }

    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
      val m = e.taskMetrics
      val rec =
        if (m == null) TaskRec(e.taskInfo.launchTime, e.taskInfo.finishTime, 0, 0, 0, 0, 0, 0, 0)
        else TaskRec(e.taskInfo.launchTime, e.taskInfo.finishTime, m.executorRunTime,
          m.executorCpuTime, m.jvmGCTime, m.executorDeserializeTime,
          m.shuffleReadMetrics.totalBytesRead, m.shuffleWriteMetrics.bytesWritten, m.resultSize)
      tasks(e.stageId) = rec :: tasks.getOrElse(e.stageId, Nil)
    }
  }

  /** Length of the union of `intervals`, clipped to `[lo, hi)`. */
  def unionUs(intervals: Seq[(Long, Long)], lo: Long, hi: Long): Long = {
    var covered = 0L
    var reach = lo
    intervals.map { case (a, b) => (math.max(a, lo), math.min(b, hi)) }
      .filter { case (a, b) => b > a }
      .sortBy(_._1)
      .foreach { case (a, b) =>
        if (b > reach) { covered += b - math.max(a, reach); reach = b }
      }
    covered
  }

  /** Self time per span name: each span's duration minus the part of it its
    * children cover, summed over spans of that name. */
  def selfTimeByName(spans: Seq[Span]): Map[String, (Int, Long, Long)] = {
    val children = spans.groupBy(_.parent)
    spans.groupBy(_.name).map { case (name, ss) =>
      val self = ss.map { s =>
        s.durUs - unionUs(children.getOrElse(s.id, Nil).map(c => (c.startUs, c.endUs)), s.startUs, s.endUs)
      }
      name -> ((ss.length, ss.map(_.durUs).sum, self.sum))
    }
  }
}
