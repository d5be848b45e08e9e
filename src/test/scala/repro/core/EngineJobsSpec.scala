package repro.core

import scala.collection.mutable

import org.apache.spark.{SparkException, SparkInternals}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageSubmitted}
import org.scalatest.concurrent.Eventually
import org.scalatest.time.{Seconds, Span}

import repro.{SparkSpec, TestFixtures => F}
import repro.ivf.IVFIndex
import repro.sim.CostParams

/** How a search uses Spark: one job per non-empty wave with one stage per
  * dimension slice, nothing left cached, and nothing left broadcast when a
  * wave fails.
  */
class EngineJobsSpec extends SparkSpec with Eventually {

  private val tagKey = "repro.test.tag"

  /** Jobs submitted under the local property `tagKey = tag`, and the stages
    * Spark actually ran for each (stages an earlier job computed are listed
    * by a job but skipped). */
  private final class JobRecorder(tag: String) extends SparkListener {
    private val jobStages = mutable.LinkedHashMap.empty[Int, Seq[Int]]
    private val submitted = mutable.Set.empty[Int]
    override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
      if (e.properties != null && e.properties.getProperty(tagKey) == tag) jobStages(e.jobId) = e.stageIds
    }
    override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
      submitted += e.stageInfo.stageId
    }
    def stagesRunPerJob: Seq[Int] = synchronized(jobStages.values.map(_.count(submitted)).toSeq)
  }

  private def search(idx: IVFIndex, store: BlockStore, nprobe: Int, pipeline: Boolean) =
    Engine.search(spark, store, idx, F.small.queries,
      EngineConfig(k = 10, nprobe = nprobe, pipeline = pipeline, maxWaves = 4), CostParams())

  // nprobe 8 in 4 waves fills every wave; nprobe 3 leaves the fourth empty;
  // without pipelining there is a single wave
  for (((bVec, bDim), nprobe, pipeline, waves) <- Seq(
         ((4, 1), 8, true, 4), ((2, 2), 8, true, 4), ((1, 4), 8, true, 4),
         ((1, 4), 3, true, 3), ((2, 2), 8, false, 1))) {
    val tag = s"${bVec}x$bDim, nprobe $nprobe, pipeline $pipeline"
    test(s"$tag: one job per non-empty wave, bDim stages each, nothing persisted") {
      val (idx, store) = F.smallStore(spark, bVec, bDim)
      val sc = spark.sparkContext
      val rec = new JobRecorder(tag)
      sc.addSparkListener(rec)
      try {
        val persistedBefore = sc.getPersistentRDDs.keySet
        sc.setLocalProperty(tagKey, tag)
        try search(idx, store, nprobe, pipeline) finally sc.setLocalProperty(tagKey, null)
        SparkInternals.drainListenerBus(sc)
        assert(rec.stagesRunPerJob == Seq.fill(waves)(bDim))
        assert(sc.getPersistentRDDs.keySet == persistedBefore)
      } finally {
        sc.removeSparkListener(rec)
        store.unpersist()
      }
    }
  }

  test("a search that fails releases its broadcasts and persists nothing") {
    val (idx, store) = F.smallStore(spark, 2, 2)
    store.unpersist() // destroys the layouts broadcast every stage task needs
    val sc = spark.sparkContext
    val broadcastsBefore = SparkInternals.broadcastIds()
    val persistedBefore = sc.getPersistentRDDs.keySet
    intercept[SparkException](search(idx, store, nprobe = 8, pipeline = true))
    eventually(timeout(Span(10, Seconds))) {
      assert((SparkInternals.broadcastIds() -- broadcastsBefore).isEmpty)
    }
    assert(sc.getPersistentRDDs.keySet == persistedBefore)
  }
}
