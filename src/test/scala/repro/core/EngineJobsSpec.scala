package repro.core

import scala.collection.mutable

import org.apache.spark.{SparkException, SparkInternals}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageSubmitted}
import org.scalatest.concurrent.Eventually
import org.scalatest.time.{Seconds, Span}

import repro.{SparkSpec, TestFixtures => F}
import repro.ivf.IVFIndex

/** How a search uses Spark: one job per batch with one stage per non-empty
  * wave and dimension slice, one broadcast released before it returns,
  * nothing left cached, and nothing left broadcast when a search fails.
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
    Engine.search(spark, store, idx, F.small.queries, HarmonyConfig(nNodes = store.plan.nNodes,
      k = 10, nprobe = nprobe, pipeline = pipeline, maxWaves = 4))

  // nprobe 8 in 4 waves fills every wave; nprobe 3 leaves the fourth empty;
  // without pipelining there is a single wave
  for (((bVec, bDim), nprobe, pipeline, waves) <- Seq(
         ((4, 1), 8, true, 4), ((2, 2), 8, true, 4), ((1, 4), 8, true, 4),
         ((1, 4), 3, true, 3), ((2, 2), 8, false, 1))) {
    val tag = s"${bVec}x$bDim, nprobe $nprobe, pipeline $pipeline"
    test(s"$tag: one job per batch running non-empty waves × bDim stages, one broadcast, nothing persisted") {
      val (idx, store) = F.smallStore(spark, bVec, bDim)
      val sc = spark.sparkContext
      val rec = new JobRecorder(tag)
      sc.addSparkListener(rec)
      try {
        val persistedBefore = sc.getPersistentRDDs.keySet
        // broadcast ids are allocated in sequence: the engine's own come
        // before its job is submitted, then Spark adds one task binary per
        // stage it runs; probes on either side delimit the search's ids
        val before = sc.broadcast(0)
        before.destroy()
        sc.setLocalProperty(tagKey, tag)
        try search(idx, store, nprobe, pipeline) finally sc.setLocalProperty(tagKey, null)
        val after = sc.broadcast(0)
        after.destroy()
        SparkInternals.drainListenerBus(sc)
        assert(rec.stagesRunPerJob == Seq(waves * bDim))
        val created = after.id - before.id - 1
        assert(created - waves * bDim == 1, s"$created broadcasts for ${waves * bDim} stages")
        eventually(timeout(Span(10, Seconds))) {
          assert(!SparkInternals.broadcastIds().contains(before.id + 1), "the search's broadcast is alive")
        }
        assert(sc.getPersistentRDDs.keySet == persistedBefore)
      } finally {
        sc.removeSparkListener(rec)
        store.unpersist()
      }
    }
  }

  test("a search that fails releases its broadcasts and persists nothing") {
    val (idx, store) = F.smallStore(spark, 2, 2)
    store.unpersist() // drops the locally checkpointed blocks: the search fails before its job
    val sc = spark.sparkContext
    val broadcastsBefore = SparkInternals.broadcastIds()
    val persistedBefore = sc.getPersistentRDDs.keySet
    intercept[SparkException](search(idx, store, nprobe = 8, pipeline = true))
    eventually(timeout(Span(10, Seconds))) {
      assert((SparkInternals.broadcastIds() -- broadcastsBefore).isEmpty)
    }
    assert(sc.getPersistentRDDs.keySet == persistedBefore)
  }

  test("a search that fails inside its tasks releases its broadcast and persists nothing") {
    // the blocks of a 4×1 store under a 2×2 plan: node 1 holds block (1, 0)
    // where the plan puts (0, 1), so the stage tasks' block check throws
    val (idx, rows) = F.smallStore(spark, 4, 1)
    val plan = PartitionPlan.build(2, 2, idx.dim, idx.listSizes.map(_.toDouble), balanced = true)
    val mismatched = new BlockStore(plan, rows.layouts, rows.blocks, rows.preAssignMs)
    val sc = spark.sparkContext
    try {
      val persistedBefore = sc.getPersistentRDDs.keySet
      // the engine's broadcast takes the first id after this probe
      val before = sc.broadcast(0)
      before.destroy()
      intercept[SparkException](search(idx, mismatched, nprobe = 8, pipeline = true))
      // only the engine's own: the task binaries of the failed stages (the
      // later ids) are Spark's, released at the driver's next GC, outside
      // the engine's control
      eventually(timeout(Span(10, Seconds))) {
        assert(!SparkInternals.broadcastIds().contains(before.id + 1), "the search's broadcast is alive")
      }
      assert(sc.getPersistentRDDs.keySet == persistedBefore)
    } finally rows.unpersist()
  }
}
