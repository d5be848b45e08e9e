package org.apache.spark

import org.apache.spark.storage.BroadcastBlockId

/** Test access to driver internals that Spark keeps package-private. */
object SparkInternals {

  /** Ids of the broadcast variables that still hold a block in this JVM. */
  def broadcastIds(): Set[Long] =
    SparkEnv.get.blockManager.getMatchingBlockIds(_.isBroadcast)
      .collect { case BroadcastBlockId(id, _) => id }.toSet

  /** Block until every event posted so far has reached the listeners. */
  def drainListenerBus(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
