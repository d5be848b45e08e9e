package repro.perfbench

import repro.linalg.{BoundedMaxHeap, VecOps}

/** Single-thread timings of the `repro.linalg` kernels: a warm-up, then the
  * median of repeated timed runs. Plain JVM timing (no JMH). */
object Micro {

  @volatile private var sink = 0.0

  private def timeNs(body: => Unit): Double = {
    val t0 = System.nanoTime()
    body
    (System.nanoTime() - t0).toDouble
  }

  /** `l2PartialAt` throughput at slice length `len`, in G dim-ops/s. */
  def l2Gdops(len: Int, seed: Long): Double = {
    val rows = math.max(1, (1 << 18) / len)
    val rnd = new java.util.Random(seed)
    val q = Array.fill(len)(rnd.nextFloat())
    val block = Array.fill(rows * len)(rnd.nextFloat())
    def rep(): Double = timeNs {
      var s = 0.0
      var r = 0
      while (r < rows) { s += VecOps.l2PartialAt(q, 0, block, r * len, len); r += 1 }
      sink += s
    }
    (0 until 300).foreach(_ => rep())
    rows.toDouble * len / Stats.median(Seq.fill(101)(rep()))
  }

  /** Microseconds per `nearestN` call over `queries`. */
  def nearestNus(queries: Array[Array[Float]], centroids: Array[Array[Float]], n: Int): Double = {
    def rep(): Double = timeNs {
      queries.foreach(q => sink += VecOps.nearestN(q, centroids, n)(0))
    } / queries.length / 1e3
    (0 until 10).foreach(_ => rep())
    Stats.median(Seq.fill(15)(rep()))
  }

  /** Nanoseconds per `BoundedMaxHeap.offer` on a stream of random distances. */
  def heapOfferNs(k: Int, seed: Long): Double = {
    val n = 100000
    val rnd = new java.util.Random(seed)
    val dists = Array.fill(n)(rnd.nextDouble())
    def rep(): Double = timeNs {
      val h = new BoundedMaxHeap(k)
      var i = 0
      while (i < n) { h.offer(i.toLong, dists(i)); i += 1 }
      sink += h.threshold
    } / n
    (0 until 30).foreach(_ => rep())
    Stats.median(Seq.fill(31)(rep()))
  }
}
