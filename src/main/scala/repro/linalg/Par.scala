package repro.linalg

import java.util.concurrent.{Callable, ExecutorService, Executors, ThreadFactory}
import java.util.concurrent.atomic.AtomicInteger

import scala.util.Try

/** Minimal data-parallel range helper (no external deps).
  *
  * Used for driver-side hot loops (k-means training, brute-force ground
  * truth, the engine's client routing and prewarm) where Spark job overhead
  * would dominate. Deterministic: work is split into contiguous chunks,
  * results combined in chunk order. The chunks run on one shared pool of
  * daemon threads, started once per JVM; a call made from inside a chunk
  * runs its own chunks inline, so nesting cannot exhaust the pool.
  */
object Par {
  private val nThreads = math.max(1, Runtime.getRuntime.availableProcessors())

  private val inWorker = ThreadLocal.withInitial[java.lang.Boolean](() => false)

  private lazy val pool: ExecutorService = {
    val ids = new AtomicInteger()
    Executors.newFixedThreadPool(nThreads, new ThreadFactory {
      def newThread(r: Runnable): Thread = {
        val t = new Thread(() => { inWorker.set(true); r.run() }, s"repro-par-${ids.incrementAndGet()}")
        t.setDaemon(true)
        t
      }
    })
  }

  /** Run `body(lo, hi)` over disjoint chunks of `[0, n)` in parallel;
    * returns per-chunk results in chunk order. Every chunk has finished when
    * it returns or throws; a failed chunk's exception is rethrown.
    */
  def mapChunks[T](n: Int, body: (Int, Int) => T): IndexedSeq[T] = {
    if (n <= 0) return IndexedSeq.empty
    val chunks = math.min(nThreads * 2, n)
    val step = (n + chunks - 1) / chunks
    val bounds = (0 until n by step).map(lo => (lo, math.min(n, lo + step)))
    if (bounds.size == 1 || inWorker.get) return bounds.map { case (lo, hi) => body(lo, hi) }
    val futures = bounds.map { case (lo, hi) =>
      pool.submit(new Callable[T] { def call(): T = body(lo, hi) })
    }
    futures.map(f => Try(f.get())).map(_.get)
  }

  /** Parallel foreach over `[0, n)` in contiguous chunks. */
  def foreachChunk(n: Int, body: (Int, Int) => Unit): Unit = {
    mapChunks[Unit](n, body); ()
  }
}
