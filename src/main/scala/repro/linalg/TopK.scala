package repro.linalg

import scala.collection.mutable

/** One scored search hit: vector `id` at squared distance `dist`. */
final case class Hit(id: Long, dist: Double)

object Hit {
  /** Ascending by (dist, id), `Double.compare` then `Long.compare`: the
    * order of `Ordering.by(h => (h.dist, h.id))` without a boxed tuple per
    * comparison. */
  val byDistThenId: Ordering[Hit] = (a: Hit, b: Hit) => {
    val c = java.lang.Double.compare(a.dist, b.dist)
    if (c != 0) c else java.lang.Long.compare(a.id, b.id)
  }
}

/** Bounded max-heap holding the K best (smallest-distance) candidates.
  *
  * This is the paper's per-query top-K heap: `threshold` is the pruning
  * bound τ² — the worst distance currently in the heap once it is full,
  * `+∞` before that. Insertion dedupes by id (keeping the smaller distance)
  * so prewarmed candidates recomputed by a worker are not double-counted.
  */
final class BoundedMaxHeap(val k: Int) {
  require(k > 0, s"k must be positive, got $k")

  private val heap = mutable.PriorityQueue.empty[Hit](Hit.byDistThenId) // max-heap on (dist, id)
  private val byId = mutable.HashMap.empty[Long, Double]

  /** Current pruning threshold τ²: worst kept distance when full, else +∞. */
  def threshold: Double = if (heap.size < k) Double.PositiveInfinity else heap.head.dist

  def size: Int = heap.size

  /** Offer a candidate; returns true if it entered (or improved) the heap. */
  def offer(id: Long, dist: Double): Boolean = {
    byId.get(id) match {
      case Some(prev) if prev <= dist => false
      case Some(_) =>
        // improve an existing id: rebuild lazily by filtering
        val kept = heap.toSeq.filterNot(_.id == id)
        heap.clear(); kept.foreach(heap.enqueue(_))
        byId.update(id, dist)
        heap.enqueue(Hit(id, dist))
        true
      case None =>
        if (heap.size < k) {
          heap.enqueue(Hit(id, dist)); byId.update(id, dist); true
        } else if (dist < heap.head.dist ||
                   (dist == heap.head.dist && id < heap.head.id)) {
          val evicted = heap.dequeue()
          byId.remove(evicted.id)
          heap.enqueue(Hit(id, dist)); byId.update(id, dist); true
        } else false
    }
  }

  /** Best-first (ascending distance, then id) snapshot. */
  def toSortedArray: Array[Hit] = heap.toArray.sorted(Hit.byDistThenId)

  def contains(id: Long): Boolean = byId.contains(id)
}

object TopK {
  /** Exact top-K by linear scan — the ground-truth primitive. */
  def bruteForce(q: Array[Float], ids: Array[Long], data: Array[Array[Float]], k: Int): Array[Hit] = {
    require(ids.length == data.length, "ids/data length mismatch")
    val h = new BoundedMaxHeap(k)
    var i = 0
    while (i < ids.length) { h.offer(ids(i), VecOps.l2(q, data(i))); i += 1 }
    h.toSortedArray
  }
}
