package repro.ivf

import org.apache.spark.sql.SparkSession

import repro.linalg.{BoundedMaxHeap, Hit, VecOps}
import repro.vectors.VectorDataset

/** Wall-clock index-build breakdown (paper Fig 10): Train = clustering,
  * Add = assigning base vectors to centroids, PreAssign = laying blocks out
  * on (simulated) machines — the distributed-only stage, filled in by
  * [[repro.core.BlockStore]] for distributed modes and 0 for Faiss.
  */
final case class BuildTimes(trainMs: Long, addMs: Long, preAssignMs: Long) {
  def totalMs: Long = trainMs + addMs + preAssignMs
}

/** IVF-Flat index: the single-node "Faiss" comparator and the shared
  * clustered layout all Harmony modes are built from.
  *
  * `listData(c)` is a row-major `listSize(c) × dim` float array;
  * `listIds(c)(r)` is the vector id of row `r` in cluster `c`.
  */
final class IVFIndex(
    val dim: Int,
    val centroids: Array[Array[Float]],
    val listIds: Array[Array[Long]],
    val listData: Array[Array[Float]],
) extends Serializable {
  require(listIds.length == centroids.length && listData.length == centroids.length,
    "per-cluster arrays must align with centroids")

  def nlist: Int = centroids.length
  def listSize(c: Int): Int = listIds(c).length
  def nTotal: Long = listIds.map(_.length.toLong).sum

  /** Exhaustive nprobe search (Faiss-like; no early stop): the top-k hits
    * and the dim-ops spent. One scanned row × one dimension = one "dim-op";
    * 99.7% of search time in cluster-based ANNS is these (paper §1), so they
    * are the compute unit of the whole cost simulation.
    */
  def search(q: Array[Float], k: Int, nprobe: Int): (Array[Hit], Long) = {
    val probes = VecOps.nearestN(q, centroids, nprobe)
    val heap = new BoundedMaxHeap(k)
    var ops = 0L
    probes.foreach { c =>
      val ids = listIds(c)
      val rows = listData(c)
      var r = 0
      while (r < ids.length) {
        val d = VecOps.l2PartialAt(q, 0, rows, r * dim, dim)
        heap.offer(ids(r), d)
        r += 1
      }
      ops += ids.length.toLong * dim
    }
    // centroid scan cost
    ops += centroids.length.toLong * dim
    (heap.toSortedArray, ops)
  }

  /** Index bytes on a single machine: vector payload + ids + centroids.
    * This is the "Faiss" column of Table 4. */
  def sizeBytes: Long = {
    val payload = nTotal * dim * 4L
    val ids = nTotal * 8L
    val cents = nlist.toLong * dim * 4L
    payload + ids + cents
  }

  /** Per-cluster row counts (used to balance shard assignment). */
  def listSizes: Array[Int] = listIds.map(_.length)
}

object IVFIndex {

  /** The most Lloyd passes Train runs. */
  val TrainIterations: Int = 8

  /** Build the index. Train and Add both run on the driver, as the paper's
    * single-machine Faiss steps do (Figure 10): k-means, then each row's
    * nearest centroid on driver threads (`KMeans.assignAll`). `spark` is
    * unused; it stays so that the benchmark and the experiments, which pass
    * it, keep calling the same signature.
    */
  def build(spark: SparkSession, ds: VectorDataset, nlist: Int,
            seed: Long = 17L): (IVFIndex, BuildTimes) = {
    val t0 = System.nanoTime()
    val km = KMeans.fit(ds.data, nlist, maxIter = TrainIterations, seed = seed)
    val t1 = System.nanoTime()

    // cluster of each row, by row position, so ids need not be 0..n-1
    val clusterOf = KMeans.assignAll(ds.data, km.centroids).clusters
    val k = km.centroids.length
    val counts = new Array[Int](k)
    clusterOf.foreach(c => counts(c) += 1)
    val ids = Array.tabulate(k)(c => new Array[Long](counts(c)))
    val data = Array.tabulate(k)(c => new Array[Float](counts(c) * ds.dim))
    val fill = new Array[Int](k)
    var i = 0
    while (i < ds.n) {
      val c = clusterOf(i)
      val r = fill(c)
      ids(c)(r) = ds.ids(i)
      System.arraycopy(ds.data(i), 0, data(c), r * ds.dim, ds.dim)
      fill(c) += 1
      i += 1
    }
    val t2 = System.nanoTime()

    val idx = new IVFIndex(ds.dim, km.centroids, ids, data)
    val times = BuildTimes(
      trainMs = (t1 - t0) / 1000000L,
      addMs = (t2 - t1) / 1000000L,
      preAssignMs = 0L)
    (idx, times)
  }
}
