package repro.linalg

/** Test-side forms of [[VecOps]] kernels that no production caller needs. */
object TestVecOps {

  /** [[VecOps.nearest]] for one `Float` query, without a guess. Builds the
    * centroids' [[VecOps.CentroidTable]] (`k²·dim / 2` dim-ops) on every
    * call. */
  def nearest(q: Array[Float], centroids: Array[Array[Float]]): Int =
    VecOps.nearest(VecOps.widen(q), new VecOps.CentroidTable(centroids), -1, new Array[Double](1), 0, new Array[Long](1))
}
