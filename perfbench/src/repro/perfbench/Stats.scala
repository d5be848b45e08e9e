package repro.perfbench

/** Order statistics over measured samples. */
object Stats {

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val m = s.length / 2
    if (s.length % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }

  /** The highest percentile of `xs` that has at least `beyond` samples above
    * it, as (percentile, value). Needs more than `beyond` samples. */
  def tail(xs: Seq[Double], beyond: Int = 10): (Double, Double) = {
    require(xs.length > beyond, s"${xs.length} samples cannot leave $beyond beyond a percentile")
    val s = xs.sorted
    val i = s.length - beyond - 1
    (100.0 * (i + 1) / s.length, s(i))
  }
}
