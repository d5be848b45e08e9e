package repro.bench

import repro.SparkSpec
import repro.exp.Experiments
import repro.vectors.Datasets

/** Fig 7 (+ §6.5.4 Auncel): QPS under increasingly skewed workloads.
  *
  * Paper: vector partitioning loses 56% QPS on average as skew grows (down
  * to 26% of balanced in the worst case); dimension partitioning and
  * Harmony show no clear degradation; Harmony beats the traditional
  * distribution by 58% on skewed loads and pure dimension splitting by up
  * to 91%; Auncel behaves like Harmony-vector.
  */
class Fig7SkewBench extends SparkSpec {

  test("Fig 7: impact of load skew on query performance (4 nodes)") {
    val curves = Datasets.small8.map(c => Experiments.fig7(spark, c)) // skew 0, 0.5, 1
    println(Experiments.fig7Render(curves).render)

    // measured load variance grows with the engineered skew
    curves.foreach { c =>
      assert(c.points.last.loadVariance > c.points.head.loadVariance, c.name)
    }

    // degradation is measured as lost cluster utilization (dim-ops/s): the
    // engineered workloads shift candidate volume, so raw QPS across skew
    // levels is not volume-comparable
    def drop(f: Experiments.F7Point => Double)(c: Experiments.F7Curve): Double =
      1.0 - f(c.points.last) / f(c.points.head)

    // vector partitioning degrades substantially on average (paper: −56%)
    val vecDrops = curves.map(drop(_.vectorOpsRate))
    assert(vecDrops.sum / vecDrops.size > 0.20, s"avg vector drop ${vecDrops.sum / vecDrops.size}")

    // dimension partitioning stays stable
    val dimDrops = curves.map(drop(_.dimensionOpsRate))
    assert(dimDrops.sum / dimDrops.size < 0.15, s"avg dimension drop ${dimDrops.sum / dimDrops.size}")

    // Harmony is the best (or near-best) strategy under maximum skew
    curves.foreach { c =>
      val p = c.points.last
      assert(p.harmonyQps > 0.85 * math.max(p.vectorQps, p.dimensionQps),
        s"${c.name}: harmony ${p.harmonyQps} vs v ${p.vectorQps} d ${p.dimensionQps}")
    }

    // Harmony gains over the traditional distribution on skewed loads
    // (paper: +58% on average)
    val gains = curves.map(c => c.points.last.harmonyQps / c.points.last.vectorQps)
    assert(gains.sum / gains.size > 1.10, s"avg harmony/vector gain ${gains.sum / gains.size}")

    // Auncel tracks Harmony-vector (same fixed partitioning, §6.5.4)
    curves.foreach { c =>
      c.points.foreach { p =>
        val ratio = p.auncelQps / p.vectorQps
        assert(ratio > 0.5 && ratio < 2.0, s"${c.name}: auncel/vector $ratio")
      }
    }
  }
}
