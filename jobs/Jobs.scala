package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.exp.{Experiments => E}
import repro.vectors.Datasets

/** Shared session bootstrap for the spark-submit entrypoints. */
object Jobs {
  def session(app: String): SparkSession = SparkSession.builder
    .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
    .appName(app)
    .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
    .config("spark.ui.enabled", "false")
    .getOrCreate()
}

/** `spark-submit --class repro.jobs.Table2DatasetStats` — Table 2. */
object Table2DatasetStats {
  def main(args: Array[String]): Unit =
    println(E.table2Render(E.table2()).render)
}

/** Table 3: pruning ratio per dimension slice across four nodes. */
object Table3PruningRatio {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("table3")
    try println(E.table3Render(E.table3(spark)).render) finally spark.stop()
  }
}

/** Table 4: per-node index memory, Faiss vs the three partitionings. */
object Table4IndexMemory {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("table4")
    try println(E.table4Render(E.table4(spark)).render) finally spark.stop()
  }
}

/** Table 5: peak per-node memory during query execution. */
object Table5PeakMemory {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("table5")
    try println(E.table5Render(E.table5(spark)).render) finally spark.stop()
  }
}

/** Fig 6: QPS-recall trade-off under uniform workloads. */
object Fig6Throughput {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("fig6")
    try {
      val small = Datasets.small8.map(c => E.fig6(spark, c, Seq(4, 16, 48)))
      val big = Datasets.big2.map(c => E.fig6(spark, c, Seq(16), nNodes = 16))
      println(E.fig6Render(small ++ big).render)
    } finally spark.stop()
  }
}

/** Fig 7: impact of load skew on query performance (+ Auncel, §6.5.4). */
object Fig7Skew {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("fig7")
    try {
      val curves = Datasets.small8.map(c => E.fig7(spark, c))
      println(E.fig7Render(curves).render)
    } finally spark.stop()
  }
}

/** Fig 8: time breakdown (computation / communication / other). */
object Fig8Breakdown {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("fig8")
    try println(E.fig8Render(E.fig8(spark, Datasets.small8)).render) finally spark.stop()
  }
}

/** Fig 9: ablation — balanced load / pipeline / pruning contributions. */
object Fig9Ablation {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("fig9")
    try println(E.fig9Render(E.fig9(spark, Datasets.small8)).render) finally spark.stop()
  }
}

/** Fig 10: index build time breakdown (Train / Add / Pre-assign). */
object Fig10BuildTime {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("fig10")
    try println(E.fig10Render(E.fig10(spark, Datasets.small8)).render) finally spark.stop()
  }
}

/** Fig 11: dims/size sweep and node scalability. */
object Fig11Scaling {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("fig11")
    try {
      println(E.fig11aRender(E.fig11a(spark, Seq(64, 128, 256, 512), Seq(25000, 50000, 100000))).render)
      println(E.fig11bRender("Sift1M", E.fig11b(spark, Datasets.sift1m, Seq(4, 8, 16))).render)
    } finally spark.stop()
  }
}
