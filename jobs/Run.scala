package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.exp.Experiments.{Artifact, Artifacts}

/** `Run [name ...]`: runs the named artifacts of the experiment registry
  * (`Experiments.Artifacts`), or all of them when no name is given, and
  * prints their tables. `sbt "runMain repro.jobs.Run table3"`, or
  * `spark-submit --class repro.jobs.Run`.
  */
object Run {

  /** The artifacts named, in the order given; all of them for none. */
  def select(names: Seq[String]): Seq[Artifact[_]] = {
    val known = Artifacts.all.map(a => a.name -> a).toMap
    val unknown = names.filterNot(known.contains)
    require(unknown.isEmpty, s"unknown artifact ${unknown.mkString(", ")}; " +
      s"known: ${Artifacts.all.map(_.name).mkString(", ")}")
    if (names.isEmpty) Artifacts.all else names.map(known)
  }

  def main(args: Array[String]): Unit = {
    val artifacts = select(args.toSeq)
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    try artifacts.foreach(_.tables(spark).foreach(t => println(t.render)))
    finally spark.stop()
  }
}
