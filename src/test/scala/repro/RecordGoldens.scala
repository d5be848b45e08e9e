package repro

import repro.core.EngineGoldenSpec
import repro.ivf.BuildGoldenSpec

/** Prints the golden maps of [[EngineGoldenSpec]] and [[BuildGoldenSpec]]
  * as the current code renders them, as Scala ready to paste over the
  * recorded maps:
  *
  * {{{
  * sbt "Test/runMain repro.RecordGoldens"
  * }}}
  *
  * Re-record only on purpose, after a change meant to move what the goldens
  * pin, and say what moved.
  */
object RecordGoldens {

  private def quoted(s: String): String = "\"" + s + "\""

  /** `s` as a string literal, split into two at a space when it is long. */
  private def literal(s: String, indent: Int): String = {
    val cut = s.lastIndexOf(' ', 85)
    if (indent + s.length + 2 <= 110 || cut < 0) quoted(s)
    else s"(${quoted(s.take(cut + 1))} +\n${" " * (indent + 2)}${quoted(s.drop(cut + 1))})"
  }

  private def printMap(header: String, entries: Seq[(String, String)]): Unit = {
    println(s"  $header = Map(")
    entries.foreach { case (key, value) => println(s"    ${quoted(key)} -> $value,") }
    println("  )")
  }

  def main(args: Array[String]): Unit = {
    val spark = SparkSpec.shared
    try {
      import EngineGoldenSpec._
      printMap("val golden: Map[String, Seq[String]]",
        for ((bVec, bDim) <- grids; balanced <- Seq(true, false)) yield {
          val lines = searchCase(spark, bVec, bDim, balanced).map(l => s"      ${quoted(l)},")
          caseKey(bVec, bDim, balanced) -> ("Seq(\n" + lines.mkString("\n") + "\n    )")
        })
      println()
      import BuildGoldenSpec.{fitCase, fitCases, indexCase}
      printMap("val goldenFit: Map[String, String]",
        fitCases.map { case (name, ds, k, sampleSize) => name -> literal(fitCase(ds, k, sampleSize), 4) })
      println()
      printMap("val goldenIndex: Map[String, String]",
        fitCases.map { case (name, ds, k, _) => name -> literal(indexCase(spark, ds, k), 4) })
    } finally spark.stop()
  }
}
