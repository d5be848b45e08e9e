package repro.exp

/** Plain-text table rendering shared by jobs/ and bench/. */
object ExpUtil {

  final case class Table(title: String, header: Seq[String], rows: Seq[Seq[String]]) {
    def render: String = {
      val all = header +: rows
      val widths = header.indices.map(i => all.map(r => r(i).length).max)
      def line(r: Seq[String]): String =
        r.zipWithIndex.map { case (c, i) => c.padTo(widths(i), ' ') }.mkString("| ", " | ", " |")
      val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
      (Seq(s"== $title ==", line(header), sep) ++ rows.map(line)).mkString("\n")
    }
  }

  def pct(x: Double): String = f"${x * 100}%.2f"
  def f2(x: Double): String = f"$x%.2f"
  def f1(x: Double): String = f"$x%.1f"

  /** Human-readable byte size matching the paper's MB/GB units. */
  def human(bytes: Long): String = {
    val kb = 1024.0; val mb = kb * 1024; val gb = mb * 1024
    if (bytes >= gb) f"${bytes / gb}%.2fGB"
    else if (bytes >= mb) f"${bytes / mb}%.1fMB"
    else f"${bytes / kb}%.1fKB"
  }
}
