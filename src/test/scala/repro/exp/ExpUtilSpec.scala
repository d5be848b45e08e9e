package repro.exp

import org.scalatest.funsuite.AnyFunSuite

class ExpUtilSpec extends AnyFunSuite {

  test("table renders header, separator and rows with aligned columns") {
    val t = ExpUtil.Table("T", Seq("a", "bb"), Seq(Seq("1", "2"), Seq("333", "4")))
    val lines = t.render.split("\n")
    assert(lines(0) == "== T ==")
    assert(lines.length == 5)
    // all body lines equal length
    assert(lines.drop(1).map(_.length).distinct.length == 1)
    assert(lines(1).contains("a") && lines(1).contains("bb"))
    assert(lines(3).contains("1"))
  }

  test("pct formats fractions as percentages") {
    assert(ExpUtil.pct(0.5) == "50.00")
    assert(ExpUtil.pct(0.97436) == "97.44")
  }

  test("f1/f2 format decimals") {
    assert(ExpUtil.f2(1.005) == "1.00" || ExpUtil.f2(1.005) == "1.01")
    assert(ExpUtil.f1(2.34) == "2.3")
  }

  test("human sizes switch units like the paper's tables") {
    assert(ExpUtil.human(512L * 1024) == "512.0KB")
    assert(ExpUtil.human(128L * 1024 * 1024) == "128.0MB")
    assert(ExpUtil.human(3L * 1024 * 1024 * 1024 + 200L * 1024 * 1024) == "3.20GB")
  }
}
