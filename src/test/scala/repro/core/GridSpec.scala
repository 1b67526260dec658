package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.CellOps._

/** CSV parsing and grid normalization (paper §4.1). */
class GridSpec extends AnyFunSuite {

  /** The fields of one csv line: the only row [[Grid.fromCsv]] reads. */
  private def splitCsvLine(line: String, delim: Char = ','): Array[String] = {
    val g = Grid.fromCsv("f", line, delim)
    assert(g.height == 1)
    g.rows.head
  }

  test("splitCsvLine on plain fields") {
    assert(splitCsvLine("a,b,c").toSeq == Seq("a", "b", "c"))
  }
  test("splitCsvLine keeps empty fields") {
    assert(splitCsvLine("a,,c,").toSeq == Seq("a", "", "c", ""))
  }
  test("splitCsvLine honors quoted delimiter") {
    assert(splitCsvLine("\"a,b\",c").toSeq == Seq("a,b", "c"))
  }
  test("splitCsvLine unescapes doubled quotes") {
    assert(splitCsvLine("\"say \"\"hi\"\"\",x").toSeq == Seq("say \"hi\"", "x"))
  }
  test("splitCsvLine with custom delimiter") {
    assert(splitCsvLine("a;b;c", ';').toSeq == Seq("a", "b", "c"))
  }
  test("single field line") {
    assert(splitCsvLine("only").toSeq == Seq("only"))
  }

  test("fromCsv pads ragged rows to the longest") {
    val g = Grid.fromCsv("f", "a,b,c\nx\n1,2")
    assert(g.width == 3 && g.height == 3)
    assert(g.cell(1, 1) == "" && g.cell(2, 2) == "")
  }
  test("fromCsv drops trailing blank lines") {
    val g = Grid.fromCsv("f", "a,b\n\n\n")
    assert(g.height == 1)
  }
  test("fromCsv keeps interior blank lines as empty rows") {
    val g = Grid.fromCsv("f", "a\n\nb")
    assert(g.height == 3)
    assert(CellOps.isEmpty(g.cell(0, 1)))
  }
  test("empty text yields an empty grid") {
    val g = Grid.fromCsv("f", "")
    assert(g.height == 0 && g.width == 0 && g.nonEmptyCells.isEmpty)
  }

  test("fromCsv keeps a quoted newline inside its field") {
    val g = Grid.fromCsv("f", "a,\"line 1\nline 2\",c\nx,y,z\n")
    assert(g.height == 2 && g.width == 3)
    assert(g.cell(1, 0) == "line 1\nline 2" && g.cell(2, 0) == "c" && g.cell(0, 1) == "x")
  }
  test("fromCsv reads \\r\\n line ends, also inside quotes") {
    val g = Grid.fromCsv("f", "a,\"b,\r\nc\"\r\n1,2\r\n\r\n")
    assert(g.height == 2 && g.width == 2)
    assert(g.cell(1, 0) == "b,\r\nc" && g.cell(0, 1) == "1" && g.cell(1, 1) == "2")
  }
  test("fromCsv of a header-only file is one row") {
    for (text <- Seq("a,b,c", "a,b,c\n", "a,b,c\r\n"))
      assert(Grid.fromCsv("f", text).rows.map(_.toSeq).toSeq == Seq(Seq("a", "b", "c")), text)
  }

  test("fromRows pads to the longest row") {
    val g = Grid.fromRows("f", Seq(Seq("a"), Seq("b", "c")))
    assert(g.width == 2 && g.cell(1, 0) == "")
  }

  test("cell coordinates are (x=column, y=row)") {
    val g = Grid.fromCsv("f", "a,b\nc,d")
    assert(g.cell(1, 0) == "b" && g.cell(0, 1) == "c")
  }

  test("nonEmptyCells skips whitespace-only cells") {
    val g = Grid.fromRows("f", Seq(Seq("a", " ", "b")))
    assert(g.nonEmptyCells == Seq((0, 0), (2, 0)))
  }

  test("typeCode matches Cells.synType") {
    val g = Grid.fromCsv("f", "12,Firm Sales")
    assert(g.typeCode(0, 0) == Cells.IntegerSt.code)
    assert(g.typeCode(1, 0) == Cells.TitlecaseSt.code)
  }

  test("image dimensions equal M rows x N columns") {
    val g = Grid.fromCsv("f", "1,2,3,4\n5,6,7,8\n9,10,11,12")
    assert(g.height == 3 && g.width == 4)
  }
}
