package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.core.CellOps._
import repro.core.Geometry.Rect
import repro.core.Serial.{viaSpark, viaStream}

/** CSV parsing, grid normalization (paper §4.1) and the grid's serialized
  * form.
  */
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

  // ------------------------------------------------- serialized form

  private def holds(prop: Prop): Unit = {
    val params = org.scalacheck.Test.Parameters.default
      .withMinSuccessfulTests(300).withInitialSeed(Seed(20140L))
    val res = org.scalacheck.Test.check(params, prop)
    assert(res.passed, org.scalacheck.util.Pretty.pretty(res))
  }

  /** Strings of any UTF-16 code units, lone surrogates included. */
  private val anyStr: Gen[String] = Gen.stringOf(Gen.choose(Char.MinValue, Char.MaxValue))

  /** Cells that csv files and the type automata find awkward. */
  private val genCell: Gen[String] = Gen.frequency(
    6 -> Gen.const(""),
    2 -> Gen.oneOf(" ", "  ", "\t", " \r\n "),
    2 -> Gen.oneOf("\u0000", "a\u0000b", "\"", "say \"hi\"", "a,b", ",", "line 1\nline 2", "b,\r\nc", "\r"),
    2 -> Gen.oneOf("\uD83D\uDE00", "x\uD835\uDC9Cy", "\u00e9t\u00e9", "\uD800", "\uDFFF"),
    4 -> Gen.oneOf("1", "2.5", "1/2/2003", "12:30", "MWH", "rate", "Firm Sales", "aVg/day"),
    2 -> Gen.asciiStr,
    1 -> anyStr)

  /** Ragged grids: each row draws its own width, 0 included. */
  private val genRagged: Gen[FileGrid] = for {
    id   <- Gen.oneOf(Gen.const("f"), anyStr)
    h    <- Gen.choose(0, 8)
    rows <- Gen.listOfN(h, Gen.choose(0, 8).flatMap(w => Gen.listOfN(w, genCell)))
  } yield FileGrid(id, rows.map(_.toArray).toArray)

  /** The copy has the original's id, shape and cells. */
  private def sameGrid(copy: FileGrid, g: FileGrid): Boolean =
    copy.fileId == g.fileId && copy.height == g.height && copy.width == g.width &&
      copy.rows.map(_.toSeq).toSeq == g.rows.map(_.toSeq).toSeq

  /** Its image has the original's id, shape and codes. */
  private def sameImage(copy: FileGrid, g: FileGrid): Boolean =
    copy.image.fileId == g.fileId && copy.image.width == g.width && copy.image.height == g.height &&
      (0 until g.height).forall(y => (0 until g.width).forall(x => copy.typeCode(x, y) == g.typeCode(x, y)))

  /** The type codes of `g`'s image, row-major. */
  private def codes(g: FileGrid): Seq[Int] = for (y <- 0 until g.height; x <- 0 until g.width) yield g.image.code(x, y)

  test("serialized grids round-trip, ragged ones included") {
    holds(Prop.forAll(genRagged) { g =>
      val viaS = viaSpark(g); val viaO = viaStream(g)
      (sameGrid(viaS, g) && sameImage(viaS, g)) :| "JavaSerializer" &&
        (sameGrid(viaO, g) && sameImage(viaO, g)) :| "ObjectOutputStream"
    })
  }

  test("a ragged grid types the cells past the end of a short row as Empty") {
    val g = FileGrid("f", Array(Array("1", "a", ""), Array("2"), Array.empty[String]))
    assert(g.width == 3 && g.height == 3)
    assert(codes(g) == Seq(Cells.IntegerSt.code, Cells.LowercaseSt.code, 0, Cells.IntegerSt.code, 0, 0, 0, 0, 0))
  }

  test("a row longer than the first widens the grid, and its cells are typed and segmented") {
    val g = FileGrid("f", Array(Array("x"), Array("1", "2")))
    assert(g.width == 2 && g.height == 2)
    assert(g.rows.map(_.toSeq).toSeq == Seq(Seq("x", ""), Seq("1", "2")))
    assert(codes(g) == Seq(Cells.LowercaseSt.code, 0, Cells.IntegerSt.code, Cells.IntegerSt.code))
    assert(Segmentation.elements(g) == Vector(Rect(0, 0, 0, 0), Rect(0, 1, 1, 1)))
  }

  test("serialized padded grids type every cell the same") {
    holds(Prop.forAll(genRagged) { r =>
      val g = Grid.fromRows(r.fileId, r.rows.map(_.toSeq).toSeq)
      val viaS = viaSpark(g)
      val viaO = viaStream(g)
      sameGrid(viaS, g) && sameGrid(viaO, g) && sameImage(viaS, g) && sameImage(viaO, g)
    })
  }

  test("serialized grids round-trip their edge cases") {
    val long = ("\u00e9x" * 40000) + "\uD83D\uDE00" // 80,002 chars, past writeUTF's 65,535
    val grids = Seq(
      FileGrid("no rows", Array.empty),
      FileGrid("empty rows", Array(Array.empty[String], Array.empty[String])),
      FileGrid("blank", Array(Array("", " ", "\t"), Array("", "", ""))),
      FileGrid("long", Array(Array("a", long, ""), Array(long, "", "1"))),
      Grid.fromCsv("csv", "a,\"b,\r\nc\"\r\n\"say \"\"hi\"\"\",\u0000\n\n1"))
    for (g <- grids) {
      assert(sameGrid(viaSpark(g), g) && sameImage(viaSpark(g), g), g.fileId)
      assert(sameGrid(viaStream(g), g) && sameImage(viaStream(g), g), g.fileId)
    }
  }
}
