package repro.corpus

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Cells
import repro.core.CellOps._
import repro.corpus.SpreadsheetGen._

/** Synthetic corpus generator invariants. */
class SpreadsheetGenSpec extends AnyFunSuite {

  private def tmpl(cls: SizeClass, seed: Long = 42) = SpreadsheetGen.template("t", cls, seed)
  private def regionCount(t: TemplateSpec): Int = t.bands.map(_.specs.length).sum

  test("value generator respects the requested syntactic type") {
    val rnd = new scala.util.Random(1)
    val expected = Map[ColType, Cells.SynType](
      CInt -> Cells.IntegerSt, CFloat -> Cells.FloatSt, CDate -> Cells.DateSt,
      CTime -> Cells.TimeSt, CUpper -> Cells.UppercaseSt, CLower -> Cells.LowercaseSt,
      CTitle -> Cells.TitlecaseSt, CGeneric -> Cells.GenericSt)
    for (t <- AllColTypes; _ <- 0 until 50)
      assert(Cells.synType(SpreadsheetGen.value(rnd, t)) == expected(t), s"type $t")
  }

  test("template structure is deterministic in the seed") {
    assert(tmpl(FewRegions) == tmpl(FewRegions))
    assert(tmpl(FewRegions, 42) != tmpl(FewRegions, 43) ||
           tmpl(ManyRegions, 42) != tmpl(ManyRegions, 43))
  }

  test("size classes produce the advertised region counts") {
    for (seed <- 0 until 30) {
      assert(regionCount(tmpl(One, seed)) == 1)
      val few = regionCount(tmpl(FewRegions, seed))
      assert(few >= 2 && few <= 5, s"few=$few")
      val many = regionCount(tmpl(ManyRegions, seed))
      assert(many >= 6 && many <= 12, s"many=$many")
      assert(regionCount(tmpl(OutlierFile, seed)) >= 50)
    }
  }

  test("instantiate is deterministic in the file seed") {
    val t = tmpl(FewRegions)
    val a = instantiate(t, "f", 7)
    val b = instantiate(t, "f", 7)
    assert(a.rows.map(_.toSeq).toSeq == b.rows.map(_.toSeq).toSeq)
    assert(a.regions == b.regions)
  }

  test("different file seeds give different data but the same region count") {
    val t = tmpl(FewRegions)
    val a = instantiate(t, "f1", 7)
    val b = instantiate(t, "f2", 8)
    assert(a.regions.size == b.regions.size)
    assert(a.rows.map(_.toSeq).toSeq != b.rows.map(_.toSeq).toSeq)
  }

  test("gold regions match the template region count") {
    for (seed <- 0 until 10; cls <- Seq(One, FewRegions, ManyRegions)) {
      val t = SpreadsheetGen.template("t", cls, seed)
      val f = instantiate(t, "f", seed * 31)
      assert(f.regions.size == regionCount(t))
    }
  }

  test("gold region boxes lie within the grid") {
    for (seed <- 0 until 10) {
      val f = instantiate(tmpl(ManyRegions, seed), "f", seed)
      val g = f.grid
      for (r <- f.regions) {
        assert(r.box.x0 >= 0 && r.box.y0 >= 0)
        assert(r.box.x1 < g.width && r.box.y1 < g.height, s"${r.box} vs ${g.width}x${g.height}")
      }
    }
  }

  test("gold regions of one file do not overlap") {
    for (seed <- 0 until 10) {
      val f = instantiate(tmpl(ManyRegions, seed), "f", seed)
      for (Seq(a, b) <- f.regions.combinations(2)) {
        val sep = a.box.x1 < b.box.x0 || b.box.x1 < a.box.x0 ||
                  a.box.y1 < b.box.y0 || b.box.y1 < a.box.y0
        assert(sep, s"overlap ${a.box} ${b.box}")
      }
    }
  }

  test("every non-empty cell belongs to exactly one gold region") {
    for (seed <- 0 until 10) {
      val f = instantiate(tmpl(FewRegions, seed), "f", seed)
      val g = f.grid
      for ((x, y) <- g.nonEmptyCells)
        assert(f.regions.count(_.box.contains(x, y)) == 1, s"cell ($x,$y)")
    }
  }

  test("roles are consistent with content: headers and titles are non-empty cells") {
    val f = instantiate(tmpl(ManyRegions, 3), "f", 3)
    for (y <- f.rows.indices; x <- f.rows(y).indices) {
      if (f.roles(y)(x) != Role.EmptyR) assert(f.rows(y)(x).nonEmpty)
      else assert(f.rows(y)(x).isEmpty)
    }
  }

  test("bold style marks exactly headers and titles") {
    val f = instantiate(tmpl(ManyRegions, 4), "f", 4)
    for (y <- f.rows.indices; x <- f.rows(y).indices if f.bold(y)(x))
      assert(f.roles(y)(x) == Role.Header || f.roles(y)(x) == Role.Metadata)
  }

  test("table regions contain data cells; title/footnote are metadata") {
    val f = instantiate(tmpl(FewRegions, 9), "f", 9)
    for (r <- f.regions) {
      val roles = (for {
        y <- r.box.y0 to r.box.y1; x <- r.box.x0 to r.box.x1
        if f.roles(y)(x) != Role.EmptyR
      } yield f.roles(y)(x)).toSet
      r.kind match {
        case "table"                       => assert(roles.contains(Role.Data))
        case "title" | "footnote" | "notes" => assert(roles == Set(Role.Metadata))
        case k                             => fail(s"unknown kind $k")
      }
    }
  }

  test("files of one template share the schema: region kinds match, widths within ±1") {
    val t = tmpl(FewRegions, 12)
    val a = instantiate(t, "a", 1)
    val b = instantiate(t, "b", 2)
    assert(a.regions.map(_.kind) == b.regions.map(_.kind))
    // tables may gain/lose one column per file (paper Figure 2), no more
    val wa = a.regions.filter(_.kind == "table").map(_.box.width)
    val wb = b.regions.filter(_.kind == "table").map(_.box.width)
    assert(wa.size == wb.size)
    for ((x, yw) <- wa.zip(wb)) assert(math.abs(x - yw) <= 2, s"widths $wa vs $wb")
  }

  test("outlier files have many sparse regions") {
    val f = instantiate(tmpl(OutlierFile, 5), "f", 5, outlier = true)
    assert(f.outlier && f.regions.size >= 50)
  }
}
