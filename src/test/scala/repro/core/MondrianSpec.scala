package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.CellOps._
import repro.core.Geometry.Rect
import repro.eval.Metrics

/** End-to-end per-file region detection (paper §4.1 + §4.2). */
class MondrianSpec extends AnyFunSuite {

  private def grid(rows: String*): FileGrid =
    Grid.fromRows("f", rows.map(_.split("\\|", -1).toSeq))

  /** A Figure-2-like file: title, one table with an internal empty row,
    * and a footnote block, all separated by 2+ empty rows.
    */
  private val census = grid(
    "Projected Infant Mortality| | ",
    " | | ",
    " | | ",
    "Sex|2010|2020",
    "BOTH|62|54",
    "MALE|69|60",
    " | | ",
    "FEMALE|55|48",
    " | | ",
    " | | ",
    "infant deaths per thousand| | ",
    "source: census bureau| | ")

  test("detects title, table and footnote as three regions") {
    val regions = Mondrian.detectRegions(census, Mondrian.DecoParams)
    assert(regions.size == 3, regions.map(_.box))
    val boxes = regions.map(_.box).sortBy(_.y0)
    assert(boxes(0) == Rect(0, 0, 0, 0))              // title
    assert(boxes(1) == Rect(0, 3, 2, 7))              // table bridges its empty row
    assert(boxes(2) == Rect(0, 10, 0, 11))            // footnote
  }

  test("empty file yields no regions") {
    assert(Mondrian.detectRegions(grid(" | ", " | "), Mondrian.DecoParams).isEmpty)
  }

  test("single solid table is one region") {
    val g = grid("1|2", "3|4", "5|6")
    val rs = Mondrian.detectRegions(g, Mondrian.DecoParams)
    assert(rs.size == 1 && rs.head.box == Rect(0, 0, 1, 2))
  }

  test("two tables separated by a wide gap are two regions") {
    val g = grid("1|2", "3|4", " | ", " | ", " | ", "5|6", "7|8")
    val rs = Mondrian.detectRegions(g, Mondrian.DecoParams)
    assert(rs.size == 2)
  }

  test("table split by an empty column is merged by the alignment term") {
    val g = grid("1|2| |3|4", "5|6| |7|8", "9|1| |2|3")
    val rs = Mondrian.detectRegions(g, Mondrian.DecoParams)
    assert(rs.size == 1 && rs.head.box == Rect(0, 0, 4, 2))
  }

  test("regions cover every non-empty cell") {
    val rs = Mondrian.detectRegions(census, Mondrian.DecoParams)
    for ((x, y) <- census.nonEmptyCells)
      assert(rs.exists(_.box.contains(x, y)), s"cell ($x,$y) uncovered")
  }

  test("small radius degenerates toward connected components (paper §5.3)") {
    val g = grid("1|2", "3|4", " | ", "5|6")
    val tiny = Mondrian.detectRegions(g, Mondrian.DecoParams.copy(eps = 0.1))
    val ccs  = Segmentation.connectedComponents(g)
    assert(tiny.size == ccs.size)
  }

  test("dynamic radius finds the gold regions when some radius does") {
    val gold = Vector(Rect(0, 0, 0, 0), Rect(0, 3, 2, 7), Rect(0, 10, 0, 11))
    val (eps, regions) = Mondrian.detectRegionsDynamic(census, Mondrian.DecoParams,
      boxes => Metrics.regionScores(census, boxes, gold).map(_._1).sum / gold.size)
    assert(Mondrian.RadiusGrid.contains(eps))
    assert(regions.map(_.box).toSet == gold.toSet)
  }

  test("dynamic radius scores each distinct partition once and keeps the first best radius") {
    val gold = Vector(Rect(0, 0, 0, 0), Rect(0, 3, 2, 7), Rect(0, 10, 0, 11))
    val elems = Segmentation.elements(census)
    val parts = Mondrian.RadiusGrid.map(eps => Clustering.clusterElements(elems, Mondrian.DecoParams.copy(eps = eps)))
    val distinct = (1 until parts.size).count(k => parts(k) != parts(k - 1)) + 1
    def score(boxes: Vector[Rect]) = Metrics.meanIou(census, boxes, gold)
    val scored = parts.map(cs => score(cs.map(Geometry.boundary)))
    var calls = 0
    val (eps, regions) = Mondrian.detectRegionsDynamic(census, Mondrian.DecoParams,
      boxes => { calls += 1; score(boxes) })
    assert(elems.size > 1 && distinct < Mondrian.RadiusGrid.size)
    assert(calls == distinct && calls <= elems.size, s"$calls calls, $distinct partitions, ${elems.size} elements")
    assert(eps == Mondrian.RadiusGrid(scored.indexOf(scored.max)))
    assert(regions.map(_.box) == parts(scored.indexOf(scored.max)).map(Geometry.boundary))
  }

  test("radius grid matches the paper's search space") {
    val g = Mondrian.RadiusGrid
    assert(math.abs(g.head - 0.1) < 1e-9)
    assert(g.last == 100.0)
    assert(g.size == 37)
    assert(g == g.sorted)
  }

  test("CC baseline returns one region per connected component") {
    val g = grid("1|2| |9", "3|4| | ")
    val rs = Mondrian.detectRegionsCC(g)
    assert(rs.map(_.box).toSet == Set(Rect(0, 0, 1, 1), Rect(3, 0, 3, 0)))
  }

  test("regionsFromBoxes preserves the given boxes") {
    val g = grid("1|2", "3|4")
    val rs = Mondrian.regionsFromBoxes(g, Vector(Rect(0, 0, 1, 0), Rect(0, 1, 1, 1)))
    assert(rs.map(_.box) == Vector(Rect(0, 0, 1, 0), Rect(0, 1, 1, 1)))
  }

  test("deco/fuste parameter presets match the paper") {
    assert(Mondrian.DecoParams == Clustering.Params(beta = 0.5, eps = 1.5))
    assert(Mondrian.FusteParams == Clustering.Params(beta = 1.0, eps = 1.4))
  }
}
