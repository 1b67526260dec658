package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.core.CellOps._
import repro.core.Geometry.Rect

/** Connected components and rectilinear partitioning (paper §4.1, Fig 4–5). */
class SegmentationSpec extends AnyFunSuite {

  private def grid(rows: String*): FileGrid =
    Grid.fromRows("f", rows.map(_.split("\\|", -1).toSeq))

  test("empty grid has no components") {
    assert(Segmentation.connectedComponents(Grid.fromRows("f", Seq.empty)).isEmpty)
  }
  test("all-empty grid has no components") {
    assert(Segmentation.connectedComponents(grid("| |", "| |")).isEmpty)
  }
  test("single cell is one component") {
    val cs = Segmentation.connectedComponents(grid("a"))
    assert(cs.size == 1 && cs.head.runs.flatMap(_.cells) == Vector((0, 0)))
  }
  test("horizontally adjacent cells join one component") {
    assert(Segmentation.connectedComponents(grid("a|b|c")).size == 1)
  }
  test("vertically adjacent cells join one component") {
    assert(Segmentation.connectedComponents(grid("a", "b", "c")).size == 1)
  }
  test("diagonal cells are separate components (4-connectivity)") {
    assert(Segmentation.connectedComponents(grid("a| ", " |b")).size == 2)
  }
  test("empty column splits components") {
    assert(Segmentation.connectedComponents(grid("a| |b", "a| |b")).size == 2)
  }
  test("empty row splits components") {
    assert(Segmentation.connectedComponents(grid("a|a", " | ", "b|b")).size == 2)
  }
  test("component bounding box") {
    val cs = Segmentation.connectedComponents(grid("a|a| ", " |a| "))
    assert(cs.head.boundingBox == Rect(0, 0, 1, 1))
  }
  test("components cover every non-empty cell exactly once") {
    val g = grid("a| |b|b", "a| | |b", " | |b|b")
    val cs = Segmentation.connectedComponents(g)
    val all = cs.flatMap(_.runs.flatMap(_.cells))
    assert(all.size == all.distinct.size)
    assert(all.toSet == g.nonEmptyCells.toSet)
  }

  private val genGrid: Gen[FileGrid] = for {
    h    <- Gen.choose(0, 12)
    w    <- Gen.choose(0, 12)
    rows <- Gen.listOfN(h, Gen.listOfN(w, Gen.frequency(3 -> Gen.oneOf("", " "), 4 -> Gen.oneOf("1", "a", "x y"))))
  } yield Grid.fromRows("f", rows)

  test("run components equal the reference flood fill's, in order, with maximal row-major runs") {
    val params = org.scalacheck.Test.Parameters.default
      .withMinSuccessfulTests(500).withInitialSeed(Seed(19751L))
    val res = org.scalacheck.Test.check(params, Prop.forAll(genGrid) { g =>
      val got = Segmentation.connectedComponents(g)
      val want = ReferenceTyping.components(g)
      def maximal(r: Rect) =
        (r.x0 == 0 || g.image.isEmpty(r.x0 - 1, r.y0)) && (r.x1 == g.width - 1 || g.image.isEmpty(r.x1 + 1, r.y0))
      (got.map(_.runs.flatMap(_.cells).toSet) == want.map(_.cells.toSet)) :| "components" &&
        (got.map(_.boundingBox) == want.map(_.boundingBox)) :| "boxes" &&
        got.forall(c => c.runs == c.runs.sortBy(r => (r.y0, r.x0))) :| "row-major runs" &&
        got.forall(_.runs.forall(r => r.height == 1 && maximal(r))) :| "maximal one-row runs"
    })
    assert(res.passed, org.scalacheck.util.Pretty.pretty(res))
  }

  test("partition of a solid rectangle is itself") {
    val cs = Segmentation.connectedComponents(grid("a|a|a", "a|a|a"))
    assert(Segmentation.partition(cs.head) == Vector(Rect(0, 0, 2, 1)))
  }
  test("partition of a single cell is itself") {
    val cs = Segmentation.connectedComponents(grid("a"))
    assert(Segmentation.partition(cs.head) == Vector(Rect(0, 0, 0, 0)))
  }
  test("L-shaped component splits into two rectangles") {
    val g = grid("a| ", "a| ", "a|a")
    val parts = Segmentation.partition(Segmentation.connectedComponents(g).head)
    assert(parts.size == 2)
    assert(parts.toSet == Set(Rect(0, 0, 0, 1), Rect(0, 2, 1, 2)))
  }
  test("T-shaped component splits at the concave rows") {
    val g = grid("a|a|a", " |a| ")
    val parts = Segmentation.partition(Segmentation.connectedComponents(g).head)
    assert(parts.toSet == Set(Rect(0, 0, 2, 0), Rect(1, 1, 1, 1)))
  }
  test("two adjacent tables of different heights partition at the height change (Fig 5)") {
    // taller left table + shorter right table, directly adjacent
    val g = grid("a|a|b|b", "a|a|b|b", "a|a| | ")
    val parts = Segmentation.partition(Segmentation.connectedComponents(g).head)
    // shared band rows 0-1 full width, overhang row 2 on the left
    assert(parts.toSet == Set(Rect(0, 0, 3, 1), Rect(0, 2, 1, 2)))
  }
  test("partition tiles the component exactly (no overlap, full cover)") {
    val rnd = new scala.util.Random(5)
    for (_ <- 0 until 50) {
      val rows = Vector.fill(6)(Vector.fill(6)(if (rnd.nextBoolean()) "x" else ""))
      val g = Grid.fromRows("f", rows.map(_.toSeq))
      for (c <- Segmentation.connectedComponents(g)) {
        val covered = Segmentation.partition(c).flatMap(_.cells)
        assert(covered.size == covered.distinct.size, "rectangles overlap")
        assert(covered.toSet == c.runs.flatMap(_.cells).toSet, "rectangles must tile the component")
      }
    }
  }
  test("elements pipeline returns partitioned rectangles of every component") {
    val g = grid("a| |b", "a| | ")
    val es = Segmentation.elements(g)
    assert(es.toSet == Set(Rect(0, 0, 0, 1), Rect(2, 0, 2, 0)))
  }
  test("property: the elements of a ragged grid cover every non-empty cell exactly once") {
    val cell = Gen.frequency(3 -> Gen.oneOf("", " ", "\t", " \u000B "), 4 -> Gen.oneOf("1", "a", "x y", " 2 "))
    val genRagged = Gen.choose(0, 10).flatMap(h => Gen.listOfN(h, Gen.choose(0, 10).flatMap(Gen.listOfN(_, cell))))
    val params = org.scalacheck.Test.Parameters.default
      .withMinSuccessfulTests(500).withInitialSeed(Seed(8219L))
    val res = org.scalacheck.Test.check(params, Prop.forAll(genRagged) { rows =>
      val g = Grid.fromRows("f", rows)
      val es = Segmentation.elements(g)
      val covered = es.flatMap(_.cells)
      val nonEmpty = for ((row, y) <- rows.zipWithIndex; (v, x) <- row.zipWithIndex if v.trim.nonEmpty) yield (x, y)
      es.forall(e => e.x0 >= 0 && e.x0 <= e.x1 && e.x1 < g.width && e.y0 >= 0 && e.y0 <= e.y1 && e.y1 < g.height) :|
        "inside the grid" &&
        (covered.size == covered.distinct.size) :| "pairwise disjoint" &&
        (covered.toSet == nonEmpty.toSet) :| "union is the non-empty cells"
    })
    assert(res.passed, org.scalacheck.util.Pretty.pretty(res))
  }
  test("elements contain only non-empty cells") {
    val g = grid("a|a| ", "a| | ", " | |b")
    for (e <- Segmentation.elements(g); (x, y) <- e.cells)
      assert(!CellOps.isEmpty(g.cell(x, y)))
  }
}
