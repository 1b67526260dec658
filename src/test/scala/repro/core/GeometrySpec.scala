package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.CellOps._
import repro.core.Geometry._

/** Spatial relationships of Definitions 3–8. */
class GeometrySpec extends AnyFunSuite {

  private val a = Rect(0, 0, 2, 2)

  test("rect width/height/area are inclusive") {
    assert(a.width == 3 && a.height == 3 && a.area == 9)
  }
  test("degenerate rect is rejected") {
    intercept[IllegalArgumentException](Rect(2, 0, 1, 0))
  }
  test("contains is inclusive of corners") {
    assert(a.contains(0, 0) && a.contains(2, 2) && !a.contains(3, 2))
  }
  test("union covers both rectangles") {
    assert(a.union(Rect(4, 4, 5, 5)) == Rect(0, 0, 5, 5))
  }
  test("cells enumerates the full rectangle") {
    assert(Rect(1, 1, 2, 2).cells.toSet == Set((1, 1), (2, 1), (1, 2), (2, 2)))
  }

  // --- Def 3: alignment
  test("side-by-side rects sharing rows are V-aligned") {
    assert(alignment(a, Rect(5, 1, 6, 4)) == V)
  }
  test("stacked rects sharing columns are H-aligned") {
    assert(alignment(a, Rect(1, 5, 4, 6)) == H)
  }
  test("diagonal rects are not aligned") {
    assert(alignment(a, Rect(5, 5, 6, 6)) == N)
  }
  test("overlapping boxes are O-aligned (regions, Def 8)") {
    assert(alignment(a, Rect(2, 2, 4, 4)) == O)
  }
  test("alignment is symmetric") {
    val b = Rect(5, 1, 6, 4)
    assert(alignment(a, b) == alignment(b, a))
  }
  test("single shared row suffices for V") {
    assert(alignment(Rect(0, 0, 1, 2), Rect(5, 2, 6, 5)) == V)
  }
  test("touching rects sharing rows and columns overlap on the corner cell") {
    // corner-touching boxes share one (x, y): both projections overlap
    assert(alignment(a, Rect(2, 2, 5, 5)) == O)
  }

  // --- Def 4: alignment magnitude
  test("V magnitude counts shared rows") {
    assert(alignmentMagnitude(Rect(0, 0, 1, 4), Rect(5, 2, 6, 8)) == 3)
  }
  test("H magnitude counts shared columns") {
    assert(alignmentMagnitude(Rect(0, 0, 4, 1), Rect(2, 5, 9, 6)) == 3)
  }
  test("N magnitude is zero") {
    assert(alignmentMagnitude(a, Rect(5, 5, 6, 6)) == 0)
  }
  test("O magnitude is the overlap area (Def 8)") {
    assert(alignmentMagnitude(Rect(0, 0, 3, 3), Rect(2, 2, 5, 5)) == 4)
  }
  test("figure-3 example: one-cell overlap has magnitude 1") {
    assert(alignmentMagnitude(Rect(0, 0, 2, 2), Rect(2, 2, 4, 4)) == 1)
  }

  // --- Def 5: distance
  test("adjacent side-by-side elements have distance 0") {
    assert(distance(Rect(0, 0, 2, 2), Rect(3, 0, 4, 2)) == 0.0)
  }
  test("one empty column between V-aligned elements gives distance 1") {
    assert(distance(Rect(0, 0, 2, 2), Rect(4, 0, 5, 2)) == 1.0)
  }
  test("one empty row between H-aligned elements gives distance 1") {
    assert(distance(Rect(0, 0, 2, 2), Rect(0, 4, 2, 5)) == 1.0)
  }
  test("diagonal distance is the Euclidean gap of closest corners") {
    // gap of 1 column and 1 row
    assert(distance(Rect(0, 0, 1, 1), Rect(3, 3, 4, 4)) == math.sqrt(2.0))
  }
  test("overlapping regions have distance 0 (Def 8)") {
    assert(distance(Rect(0, 0, 3, 3), Rect(2, 2, 5, 5)) == 0.0)
  }
  test("distance is symmetric") {
    val b = Rect(7, 9, 8, 11)
    assert(distance(a, b) == distance(b, a))
  }

  // --- spatial relationship vector
  test("figure-3 overlap example yields ('O', 1, 0)") {
    val r = spatialRel(Rect(0, 0, 2, 2), Rect(2, 2, 4, 4))
    assert(r == SpatialRel(O, 1, 0.0))
  }
  test("spatialRel for separated aligned elements") {
    val r = spatialRel(Rect(0, 0, 2, 2), Rect(0, 5, 2, 7))
    assert(r == SpatialRel(H, 3, 2.0))
  }

  // --- clustering distance terms (§4.2)
  test("sizeDifference of equal areas is 0") {
    assert(sizeDifference(a, Rect(10, 10, 12, 12)) == 0.0)
  }
  test("sizeDifference approaches 1 for very unequal areas") {
    val d = sizeDifference(Rect(0, 0, 0, 0), Rect(0, 0, 9, 9))
    assert(d == 1.0 - 1.0 / 100.0)
  }
  test("sizeDifference is symmetric") {
    val b = Rect(0, 0, 4, 1)
    assert(sizeDifference(a, b) == sizeDifference(b, a))
  }
  test("misalignment of column-identical stacked elements is 0") {
    assert(misalignment(Rect(0, 0, 4, 2), Rect(0, 5, 4, 9)) == 0.0)
  }
  test("misalignment of row-identical side-by-side elements is 0") {
    assert(misalignment(Rect(0, 0, 2, 4), Rect(6, 0, 8, 4)) == 0.0)
  }
  test("misalignment grows with corner offset") {
    val small = misalignment(Rect(0, 0, 4, 2), Rect(1, 5, 5, 9))
    val large = misalignment(Rect(0, 0, 4, 2), Rect(3, 5, 9, 9))
    assert(small < large)
  }

  // --- Def 7: boundary
  test("boundary is the bounding box of all elements") {
    assert(boundary(Seq(Rect(1, 1, 2, 2), Rect(5, 0, 6, 1), Rect(0, 4, 1, 5))) == Rect(0, 0, 6, 5))
  }
  test("boundary of a single element is itself") {
    assert(boundary(Seq(a)) == a)
  }

  test("alignment trichotomy: every pair is exactly one of V/H/O/N") {
    val rnd = new scala.util.Random(3)
    for (_ <- 0 until 300) {
      def rect(): Rect = {
        val x0 = rnd.nextInt(10); val y0 = rnd.nextInt(10)
        Rect(x0, y0, x0 + rnd.nextInt(5), y0 + rnd.nextInt(5))
      }
      val (p, q) = (rect(), rect())
      val al = alignment(p, q)
      assert(Seq(V, H, O, N).contains(al))
      if (al == O) assert(distance(p, q) == 0.0)
      if (al == N) assert(alignmentMagnitude(p, q) == 0)
    }
  }
}
