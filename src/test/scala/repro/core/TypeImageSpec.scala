package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.core.CellOps._
import repro.core.Geometry.Rect
import repro.eval.Metrics

/** The type image and the stages that read it: box counts from summed-area
  * tables must equal cell-by-cell counts, and fingerprints, IoU and
  * segmentation must equal [[ReferenceTyping]]'s, which re-types every cell.
  */
class TypeImageSpec extends AnyFunSuite {

  private def holds(prop: Prop): Unit = {
    val params = org.scalacheck.Test.Parameters.default
      .withMinSuccessfulTests(500).withInitialSeed(Seed(20213L))
    val res = org.scalacheck.Test.check(params, prop)
    assert(res.passed, org.scalacheck.util.Pretty.pretty(res))
  }

  /** Cell contents of every type, whitespace-only cells and free text. */
  private val genCell: Gen[String] = Gen.frequency(
    4 -> Gen.oneOf("", " ", " \t "),
    6 -> Gen.oneOf("12", "-3", "47.74", ".5", "17:00", "17/9/20", "MWH", "real/time",
                   "Firm Sales", "System avg. =", "x1", "#"),
    1 -> Gen.stringOfN(3, Gen.oneOf('a', 'B', '1', '.', ' ', '/', ':')))

  private val genGrid: Gen[FileGrid] = for {
    h    <- Gen.choose(0, 9)
    w    <- Gen.choose(0, 9)
    rows <- Gen.listOfN(h, Gen.listOfN(w, genCell))
  } yield Grid.fromRows("f", rows)

  /** Boxes inside, overhanging, or wholly outside a grid of up to 9 × 9. */
  private def genBox(min: Int): Gen[Rect] = for {
    x0 <- Gen.choose(min, 11); y0 <- Gen.choose(min, 11)
    w  <- Gen.choose(1, 7);    h  <- Gen.choose(1, 7)
  } yield Rect(x0, y0, x0 + w - 1, y0 + h - 1)

  /** Two boxes: independent (often disjoint), nested, or identical. */
  private val genBoxPair: Gen[(Rect, Rect)] = Gen.oneOf(
    for (a <- genBox(-3); b <- genBox(-3)) yield (a, b),
    for (a <- genBox(-3); dx <- Gen.choose(0, 2); dy <- Gen.choose(0, 2))
      yield (a, Rect(a.x0 + dx, a.y0 + dy, math.max(a.x0 + dx, a.x1 - dx), math.max(a.y0 + dy, a.y1 - dy))),
    genBox(-3).map(a => (a, a)))

  private def bits(h: Array[Double]): Seq[Long] = h.toSeq.map(java.lang.Double.doubleToRawLongBits)

  test("the image holds Cells.synType of every cell") {
    holds(Prop.forAllNoShrink(genGrid) { g =>
      (for (y <- 0 until g.height; x <- 0 until g.width)
        yield g.image.code(x, y) == Cells.synType(g.cell(x, y)).code &&
          g.image.isEmpty(x, y) == CellOps.isEmpty(g.cell(x, y))).forall(identity)
    })
  }

  test("box counts equal cell-by-cell counts for every type") {
    holds(Prop.forAllNoShrink(genGrid, genBox(-3)) { (g, box) =>
      val inGrid = box.cells.filter { case (x, y) => x >= 0 && y >= 0 && x < g.width && y < g.height }
      val want = Cells.all.map(t => inGrid.count { case (x, y) => Cells.synType(g.cell(x, y)) == t })
      val got = Cells.all.map(t => g.image.count(t.code, box))
      (got == want) :| s"counts $got != $want" &&
        (g.image.nonEmpty(box) == want.sum - want(Cells.Empty.code)) :| "nonEmpty"
    })
  }

  test("a serialized image keeps every code, count and nonEmpty, and writes no summed-area table") {
    val shapes = Gen.oneOf(Grid.fromRows("0 x 0", Seq.empty), FileGrid("0 wide", Array.fill(3)(Array.empty[String])))
    holds(Prop.forAllNoShrink(Gen.frequency(9 -> genGrid, 1 -> shapes), Gen.listOfN(20, genBox(-3))) { (g, boxes) =>
      val img = g.image
      boxes.foreach(img.nonEmpty) // the table is built before the image is written
      def same(c: TypeImage): Boolean =
        c.fileId == img.fileId && c.width == img.width && c.height == img.height &&
          (for (y <- 0 until img.height; x <- 0 until img.width) yield c.code(x, y) == img.code(x, y)).forall(identity) &&
          boxes.forall(b => c.nonEmpty(b) == img.nonEmpty(b) && Cells.all.forall(t => c.count(t.code, b) == img.count(t.code, b)))
      val objects = Serial.written(img)
      same(Serial.viaSpark(img)) :| "JavaSerializer" && same(Serial.viaStream(img)) :| "ObjectOutputStream" &&
        !objects.exists(_.isInstanceOf[Array[Int]]) :| s"an Int array was written: ${objects.map(_.getClass)}"
    })
  }

  test("histogram equals the cell-by-cell reference bit for bit") {
    holds(Prop.forAllNoShrink(genGrid, genBox(-3)) { (g, box) =>
      bits(RegionSimilarity.histogram(RegionSimilarity.counts(g, box))) == bits(ReferenceTyping.histogram(g, box))
    })
  }

  test("fromBox equals the reference: box, elements, histogram bits and cellCount") {
    // the reference indexes the grid with the box's coordinates, so it
    // accepts boxes that overhang or miss the grid only to the right/below
    holds(Prop.forAllNoShrink(genGrid, genBox(0)) { (g, box) =>
      val a = RegionSimilarity.fromBox(g, box); val b = ReferenceTyping.fromBox(g, box)
      a.fileId == b.fileId && a.box == b.box && a.elements == b.elements &&
        a.counts.toSeq == b.counts.toSeq && bits(a.histogram) == bits(b.histogram) && a.cellCount == b.cellCount
    })
  }

  test("IoU equals the reference exactly") {
    holds(Prop.forAllNoShrink(genGrid, genBoxPair) { case (g, (p, t)) =>
      val got = Metrics.iou(g, p, t); val want = ReferenceTyping.iou(g, p, t)
      (got == want) :| s"iou $got != $want"
    })
  }

  test("IoU of two all-empty boxes is 1, of disjoint non-empty boxes 0") {
    val g = Grid.fromRows("f", Seq(Seq("1", " ", ""), Seq("", "", "2")))
    for ((p, t) <- Seq((Rect(1, 0, 1, 1), Rect(0, 1, 1, 1)), (Rect(5, 5, 6, 6), Rect(-3, -3, -1, -1)))) {
      assert(Metrics.iou(g, p, t) == 1.0 && ReferenceTyping.iou(g, p, t) == 1.0)
    }
    assert(Metrics.iou(g, Rect(0, 0, 0, 0), Rect(2, 1, 2, 1)) == 0.0)
  }

  test("segmentation elements equal the reference's") {
    holds(Prop.forAllNoShrink(genGrid) { g =>
      Segmentation.elements(g) == ReferenceTyping.elements(g)
    })
  }
}
