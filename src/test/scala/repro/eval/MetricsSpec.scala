package repro.eval

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{FileGrid, Grid}
import repro.core.Geometry.Rect

/** IoU / EoB (paper §5.3) and clustering scores (§5.4). */
class MetricsSpec extends AnyFunSuite {

  private def grid(rows: String*): FileGrid =
    Grid.fromRows("f", rows.map(_.split("\\|", -1).toSeq))

  private val full = grid("1|2|3", "4|5|6", "7|8|9")

  test("IoU of identical boxes is 1") {
    assert(Metrics.iou(full, Rect(0, 0, 2, 2), Rect(0, 0, 2, 2)) == 1.0)
  }
  test("IoU of disjoint boxes is 0") {
    assert(Metrics.iou(full, Rect(0, 0, 0, 0), Rect(2, 2, 2, 2)) == 0.0)
  }
  test("IoU counts only non-empty cells") {
    val g = grid("1| |3", " | | ", "7| |9")
    // prediction covers left column, target covers everything; both contain
    // non-empty cells {..}; intersection = {(0,0),(0,2)}; union = 4
    assert(Metrics.iou(g, Rect(0, 0, 0, 2), Rect(0, 0, 2, 2)) == 2.0 / 4.0)
  }
  test("IoU of half-overlapping boxes") {
    assert(Metrics.iou(full, Rect(0, 0, 2, 1), Rect(0, 1, 2, 2)) == 3.0 / 9.0)
  }
  test("IoU of empty-only boxes is 1 (degenerate, both empty)") {
    val g = grid("1| ", " | ")
    assert(Metrics.iou(g, Rect(1, 1, 1, 1), Rect(1, 0, 1, 1)) == 1.0)
  }

  test("EoB of identical boxes is 0") {
    assert(Metrics.eob(Rect(1, 2, 3, 4), Rect(1, 2, 3, 4)) == 0.0)
  }
  test("EoB is the max corner deviation") {
    assert(Metrics.eob(Rect(0, 0, 5, 5), Rect(1, 2, 4, 9)) == 4.0)
  }
  test("EoB has no upper bound") {
    assert(Metrics.eob(Rect(0, 0, 1, 1), Rect(100, 0, 101, 1)) == 100.0)
  }

  test("regionScores assigns the best prediction per true region") {
    val preds = Vector(Rect(0, 0, 2, 0), Rect(0, 2, 2, 2))
    val gold  = Vector(Rect(0, 0, 2, 0))
    val Vector((iou, eob)) = Metrics.regionScores(full, preds, gold)
    assert(iou == 1.0 && eob == 0.0)
  }
  test("regionScores with no predictions: IoU 0, EoB = max(h, w)") {
    val g = grid("1|2|3|4", "5|6|7|8")
    assert(Metrics.regionScores(g, Vector.empty, Vector(Rect(0, 0, 1, 1))) ==
      Vector((0.0, 4.0)))
  }
  test("a prediction spanning two true regions scores against both") {
    val g = grid("1|2", "3|4", " | ", "5|6")
    val scores = Metrics.regionScores(g, Vector(Rect(0, 0, 1, 3)),
      Vector(Rect(0, 0, 1, 1), Rect(0, 3, 1, 3)))
    assert(scores.size == 2)
    assert(scores(0)._1 == 4.0 / 6.0 && scores(1)._1 == 2.0 / 6.0)
  }

  // --- v-measure (Rosenberg & Hirschberg)
  test("perfect clustering: all scores 1") {
    val (h, c, v) = Metrics.vMeasure(Seq((0, 10), (0, 10), (1, 20), (1, 20)))
    assert(h == 1.0 && c == 1.0 && v == 1.0)
  }
  test("empty input scores 1") {
    assert(Metrics.vMeasure(Seq.empty) == ((1.0, 1.0, 1.0)))
  }
  test("all-singleton clusters: homogeneity 1, completeness < 1") {
    val (h, c, _) = Metrics.vMeasure(Seq((0, 1), (0, 2), (1, 3), (1, 4)))
    assert(h == 1.0 && c < 1.0)
  }
  test("one giant cluster: completeness 1, homogeneity < 1") {
    val (h, c, _) = Metrics.vMeasure(Seq((0, 1), (0, 1), (1, 1), (1, 1)))
    assert(c == 1.0 && h < 1.0)
  }
  test("one cluster over several classes: homogeneity and v-measure exactly 0") {
    // H(C|K) and H(C) are equal but summed differently; unclamped, these
    // sizes give h = -2.2e-16 and v = -4.4e-16
    val data = Seq(20 -> 0, 16 -> 1, 13 -> 2).flatMap { case (size, cls) => Seq.fill(size)((cls, 7)) }
    val (h, c, v) = Metrics.vMeasure(data)
    assert(h == 0.0 && c == 1.0 && v == 0.0, (h, c, v))
  }
  test("v-measure is the harmonic mean") {
    val (h, c, v) = Metrics.vMeasure(Seq((0, 1), (0, 1), (1, 1), (2, 2)))
    assert(math.abs(v - 2 * h * c / (h + c)) < 1e-12)
  }
  test("label permutation does not change scores") {
    val a = Metrics.vMeasure(Seq((0, 1), (0, 1), (1, 2), (1, 2)))
    val b = Metrics.vMeasure(Seq((1, 9), (1, 9), (0, 5), (0, 5)))
    assert(a == b)
  }
  test("single class single cluster is perfect") {
    assert(Metrics.vMeasure(Seq((0, 0), (0, 0))) == ((1.0, 1.0, 1.0)))
  }
  test("scores stay in [0, 1] on random assignments") {
    val rnd = new scala.util.Random(23)
    for (_ <- 0 until 50) {
      val data = Seq.fill(20)((rnd.nextInt(4), rnd.nextInt(4)))
      val (h, c, v) = Metrics.vMeasure(data)
      assert(h >= 0 && h <= 1 && c >= 0 && c <= 1 && v >= 0 && v <= 1)
    }
  }
  test("mixed clustering example has intermediate scores") {
    // two classes; cluster 1 pure, cluster 2 mixed
    val (h, c, v) = Metrics.vMeasure(Seq((0, 1), (0, 1), (0, 2), (1, 2), (1, 2)))
    assert(h > 0 && h < 1 && c > 0 && c < 1 && v > 0 && v < 1)
  }
}
