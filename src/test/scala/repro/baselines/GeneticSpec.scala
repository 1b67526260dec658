package repro.baselines

import repro.SparkSpec
import repro.baselines.genetic.GeneticTableRec
import repro.core.CellOps._
import repro.core.Geometry.Rect
import repro.corpus.{Corpora, SpreadsheetGen}
import repro.eval.{Metrics, Strategies}

/** Genetic-based table recognition baseline (Koci et al.). */
class GeneticSpec extends SparkSpec {

  private lazy val files = Corpora.generate(spark, "gen", Vector(
    Corpora.TemplatePlan("gen-t0", SpreadsheetGen.FewRegions, 4),
    Corpora.TemplatePlan("gen-t1", SpreadsheetGen.FewRegions, 4),
    Corpora.TemplatePlan("gen-t2", SpreadsheetGen.One, 4)))

  private def detect(files: Vector[SpreadsheetGen.GoldFile], runSeed: Long): Map[String, Vector[Rect]] =
    Strategies.detect(spark, "Genetic (XLS)", "deco", files, Vector.empty, runSeed).view.mapValues(_.map(_.box)).toMap

  test("features include the style bit only in the XLS variant") {
    val f = files.head
    val xls = GeneticTableRec.features(f, 0, 0, useStyle = true)
    val csv = GeneticTableRec.features(f, 0, 0, useStyle = false)
    assert(xls.length == csv.length + 1)
  }

  test("cross-validated classification covers every file and non-empty cell") {
    val labels = GeneticTableRec.classifyCells(files, useStyle = true)
    assert(labels.keySet == files.map(_.fileId).toSet)
    for (f <- files)
      assert(labels(f.fileId).keySet == f.grid.nonEmptyCells.toSet)
  }

  test("XLS cell classification accuracy is high (bold is decisive)") {
    val labels = GeneticTableRec.classifyCells(files, useStyle = true)
    val scored = for {
      f <- files; ((x, y), pred) <- labels(f.fileId)
    } yield if (pred == GeneticTableRec.labelOf(f.roles(y)(x))) 1 else 0
    val acc = scored.sum.toDouble / scored.size
    assert(acc > 0.8, s"accuracy $acc")
  }

  test("CSV variant loses accuracy vs XLS (paper's style-feature gap)") {
    def acc(useStyle: Boolean): Double = {
      val labels = GeneticTableRec.classifyCells(files, useStyle)
      val scored = for {
        f <- files; ((x, y), pred) <- labels(f.fileId)
      } yield if (pred == GeneticTableRec.labelOf(f.roles(y)(x))) 1 else 0
      scored.sum.toDouble / scored.size
    }
    assert(acc(true) >= acc(false) - 0.02, "XLS should not be clearly worse than CSV")
  }

  test("vertices group 4-connected same-label cells") {
    val f = files.head
    val labels = Map((0, 0) -> 1, (1, 0) -> 1, (3, 0) -> 1, (0, 1) -> 0)
    val vs = GeneticTableRec.vertices(f.grid, labels)
    assert(vs.map(_.box).toSet == Set(Rect(0, 0, 1, 0), Rect(3, 0, 3, 0), Rect(0, 1, 0, 1)))
  }

  test("genetic recognition returns non-overlapping covering boxes for labeled cells") {
    val f = files.head
    val labels = GeneticTableRec.classifyCells(files, useStyle = true)(f.fileId)
    val boxes = GeneticTableRec.recognize(f.grid, labels, runSeed = 1)
    assert(boxes.nonEmpty)
    for ((x, y) <- f.grid.nonEmptyCells)
      assert(boxes.exists(_.contains(x, y)), s"cell ($x,$y) uncovered")
  }

  test("end-to-end detection achieves reasonable IoU against gold") {
    val det = detect(files, runSeed = 0)
    val scores = files.flatMap { f =>
      Metrics.regionScores(f.grid, det(f.fileId), f.regionBoxes).map(_._1)
    }
    val mean = scores.sum / scores.size
    assert(mean > 0.5, s"mean IoU $mean")
  }

  test("detection is reproducible for a fixed run seed") {
    val a = detect(files.take(3), runSeed = 5)
    val b = detect(files.take(3), runSeed = 5)
    assert(a == b)
  }
}
