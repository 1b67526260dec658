package repro.eval

import repro.{SparkJobs, SparkSpec}
import repro.baselines.genetic.GeneticTableRec
import repro.baselines.tablesense.TableSenseSim
import repro.corpus.{Corpora, SpreadsheetGen}
import repro.corpus.SpreadsheetGen.GoldFile
import repro.core.{Mondrian, Region}
import repro.core.CellOps._

/** The seven Table-4 region-detection strategies, smoke-tested end to end. */
class StrategiesSpec extends SparkSpec {

  private lazy val deco = Corpora.generate(spark, "st-deco", Vector(
    Corpora.TemplatePlan("st-deco-t0", SpreadsheetGen.FewRegions, 3),
    Corpora.TemplatePlan("st-deco-t1", SpreadsheetGen.One, 3)))
  private lazy val fuste = Corpora.generate(spark, "st-fuste", Vector(
    Corpora.TemplatePlan("st-fuste-t0", SpreadsheetGen.FewRegions, 3),
    Corpora.TemplatePlan("st-fuste-t1", SpreadsheetGen.One, 3)))

  test("strategy list matches paper Table 4 rows") {
    assert(Strategies.All == Vector("Gold Standard", "Dynamic Radius", "Static Radius",
      "Connected Components", "Genetic (XLS)", "Genetic (CSV)", "Tablesense"))
  }

  test("paramsFor selects per-dataset hyperparameters") {
    assert(Strategies.paramsFor("deco") == Mondrian.DecoParams)
    assert(Strategies.paramsFor("fuste") == Mondrian.FusteParams)
  }

  test("paramsFor rejects any other dataset name") {
    for (d <- Seq("ti-deco", "deco-s1", "fuste2", "gen", ""))
      intercept[IllegalArgumentException](Strategies.paramsFor(d))
    intercept[IllegalArgumentException](Strategies.detect(spark, "Static Radius", "decoy", deco, fuste))
  }

  test("detect runs one Spark job of one task per core") {
    val (files, other) = (deco, fuste) // generated outside the count
    val jobs = SparkJobs.stageTasks(spark)(Strategies.detect(spark, "Static Radius", "deco", files, other))
    assert(jobs == Vector(Seq(math.min(files.size, spark.sparkContext.defaultParallelism))))
  }

  for (s <- Strategies.All) {
    test(s"strategy '$s' produces regions for every file") {
      val regions = Strategies.detect(spark, s, "deco", deco, fuste)
      assert(regions.keySet == deco.map(_.fileId).toSet)
      // every file with non-empty cells gets at least one region, except
      // Tablesense which by design may miss whole files
      if (s != "Tablesense")
        for (f <- deco if f.grid.nonEmptyCells.nonEmpty)
          assert(regions(f.fileId).nonEmpty, s"no regions for ${f.fileId}")
    }
  }

  for (s <- Strategies.All) {
    test(s"strategy '$s' detects nothing in an empty corpus") {
      assert(Strategies.detect(spark, s, "deco", Vector.empty, fuste).isEmpty)
    }
  }

  // Spark's partitioning and the task payload (type image and gold boxes,
  // not the file) must not change a strategy's output: the per-file
  // detectors run sequentially on the driver give every field of every
  // region. The files are built on the driver, so the reference reads
  // grids that no serializer has touched, while the tasks read images
  // rebuilt from their serialized form and return regions packed. Dynamic Radius is scored here with the per-region IoU
  // of `regionScores`. A nonzero run seed pins the per-file seed derivation
  // inside `recognize`.
  test("Spark baseline detection equals the per-file detectors run on the driver") {
    val files = for {
      (cls, t) <- Vector(SpreadsheetGen.FewRegions, SpreadsheetGen.ManyRegions, SpreadsheetGen.One).zipWithIndex
      spec = SpreadsheetGen.template(s"st-drv-t$t", cls, 50L + t)
      k <- 0 until 3
    } yield SpreadsheetGen.instantiate(spec, s"st-drv-t$t-f$k", 100L * t + k)
    val runSeed = 3L
    val p = Strategies.paramsFor("deco")
    def genetic(useStyle: Boolean): GoldFile => Vector[Region] = {
      val labels = GeneticTableRec.classifyCells(files, useStyle)
      f => Mondrian.regionsFromBoxes(f.grid, GeneticTableRec.recognize(f.grid, labels(f.fileId), runSeed))
    }
    val model = TableSenseSim.train(fuste, runSeed)
    val want: Map[String, GoldFile => Vector[Region]] = Map(
      "Gold Standard" -> (f => Mondrian.regionsFromBoxes(f.grid, f.regionBoxes)),
      "Dynamic Radius" -> (f => Mondrian.detectRegionsDynamic(f.grid, p, boxes =>
        if (f.regionBoxes.isEmpty) 0.0
        else Metrics.regionScores(f.grid, boxes, f.regionBoxes).map(_._1).sum / f.regionBoxes.size)._2),
      "Static Radius" -> (f => Mondrian.detectRegions(f.grid, p)),
      "Connected Components" -> (f => Mondrian.detectRegionsCC(f.grid)),
      "Genetic (XLS)" -> genetic(useStyle = true),
      "Genetic (CSV)" -> genetic(useStyle = false),
      "Tablesense" -> (f => Mondrian.regionsFromBoxes(f.grid, TableSenseSim.detectFile(f.grid, model))))
    assert(want.keySet == Strategies.All.toSet)
    def key(rs: Vector[Region]) = rs.map(r => (r.fileId, r.box, r.elements, r.counts.toSeq, r.cellCount))
    for ((s, detect) <- want) {
      val expected = files.map(f => f.fileId -> key(detect(f))).toMap
      if (s != "Tablesense") assert(expected.values.map(_.size).sum >= files.size, s)
      val got = Strategies.detect(spark, s, "deco", files, fuste, runSeed)
      assert(got.view.mapValues(key).toMap == expected, s)
    }
  }

  test("gold strategy reproduces the gold boxes exactly") {
    val regions = Strategies.detect(spark, "Gold Standard", "deco", deco, fuste)
    for (f <- deco)
      assert(regions(f.fileId).map(_.box) == f.regionBoxes)
  }

  test("dynamic radius is at least as good as static against gold IoU") {
    val stat = Strategies.detect(spark, "Static Radius", "deco", deco, fuste)
    val dyn  = Strategies.detect(spark, "Dynamic Radius", "deco", deco, fuste)
    def meanIoU(m: Map[String, Vector[repro.core.Region]]): Double = {
      val s = deco.flatMap(f => Metrics.regionScores(f.grid, m(f.fileId).map(_.box), f.regionBoxes).map(_._1))
      s.sum / s.size
    }
    assert(meanIoU(dyn) >= meanIoU(stat) - 1e-9)
  }

  test("unknown strategy is rejected") {
    intercept[IllegalArgumentException](Strategies.detect(spark, "Nope", "deco", deco, fuste))
  }

  test("layouts builds one graph per file in corpus order") {
    val regions = Strategies.detect(spark, "Gold Standard", "deco", deco, fuste)
    val ls = Strategies.layouts(deco, regions)
    assert(ls.map(_.fileId) == deco.map(_.fileId))
    assert(ls.forall(g => g.size == regions(g.fileId).size))
  }
}
