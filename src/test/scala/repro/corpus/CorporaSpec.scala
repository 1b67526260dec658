package repro.corpus

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkJobs, SparkSpec}
import repro.core.CellOps._
import repro.corpus.SpreadsheetGen._

/** Corpus plans, Spark generation, and DuckDB-oracle-checked statistics. */
class CorporaSpec extends SparkSpec {

  /** Long-format cells DataFrame (fileId, templateId, row, col, value,
    * role) of the non-empty cells, for statistics cross-checked by the
    * DuckDB oracle.
    */
  private def cellsDF(files: Vector[GoldFile]): DataFrame = {
    import spark.implicits._
    files.flatMap { f =>
      for {
        y <- f.rows.indices
        x <- f.rows(y).indices
        if f.rows(y)(x).nonEmpty
      } yield (f.fileId, f.templateId, y, x, f.rows(y)(x), f.roles(y)(x).toInt)
    }.toDF("file_id", "template_id", "row", "col", "value", "role")
  }

  // ---- plan invariants (paper Table 2 marginals by construction)
  test("deco plan: 854 files / 750 templates") {
    val p = Corpora.decoPlan
    assert(p.map(_.files).sum == 854 && p.size == 750)
  }
  test("deco plan: 679 singleton and 71 multi-file templates") {
    val p = Corpora.decoPlan
    assert(p.count(_.files == 1) == 679 && p.count(_.files > 1) == 71)
  }
  test("deco plan: multi-file templates cover 175 files") {
    assert(Corpora.decoPlan.filter(_.files > 1).map(_.files).sum == 175)
  }
  test("deco plan: single-region file count matches Table 3 (233)") {
    assert(Corpora.decoPlan.filter(_.sizeClass == One).map(_.files).sum == 233)
  }
  test("deco plan: 2-5 region files match Table 3 (470)") {
    assert(Corpora.decoPlan.filter(_.sizeClass == FewRegions).map(_.files).sum == 470)
  }
  test("deco plan: >=6 region files match Table 3 (149) plus 2 outliers") {
    assert(Corpora.decoPlan.filter(_.sizeClass == ManyRegions).map(_.files).sum == 149)
    assert(Corpora.decoPlan.count(_.outlier) == 2)
  }
  test("fuste plan: 886 files / 136 templates") {
    val p = Corpora.fustePlan
    assert(p.map(_.files).sum == 886 && p.size == 136)
  }
  test("fuste plan: 105 singleton and 31 multi-file templates") {
    val p = Corpora.fustePlan
    assert(p.count(_.files == 1) == 105 && p.count(_.files > 1) == 31)
  }
  test("fuste plan: largest template covers 381 files") {
    assert(Corpora.fustePlan.map(_.files).max == 381)
  }
  test("fuste plan: multi-file templates cover 781 files") {
    assert(Corpora.fustePlan.filter(_.files > 1).map(_.files).sum == 781)
  }
  test("fuste plan: region-count classes match Table 3 (495 / 372 / 18)") {
    val p = Corpora.fustePlan
    assert(p.filter(_.sizeClass == One).map(_.files).sum == 495)
    assert(p.filter(_.sizeClass == FewRegions).map(_.files).sum == 372)
    assert(p.filter(_.sizeClass == ManyRegions).map(_.files).sum == 18)
    assert(p.count(_.outlier) == 1)
  }

  // ---- generation on Spark (scaled-down corpora for test speed)
  private lazy val mini = Corpora.deco(spark, scale = 0.02)

  test("generation yields one gold file per planned file") {
    val plan = Corpora.scaledForTest(Corpora.decoPlan, 0.02)
    assert(mini.size == plan.map(_.files).sum)
  }
  test("generation of an empty plan is empty") {
    assert(Corpora.generate(spark, "none", Vector.empty).isEmpty)
  }
  test("generation runs one Spark job of one task per core, or one per file when fewer") {
    val cores = spark.sparkContext.defaultParallelism
    for (plan <- Seq(Corpora.scaledForTest(Corpora.decoPlan, 0.02), Vector(Corpora.TemplatePlan("g-t0", One, 2)))) {
      val files = plan.map(_.files).sum
      assert(SparkJobs.stageTasks(spark)(Corpora.generate(spark, "g", plan)) == Vector(Seq(math.min(files, cores))))
    }
  }
  test("file ids are unique") {
    assert(mini.map(_.fileId).distinct.size == mini.size)
  }
  test("generation is deterministic") {
    val again = Corpora.deco(spark, scale = 0.02)
    assert(again.map(_.fileId) == mini.map(_.fileId))
    assert(again.zip(mini).forall { case (a, b) => a.rows.map(_.toSeq).toSeq == b.rows.map(_.toSeq).toSeq })
  }
  test("same-template files share region kind sequences") {
    for ((_, files) <- mini.groupBy(_.templateId) if files.size > 1)
      assert(files.map(_.regions.map(_.kind)).distinct.size == 1)
  }
  test("excludeOutliers drops exactly the flagged files") {
    val full = mini
    val kept = Corpora.excludeOutliers(full)
    assert(full.size - kept.size == full.count(_.outlier))
    assert(kept.forall(!_.outlier))
  }

  // ---- DataFrame views cross-checked by the DuckDB oracle
  test("filesDF per-template file counts match DuckDB") {
    val df = Corpora.filesDF(spark, mini)
    val agg = df.groupBy("template_id").agg(count(lit(1)).as("n_files"))
    Oracle.assertEquivalent(agg,
      "SELECT template_id, COUNT(*) AS n_files FROM files GROUP BY template_id",
      "files" -> df)
  }
  test("filesDF single/multi region split matches DuckDB") {
    val df = Corpora.filesDF(spark, mini)
    val agg = df.select(
      sum(when(col("n_regions") === 1, 1).otherwise(0)).cast("long").as("single"),
      sum(when(col("n_regions") > 1, 1).otherwise(0)).cast("long").as("multi"))
    Oracle.assertEquivalent(agg,
      "SELECT CAST(SUM(CASE WHEN CAST(n_regions AS INT) = 1 THEN 1 ELSE 0 END) AS BIGINT) AS single, " +
      "CAST(SUM(CASE WHEN CAST(n_regions AS INT) > 1 THEN 1 ELSE 0 END) AS BIGINT) AS multi FROM files",
      "files" -> df)
  }
  test("cellsDF role distribution matches DuckDB") {
    val df = cellsDF(mini.take(20))
    val agg = df.groupBy("role").agg(count(lit(1)).as("n"))
    Oracle.assertEquivalent(agg,
      "SELECT role, COUNT(*) AS n FROM cells GROUP BY role",
      "cells" -> df)
  }
  test("cellsDF never contains empty values") {
    val df = cellsDF(mini.take(20))
    assert(df.filter(length(trim(col("value"))) === 0).count() == 0)
  }
  test("cells per file match the grids") {
    val df = cellsDF(mini.take(10))
    val counts = df.groupBy("file_id").agg(count(lit(1)).as("n"))
      .collect().map(r => r.getString(0) -> r.getLong(1)).toMap
    for (f <- mini.take(10))
      assert(counts.getOrElse(f.fileId, 0L) == f.grid.nonEmptyCells.size.toLong)
  }
}
