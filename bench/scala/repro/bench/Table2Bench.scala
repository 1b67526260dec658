package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.Oracle
import repro.corpus.Corpora
import repro.corpus.SpreadsheetGen.GoldFile
import repro.jobs.Table2Job

/** Paper Table 2: synthetic overview of the evaluation datasets.
  *
  * Regenerates both corpora at full size and reports the same four rows the
  * paper does, computed with [[Table2Job]]'s Spark DataFrame aggregations
  * cross-checked against DuckDB. Paper numbers (Deco / Fuste):
  * files 854 / 886; single/multi 233/621 / 495/391; templates 750 / 136;
  * singleton/multi templates 679/71 / 105/31.
  */
class Table2Bench extends AnyFunSuite {

  private def stats(files: Vector[GoldFile]): (Long, Long, Long, Long, Long, Long) = {
    val df = Corpora.filesDF(BenchSupport.spark, files)
    val o = Table2Job.overview(df)
    Oracle.assertEquivalent(o.regions,
      "SELECT COUNT(*) AS files, " +
      "CAST(SUM(CASE WHEN CAST(n_regions AS INT) = 1 THEN 1 ELSE 0 END) AS BIGINT) AS single, " +
      "CAST(SUM(CASE WHEN CAST(n_regions AS INT) > 1 THEN 1 ELSE 0 END) AS BIGINT) AS multi " +
      "FROM files", "files" -> df)
    Oracle.assertEquivalent(o.templates,
      "SELECT COUNT(*) AS templates, " +
      "CAST(SUM(CASE WHEN n = 1 THEN 1 ELSE 0 END) AS BIGINT) AS singleton, " +
      "CAST(SUM(CASE WHEN n > 1 THEN 1 ELSE 0 END) AS BIGINT) AS multifile FROM " +
      "(SELECT template_id, COUNT(*) AS n FROM files GROUP BY template_id)", "files" -> df)

    val r1 = o.regions.collect()(0); val r2 = o.templates.collect()(0)
    (r1.getLong(0), r1.getLong(1), r1.getLong(2), r2.getLong(0), r2.getLong(1), r2.getLong(2))
  }

  test("Table 2: dataset overview matches the paper") {
    val Seq((dF, dS, dM, dT, dTs, dTm), (fF, fS, fM, fT, fTs, fTm)) =
      BenchSupport.datasets.map { case (_, files, _) => stats(files) }

    BenchSupport.printTable("Paper Table 2 — synthetic overview of the evaluation datasets (paper | measured)",
      Seq("", "DECO paper", "DECO measured", "FUSTE paper", "FUSTE measured"),
      Seq(
        Seq("Total number of files",                  "854",     s"$dF",       "886",     s"$fF"),
        Seq("Files with one/multiple regions",        "233/621", s"$dS/$dM",   "495/391", s"$fS/$fM"),
        Seq("Overall layout templates",               "750",     s"$dT",       "136",     s"$fT"),
        Seq("Templates with one/more than one files", "679/71",  s"$dTs/$dTm", "105/31",  s"$fTs/$fTm"),
      ))

    assert((dF, dS, dM, dT, dTs, dTm) == ((854L, 233L, 621L, 750L, 679L, 71L)))
    assert((fF, fS, fM, fT, fTs, fTm) == ((886L, 495L, 391L, 136L, 105L, 31L)))
  }

  test("Table 2 context: average regions per file is of the paper's order") {
    val Seq(dAvg, fAvg) = BenchSupport.datasets.map { case (_, files, _) =>
      files.map(_.regions.size).sum.toDouble / files.size
    }
    println(f"avg regions/file: deco=$dAvg%.2f (paper 4.43), fuste=$fAvg%.2f (paper 2.09)")
    assert(dAvg > 2.5 && dAvg < 6.5)
    assert(fAvg > 1.2 && fAvg < 3.5)
  }
}
