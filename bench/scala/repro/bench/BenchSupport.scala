package repro.bench

import org.apache.spark.sql.SparkSession
import repro.corpus.SpreadsheetGen.GoldFile
import repro.jobs.Datasets

/** Shared state for the table benches: the two full-size corpora (854 and
  * 886 files, matching paper Table 2 by construction) generated once per
  * JVM, plus a formatter for the paper-vs-measured printouts.
  */
object BenchSupport {

  lazy val spark: SparkSession = repro.SparkSpec.shared

  /** Deco-like and Fuste-like corpora, each with the other. */
  lazy val datasets: Seq[(String, Vector[GoldFile], Vector[GoldFile])] = Datasets.generate(spark)

  /** Prints a markdown-style table row-aligned for the bench logs. */
  def printTable(title: String, header: Seq[String], rows: Seq[Seq[String]]): Unit = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def fmt(r: Seq[String]) = r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    println()
    println(s"== $title ==")
    println(fmt(header))
    println(widths.map("-" * _).mkString("|-", "-|-", "-|"))
    rows.foreach(r => println(fmt(r)))
    println()
  }
}
