package repro.jobs

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.corpus.Corpora

/** spark-submit entrypoint regenerating paper Table 2 (dataset overview).
  *
  * Usage: spark-submit --class repro.jobs.Table2Job repro-jobs.jar
  */
object Table2Job {

  /** Table 2's one-row counts: files (single / multi region), templates
    * (one / more files).
    */
  final case class Overview(regions: DataFrame, templates: DataFrame)

  /** Table 2 over a corpus's per-file DataFrame ([[Corpora.filesDF]]). */
  def overview(files: DataFrame): Overview = Overview(
    files.select(
      count(lit(1)).as("files"),
      sum(when(col("n_regions") === 1, 1).otherwise(0)).cast("long").as("single"),
      sum(when(col("n_regions") > 1, 1).otherwise(0)).cast("long").as("multi")),
    files.groupBy("template_id").agg(count(lit(1)).as("n")).select(
      count(lit(1)).as("templates"),
      sum(when(col("n") === 1, 1).otherwise(0)).cast("long").as("singleton"),
      sum(when(col("n") > 1, 1).otherwise(0)).cast("long").as("multifile")))

  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder().appName("mondrian-table2").getOrCreate()
    for ((name, files, _) <- Datasets.generate(spark)) {
      val o = overview(Corpora.filesDF(spark, files))
      val r = o.regions.collect()(0); val t = o.templates.collect()(0)
      println(s"[$name] files=${r.getLong(0)} single=${r.getLong(1)} multi=${r.getLong(2)} " +
        s"templates=${t.getLong(0)} singleton=${t.getLong(1)} multifile=${t.getLong(2)}")
    }
    spark.stop()
  }
}
