package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.TemplateInference
import repro.corpus.Corpora
import repro.corpus.SpreadsheetGen.GoldFile
import repro.eval.{Metrics, Strategies}

/** spark-submit entrypoint regenerating paper Table 3 (template inference
  * H/C/V at τ_f = 0.99 by gold region-count class, static-radius regions).
  *
  * Usage: spark-submit --class repro.jobs.Table3Job repro-jobs.jar [tauF]
  */
object Table3Job {

  /** One row of Table 3: a gold region-count class, its file count and
    * the H/C/V of their inferred templates.
    */
  final case class Row(regions: String, files: Int, h: Double, c: Double, v: Double)

  private val Classes = Seq("1", "[2, 5]", ">= 6")

  /** Table 3 for one dataset: templates inferred at `tauF` from the Static
    * Radius regions of the corpus without its outliers (§5.1), one row per
    * region-count class present.
    */
  def rows(spark: SparkSession, dataset: String, corpus: Vector[GoldFile], tauF: Double = 0.99): Seq[Row] = {
    val files = Corpora.excludeOutliers(corpus)
    val regions = Strategies.detect(spark, "Static Radius", dataset, files, Vector.empty)
    val result = TemplateInference.infer(spark, Strategies.layouts(files, regions),
      TemplateInference.Params(tauLayout = tauF))
    val byClass = files.groupBy(f => Classes(if (f.regions.size == 1) 0 else if (f.regions.size <= 5) 1 else 2))
    for (cls <- Classes; fs <- byClass.get(cls)) yield {
      val (h, c, v) = Metrics.vMeasure(fs.map(f => (f.templateId.hashCode, result.templateOf(f.fileId))))
      Row(cls, fs.size, h, c, v)
    }
  }

  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder().appName("mondrian-table3").getOrCreate()
    val tauF = args.headOption.map(_.toDouble).getOrElse(0.99)
    for ((name, files, _) <- Datasets.generate(spark); r <- rows(spark, name, files, tauF))
      println(f"[$name] regions=${r.regions}%-6s files=${r.files}%4d H=${r.h}%.2f C=${r.c}%.2f V=${r.v}%.2f (tauF=$tauF)")
    spark.stop()
  }
}
