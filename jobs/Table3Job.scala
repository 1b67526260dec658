package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.TemplateInference
import repro.corpus.Corpora
import repro.corpus.SpreadsheetGen.GoldFile
import repro.eval.{Metrics, Strategies}

/** spark-submit entrypoint regenerating paper Table 3 (template inference
  * H/C/V by gold region-count class, static-radius regions) at every τ_f of
  * the sweep; Table 3 is the sweep's τ_f = 0.99 row.
  *
  * Usage: spark-submit --class repro.jobs.Table3Job repro-jobs.jar
  */
object Table3Job {

  /** One row of Table 3: a gold region-count class, its file count and
    * the H/C/V of their inferred templates.
    */
  final case class Row(regions: String, files: Int, h: Double, c: Double, v: Double)

  private val Classes = Seq("1", "[2, 5]", ">= 6")

  /** The τ_f sweep of DESIGN §8: 0.70 to 1.00, step 0.01. */
  private val Sweep: Vector[Double] = (70 to 100).map(_ / 100.0).toVector

  /** The Table 3 rows of `files` under `templateOf`: one row per
    * region-count class present.
    */
  def rows(files: Vector[GoldFile], templateOf: Map[String, Int]): Seq[Row] = {
    val byClass = files.groupBy(f => Classes(if (f.regions.size == 1) 0 else if (f.regions.size <= 5) 1 else 2))
    for (cls <- Classes; fs <- byClass.get(cls)) yield {
      val (h, c, v) = Metrics.vMeasure(fs.map(f => (f.templateId.hashCode, templateOf(f.fileId))))
      Row(cls, fs.size, h, c, v)
    }
  }

  /** Table 3 for one dataset at every τ_f of [[Sweep]]: one Static Radius
    * detection over the corpus without its outliers (§5.1) and one `infer`
    * at the sweep's lowest τ_f, whose templates are read at each τ_f.
    */
  def sweep(spark: SparkSession, dataset: String, corpus: Vector[GoldFile]): Vector[(Double, Seq[Row])] = {
    val files = Corpora.excludeOutliers(corpus)
    val regions = Strategies.detect(spark, "Static Radius", dataset, files, Vector.empty)
    val result = TemplateInference.infer(spark, Strategies.layouts(files, regions),
      TemplateInference.Params(tauLayout = Sweep.head))
    Sweep.map(tau => tau -> rows(files, result.templatesAt(tau)))
  }

  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder().appName("mondrian-table3").getOrCreate()
    for ((name, files, _) <- Datasets.generate(spark); (tau, rs) <- sweep(spark, name, files); r <- rs)
      println(f"[$name] tauF=$tau%.2f regions=${r.regions}%-6s files=${r.files}%4d H=${r.h}%.2f C=${r.c}%.2f V=${r.v}%.2f")
    spark.stop()
  }
}
