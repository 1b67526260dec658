package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.TemplateInference
import repro.corpus.Corpora
import repro.corpus.SpreadsheetGen.GoldFile
import repro.eval.Strategies

/** spark-submit entrypoint regenerating paper Table 4 (template inference
  * wall time per region-detection strategy, mean ± std over 3 runs).
  *
  * Usage: spark-submit --class repro.jobs.Table4Job repro-jobs.jar [runs]
  */
object Table4Job {

  /** One cell of Table 4: inference seconds (mean and population std over
    * the runs) and the mean regions detected per file.
    */
  final case class Cell(mean: Double, std: Double, regionsPerFile: Double)

  val Runs = 3

  /** Times template inference (τ_f = 0.99) over the regions `strategy`
    * detects in the corpus without its outliers (§5.1). Each run detects
    * again, with the run as the seed of the ML baselines, outside the timed
    * section: the table times the template-inference stage.
    */
  def cell(spark: SparkSession, dataset: String, corpus: Vector[GoldFile], other: Vector[GoldFile],
           strategy: String, runs: Int = Runs): Cell = {
    val files = Corpora.excludeOutliers(corpus)
    val measured = (0 until runs).map { run =>
      val regions = Strategies.detect(spark, strategy, dataset, files, other, runSeed = run)
      val layouts = Strategies.layouts(files, regions)
      val t0 = System.nanoTime()
      TemplateInference.infer(spark, layouts, TemplateInference.Params(tauLayout = 0.99))
      ((System.nanoTime() - t0) / 1e9, regions.valuesIterator.map(_.size).sum.toDouble / files.size)
    }
    val times = measured.map(_._1)
    val m = times.sum / runs
    Cell(m, math.sqrt(times.map(t => (t - m) * (t - m)).sum / runs), measured.map(_._2).sum / runs)
  }

  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder().appName("mondrian-table4").getOrCreate()
    val runs = args.headOption.map(_.toInt).getOrElse(Runs)
    val datasets = Datasets.generate(spark)
    // one discarded cell, so that the first measured cell carries no JIT warm-up
    val (first, files0, other0) = datasets.head
    cell(spark, first, files0, other0, "Gold Standard", runs = 1)
    for ((name, files, other) <- datasets; strategy <- Strategies.All) {
      val c = cell(spark, name, files, other, strategy, runs)
      println(f"[$name] $strategy%-22s ${c.mean}%8.2f s ± ${c.std}%5.2f (avg regions/file ${c.regionsPerFile}%.2f)")
    }
    spark.stop()
  }
}
