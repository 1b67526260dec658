package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.corpus.Corpora
import repro.eval.{Metrics, Strategies}

/** spark-submit entrypoint summarizing region-detection accuracy (the
  * metrics behind paper Figure 6): per strategy and dataset, the fraction
  * of gold regions detected with IoU above 0.5 / 0.9 / 1.0 and mean EoB.
  *
  * Usage: spark-submit --class repro.jobs.RegionDetectionJob repro-jobs.jar
  */
object RegionDetectionJob {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder().appName("mondrian-region-detection").getOrCreate()
    for ((name, corpus, other) <- Datasets.generate(spark)) {
      val files = Corpora.excludeOutliers(corpus)
      for (strategy <- Strategies.All if strategy != "Gold Standard") {
        val det = Strategies.detect(spark, strategy, name, files, other)
        val scores = files.flatMap { f =>
          Metrics.regionScores(f.grid, det(f.fileId).map(_.box), f.regionBoxes)
        }
        val n = scores.size.toDouble
        println(f"[$name] $strategy%-22s IoU>=0.5 ${scores.count(_._1 >= 0.5) / n}%.3f  " +
          f"IoU>=0.9 ${scores.count(_._1 >= 0.9) / n}%.3f  IoU=1 ${scores.count(_._1 >= 1.0) / n}%.3f  " +
          f"meanEoB ${scores.map(_._2).sum / n}%.2f")
      }
    }
    spark.stop()
  }
}
