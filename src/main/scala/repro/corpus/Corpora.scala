package repro.corpus

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.Jobs
import repro.corpus.SpreadsheetGen._

/** The two evaluation corpora, rebuilt synthetically with layout marginals
  * matching paper Tables 2 and 3 by construction (see DESIGN.md §3):
  *
  *  - Deco-like: 854 files, 750 templates (679 singleton / 71 multi-file
  *    covering 175 files), 233 single-region files, region-count classes
  *    233 / 470 / 149 (+2 outlier files);
  *  - Fuste-like: 886 files, 136 templates (105 singleton / 31 multi-file
  *    covering 781 files, largest template 381 files), classes
  *    495 / 372 / 18 (+1 outlier file).
  */
object Corpora {

  /** One template's plan: size class and how many files instantiate it. */
  final case class TemplatePlan(templateId: String, sizeClass: SizeClass, files: Int, outlier: Boolean = false)

  /** Deco-like corpus plan (854 files / 750 templates). */
  def decoPlan: Vector[TemplatePlan] = {
    val b = Vector.newBuilder[TemplatePlan]
    var t = 0
    def add(n: Int, cls: SizeClass, files: Int, outlier: Boolean = false): Unit =
      for (_ <- 0 until n) { b += TemplatePlan(f"deco-t$t%04d", cls, files, outlier); t += 1 }
    // singleton templates: 679 total
    add(225, One, 1)
    add(338, FewRegions, 1)
    add(114, ManyRegions, 1)
    add(2, OutlierFile, 1, outlier = true)
    // multi-file templates: 71 templates, 175 files
    add(4, One, 2)           //   8 files, single-region
    add(29, FewRegions, 2)   //  58 files
    add(10, ManyRegions, 2)  //  20 files
    add(18, FewRegions, 3)   //  54 files
    add(5, ManyRegions, 3)   //  15 files
    add(5, FewRegions, 4)    //  20 files
    val plan = b.result()
    require(plan.size == 750, s"deco templates ${plan.size}")
    require(plan.map(_.files).sum == 854, s"deco files ${plan.map(_.files).sum}")
    plan
  }

  /** Fuste-like corpus plan (886 files / 136 templates). */
  def fustePlan: Vector[TemplatePlan] = {
    val b = Vector.newBuilder[TemplatePlan]
    var t = 0
    def add(n: Int, cls: SizeClass, files: Int, outlier: Boolean = false): Unit =
      for (_ <- 0 until n) { b += TemplatePlan(f"fuste-t$t%04d", cls, files, outlier); t += 1 }
    add(1, One, 381)          // the dominant crawled template
    add(3, One, 18)           //  54 files
    add(13, FewRegions, 10)   // 130 files
    add(11, FewRegions, 18)   // 198 files
    add(1, FewRegions, 4)     //   4 files
    add(1, ManyRegions, 8)    //   8 files, >=6 regions
    add(1, ManyRegions, 6)    //   6 files, >=6 regions
    // singleton templates: 105 total
    add(60, One, 1)
    add(40, FewRegions, 1)
    add(4, ManyRegions, 1)    //   4 singleton files with >=6 regions
    add(1, OutlierFile, 1, outlier = true)
    val plan = b.result()
    require(plan.size == 136, s"fuste templates ${plan.size}")
    require(plan.map(_.files).sum == 886, s"fuste files ${plan.map(_.files).sum}")
    plan
  }

  /** Stable seed for template structure / file content derivation. */
  private def seed(parts: String*): Long =
    parts.foldLeft(1125899906842597L)((acc, s) => s.foldLeft(acc * 31 + 17)((a, ch) => a * 31 + ch))

  /** Materializes a corpus plan into gold files, in one Spark job of one
    * task per core, the plan's files striped over the tasks (file i in task
    * i mod n, [[Jobs.stripe]]), so that the plan's uneven file costs spread
    * evenly (template specs are derived deterministically inside the tasks).
    */
  def generate(spark: SparkSession, name: String, plan: Vector[TemplatePlan]): Vector[GoldFile] = {
    val fileSpecs: Vector[(TemplatePlan, Int, String)] = {
      var i = 0
      plan.flatMap { tp =>
        (0 until tp.files).map { k =>
          val id = f"$name-f$i%04d"; i += 1
          (tp, k, id)
        }
      }
    }
    val sc = spark.sparkContext
    Jobs.run(sc, Jobs.stripe(fileSpecs, sc.defaultParallelism)) {
      _.map { case (tp, k, fileId) =>
        val spec = SpreadsheetGen.template(tp.templateId, tp.sizeClass, seed(name, tp.templateId))
        SpreadsheetGen.instantiate(spec, fileId, seed(name, tp.templateId, s"file$k"), tp.outlier)
      }
    }.iterator.flatten.toVector.sortBy(_.fileId)
  }

  /** Deco-like corpus; `scale` < 1 subsamples the plan file counts
    * proportionally (used by unit tests; benches run the full corpus).
    */
  def deco(spark: SparkSession, scale: Double = 1.0): Vector[GoldFile] =
    generate(spark, "deco", scaledForTest(decoPlan, scale))

  def fuste(spark: SparkSession, scale: Double = 1.0): Vector[GoldFile] =
    generate(spark, "fuste", scaledForTest(fustePlan, scale))

  /** Plan subsampling used by unit tests (benches run the full plans). */
  def scaledForTest(plan: Vector[TemplatePlan], scale: Double): Vector[TemplatePlan] =
    if (scale >= 1.0) plan
    else {
      // keep every k-th template to preserve the class mix, scale multi-file counts
      val keepEvery = math.max(1, (1.0 / scale).toInt)
      plan.zipWithIndex.collect {
        case (tp, i) if i % keepEvery == 0 =>
          tp.copy(files = math.max(1, math.ceil(tp.files * scale).toInt))
      }
    }

  /** Per-file summary DataFrame (fileId, templateId, regions, outlier). */
  def filesDF(spark: SparkSession, files: Vector[GoldFile]): DataFrame = {
    import spark.implicits._
    files.map(f => (f.fileId, f.templateId, f.regions.size, f.outlier))
      .toDF("file_id", "template_id", "n_regions", "outlier")
  }

  /** The paper's outlier rule (§5.1): exclude the files with more regions
    * than 99.9% of the remaining files (2 files in Deco, 1 in Fuste, both
    * "characterized by an unusually large number of regions sparsely
    * distributed"). Our generator plants exactly those files and flags them
    * in the gold standard, so the exclusion uses the flag directly.
    */
  def excludeOutliers(files: Vector[GoldFile]): Vector[GoldFile] =
    files.filterNot(_.outlier)
}
