package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.corpus.Corpora
import repro.corpus.SpreadsheetGen.GoldFile

/** The paper's two evaluation datasets (§5.1), outliers included. */
object Datasets {

  /** Each dataset's name and corpus, with the other dataset's corpus: the
    * training corpus of the cross-dataset Tablesense baseline (§5.2).
    */
  def generate(spark: SparkSession): Seq[(String, Vector[GoldFile], Vector[GoldFile])] = {
    val deco = Corpora.deco(spark); val fuste = Corpora.fuste(spark)
    Seq(("deco", deco, fuste), ("fuste", fuste, deco))
  }
}
