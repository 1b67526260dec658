package repro.eval

import org.apache.spark.sql.SparkSession
import repro.baselines.genetic.GeneticTableRec
import repro.baselines.tablesense.TableSenseSim
import repro.core._
import repro.core.Geometry.Rect
import repro.corpus.SpreadsheetGen.GoldFile

/** The seven region-detection strategies of paper §5.2/§5.5 (Table 4 rows),
  * each yielding per-file regions ready for template inference.
  */
object Strategies {

  /** Strategy names exactly as printed in paper Table 4. */
  val All: Vector[String] = Vector(
    "Gold Standard", "Dynamic Radius", "Static Radius", "Connected Components",
    "Genetic (XLS)", "Genetic (CSV)", "Tablesense")

  /** Per-dataset Mondrian clustering parameters (§5.2) of "deco" or "fuste". */
  def paramsFor(dataset: String): Clustering.Params = dataset match {
    case "deco"  => Mondrian.DecoParams
    case "fuste" => Mondrian.FusteParams
    case d       => throw new IllegalArgumentException(s"unknown dataset $d")
  }

  /** Runs one strategy over a corpus; detection is one Spark job of a
    * per-file function of the file's type image and gold boxes, in one task
    * per core, the files striped over the tasks (file i in task i mod n,
    * [[Jobs.stripe]]), so costs that drift along `files` spread evenly. A
    * task gets just those: the image (file id, shape and one type code per cell),
    * not the cell text nor the file's cell roles and style bits, which only
    * the Genetic classifier reads, on the driver. Each task returns its
    * files' regions, each serialized as one array of `Int`s. The ML
    * baselines train on the driver first: Genetic cross-validates its cell
    * classifier on `files`, Tablesense trains on `other` (cross-dataset
    * setup); `runSeed` feeds both.
    */
  def detect(spark: SparkSession, strategy: String, dataset: String,
             files: Vector[GoldFile], other: Vector[GoldFile],
             runSeed: Long = 0): Map[String, Vector[Region]] = {
    val p = paramsFor(dataset)
    def parallel(f: (TypedFile, Vector[Rect]) => Vector[Region]): Map[String, Vector[Region]] = {
      val sc = spark.sparkContext
      Jobs.run(sc, Jobs.stripe(files.map(g => (g.grid.image, g.regionBoxes)), sc.defaultParallelism)) {
        _.map { case (image, gold) => image.fileId -> f(image, gold) }
      }.iterator.flatten.toMap
    }

    strategy match {
      case "Gold Standard" =>
        parallel(Mondrian.regionsFromBoxes)
      case "Static Radius" =>
        parallel((grid, _) => Mondrian.detectRegions(grid, p))
      case "Dynamic Radius" =>
        // per-file optimal radius against the gold standard (§5.2): the
        // score is the mean IoU of the gold regions vs. the detected ones
        parallel { (grid, gold) =>
          Mondrian.detectRegionsDynamic(grid, p, boxes => Metrics.meanIou(grid, boxes, gold))._2
        }
      case "Connected Components" =>
        parallel((grid, _) => Mondrian.detectRegionsCC(grid))
      case "Genetic (XLS)" | "Genetic (CSV)" =>
        val labels = spark.sparkContext.broadcast(
          GeneticTableRec.classifyCells(files, useStyle = strategy == "Genetic (XLS)"))
        val regions = parallel { (grid, _) =>
          val boxes = GeneticTableRec.recognize(grid, labels.value.getOrElse(grid.fileId, Map.empty), runSeed)
          Mondrian.regionsFromBoxes(grid, boxes)
        }
        labels.destroy()
        regions
      case "Tablesense" =>
        val model = TableSenseSim.train(other, runSeed)
        parallel((grid, _) => Mondrian.regionsFromBoxes(grid, TableSenseSim.detectFile(grid, model)))
      case s => throw new IllegalArgumentException(s"unknown strategy $s")
    }
  }

  /** Layout graphs from per-file regions. */
  def layouts(files: Vector[GoldFile], regions: Map[String, Vector[Region]]): Vector[LayoutGraph] =
    files.map(f => LayoutGraph.build(f.fileId, regions.getOrElse(f.fileId, Vector.empty)))
}
