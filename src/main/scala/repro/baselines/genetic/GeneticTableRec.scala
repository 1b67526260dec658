package repro.baselines.genetic

import scala.util.Random
import repro.core.{Geometry, Segmentation, TypedFile, UnionFind}
import repro.core.Geometry.Rect
import repro.corpus.SpreadsheetGen.{GoldFile, Role}

/** The genetic-based table recognition baseline (Koci et al., §5.2).
  *
  * Two supervised steps, both implemented from scratch:
  *  1. a random-forest cell classifier labels every non-empty cell with its
  *     role (data / header / metadata) from content+position features —
  *     plus style features (bold) in the XLS variant, which the CSV variant
  *     drops, simulating a .csv input as in the paper;
  *  2. neighboring same-label cells are grouped into vertices of a graph
  *     whose edges connect spatially close vertices; a genetic algorithm
  *     searches edge cut sets — regions are the connected components of the
  *     kept edges — maximizing a fitness rewarding dense, role-coherent,
  *     header-topped regions.
  *
  * Trained and evaluated with k-fold cross-validation per dataset, as in
  * the paper's setup. The classifier runs on the driver; `recognize` is a
  * pure per-file function that `Strategies.detect` maps over the files.
  */
object GeneticTableRec {

  private val Folds = 10
  private val Seed = 11L
  private val Population = 24
  private val Generations = 30
  private val MaxCellsPerFold = 40000

  // ----------------------------------------------------------- features

  /** Content + position (+ style) features of one cell. */
  def features(f: GoldFile, x: Int, y: Int, useStyle: Boolean): Array[Double] = {
    val v = f.rows(y)(x)
    val letters = v.count(_.isLetter)
    val digits  = v.count(_.isDigit)
    val base = Array[Double](
      v.length.toDouble,
      if (v.isEmpty) 0.0 else digits.toDouble / v.length,
      if (v.isEmpty) 0.0 else letters.toDouble / v.length,
      if (letters == 0) 0.0 else v.count(_.isUpper).toDouble / letters,
      f.grid.image.code(x, y).toDouble,
      x.toDouble,
      y.toDouble,
      if (y == 0) 1.0 else 0.0,
      v.count(_ == ' ').toDouble,
    )
    if (useStyle) base :+ (if (f.bold(y)(x)) 1.0 else 0.0) else base
  }

  /** Role labels used by the classifier (empty cells are not classified). */
  val NClasses = 3
  def labelOf(role: Byte): Int = role match {
    case Role.Data => 0
    case Role.Header => 1
    case _ => 2
  }

  /** Cross-validated cell classification: returns, per file, the predicted
    * role of every non-empty cell. Folds are split by file so that a file
    * is never classified by a forest that saw it. The XLS variant uses the
    * style feature (`useStyle`), the CSV variant does not.
    */
  def classifyCells(files: Vector[GoldFile], useStyle: Boolean): Map[String, Map[(Int, Int), Int]] = {
    import scala.concurrent.{Await, Future}
    import scala.concurrent.ExecutionContext.Implicits.global
    import scala.concurrent.duration.Duration
    val rnd = new Random(Seed)
    val shuffled = rnd.shuffle(files)
    val folds = shuffled.zipWithIndex.groupBy(_._2 % Folds).view.mapValues(_.map(_._1)).toMap
    // folds are independent: train and predict them concurrently
    val futures = (0 until Folds).map { fold =>
      Future {
        val test = folds.getOrElse(fold, Vector.empty)
        if (test.isEmpty) Vector.empty[(String, Map[(Int, Int), Int])]
        else {
          val train = (0 until Folds).filter(_ != fold).flatMap(folds.getOrElse(_, Vector.empty))
          val insts = train.flatMap { f =>
            for {
              y <- f.rows.indices
              x <- f.rows(y).indices
              if f.rows(y)(x).nonEmpty
            } yield DecisionForest.Instance(features(f, x, y, useStyle), labelOf(f.roles(y)(x)))
          }
          val sample =
            if (insts.size <= MaxCellsPerFold) insts.toIndexedSeq
            else { val r2 = new Random(Seed + fold); IndexedSeq.fill(MaxCellsPerFold)(insts(r2.nextInt(insts.size))) }
          val forest = DecisionForest.train(sample, NClasses, Seed * 131 + fold)
          test.map { f =>
            f.fileId -> (for {
              y <- f.rows.indices
              x <- f.rows(y).indices
              if f.rows(y)(x).nonEmpty
            } yield (x, y) -> forest.predict(features(f, x, y, useStyle))).toMap
          }
        }
      }
    }
    Await.result(Future.sequence(futures), Duration.Inf).flatten.toMap
  }

  // ------------------------------------------------------ genetic search

  /** A vertex: 4-connected group of cells sharing a predicted label. */
  final case class Vertex(box: Rect, label: Int, cells: Int)

  /** Groups same-label 4-connected cells into vertices, in row-major order
    * of their first cell.
    */
  def vertices(grid: TypedFile, labels: Map[(Int, Int), Int]): Vector[Vertex] = {
    val w = grid.width
    val label = Array.fill(w * grid.height)(-1)
    for (((x, y), lab) <- labels) label(y * w + x) = lab
    Segmentation.components(w, grid.height, (x, y) => label(y * w + x))
      .map(c => Vertex(c.boundingBox, c.label, c.runs.map(_.width).sum))
  }

  /** Candidate edges connect vertices whose boxes are within distance 2. */
  def candidateEdges(vs: Vector[Vertex]): Vector[(Int, Int)] =
    (for {
      i <- vs.indices; j <- (i + 1) until vs.length
      if Geometry.distance(vs(i).box, vs(j).box) <= 2.0
    } yield (i, j)).toVector

  /** Fitness of a partition (regions = kept-edge components).
    *
    * Area-weighted: each group contributes its covered non-empty cells
    * minus the empty cells its bounding box swallows (normalized by the
    * file's non-empty total), so splitting a coherent table yields no
    * density windfall; a small per-group penalty rewards merging across
    * small gaps while the swallowed-empty term vetoes merging across the
    * wide gaps that separate independent regions. Header-above-data and
    * not mixing metadata with table content are rewarded per group.
    */
  def fitness(grid: TypedFile, vs: Vector[Vertex], groups: Vector[Vector[Int]]): Double = {
    val img = grid.image
    val perRow = (0 until grid.height).map(y => img.nonEmpty(Rect(0, y, grid.width - 1, y)))
    val total = math.max(1, perRow.sum)
    // average cells per occupied row: the cost of swallowing one empty row
    val rowFill = total.toDouble / math.max(1, perRow.count(_ > 0))
    // per-group penalty between one and two swallowed rows: merging across
    // a single empty row pays off, merging across wider gaps does not
    val groupPenalty = 1.5 * rowFill
    var score = 0.0
    for (g <- groups) {
      val boxes = g.map(vs(_).box)
      val box = Geometry.boundary(boxes)
      val nonEmpty = img.nonEmpty(box)
      val swallowedEmpty = box.area - nonEmpty
      val hasData = g.exists(vs(_).label == 0)
      val hasMeta = g.exists(vs(_).label == 2)
      val headerOk = g.filter(vs(_).label == 1).forall { h =>
        g.filter(vs(_).label == 0).forall(d => vs(h).box.y0 <= vs(d).box.y0)
      }
      score += (nonEmpty - swallowedEmpty).toDouble +
        (if (headerOk) 0.2 * rowFill else -0.2 * rowFill) +
        (if (hasData && hasMeta) -0.5 * rowFill else 0.0)
    }
    score - groupPenalty * groups.size
  }

  /** Genetic search over edge cut sets for one file; the search is seeded
    * from the run seed and the file id.
    */
  def recognize(grid: TypedFile, labels: Map[(Int, Int), Int], runSeed: Long): Vector[Rect] = {
    val vs = vertices(grid, labels)
    if (vs.isEmpty) return Vector.empty
    val edges = candidateEdges(vs)
    if (edges.isEmpty) return vs.map(_.box)
    val rnd = new Random(runSeed * 1013904223L + grid.fileId.hashCode)

    def groupsOf(genome: Array[Boolean]): Vector[Vector[Int]] = {
      val sets = new UnionFind(vs.length)
      for (((i, j), k) <- edges.zipWithIndex if genome(k)) sets.union(i, j)
      vs.indices.groupBy(sets.find).values.map(_.toVector).toVector
    }
    def eval(genome: Array[Boolean]): Double = fitness(grid, vs, groupsOf(genome))

    var pop = Vector.fill(Population)(Array.fill(edges.length)(rnd.nextDouble() < 0.7))
    var scores = pop.map(eval)
    for (_ <- 0 until Generations) {
      val next = scala.collection.mutable.ArrayBuffer.empty[Array[Boolean]]
      // elitism: keep the two best
      val order = scores.zipWithIndex.sortBy(-_._1).map(_._2)
      next += pop(order(0)).clone(); next += pop(order(1)).clone()
      while (next.size < Population) {
        def pick(): Array[Boolean] = { // tournament of 3
          val c = Vector.fill(3)(rnd.nextInt(pop.size))
          pop(c.maxBy(scores))
        }
        val a = pick(); val b = pick()
        val child = Array.tabulate(edges.length)(k => if (rnd.nextBoolean()) a(k) else b(k))
        for (k <- edges.indices) if (rnd.nextDouble() < 0.03) child(k) = !child(k)
        next += child
      }
      pop = next.toVector
      scores = pop.map(eval)
    }
    val best = pop(scores.indices.maxBy(scores))
    groupsOf(best).map(g => Geometry.boundary(g.map(vs(_).box)))
  }
}
