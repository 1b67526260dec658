package repro.eval

import repro.core.Geometry.Rect
import repro.core.TypedFile

/** Evaluation metrics of paper §5.3 (IoU, EoB) and §5.4 (homogeneity,
  * completeness, v-measure after Rosenberg & Hirschberg).
  */
object Metrics {

  /** Intersection-over-Union of the *non-empty* cells of two boxes in a
    * grid (paper §5.3: P and T are the sets of non-empty cells). P ∩ T are
    * the non-empty cells of the boxes' intersection, so three box counts
    * on the type image give the score.
    */
  def iou(grid: TypedFile, p: Rect, t: Rect): Double = {
    val img = grid.image
    val x0 = math.max(p.x0, t.x0); val x1 = math.min(p.x1, t.x1)
    val y0 = math.max(p.y0, t.y0); val y1 = math.min(p.y1, t.y1)
    val inter = if (x0 <= x1 && y0 <= y1) img.nonEmpty(Rect(x0, y0, x1, y1)) else 0
    val union = img.nonEmpty(p) + img.nonEmpty(t) - inter
    if (union == 0) { if (inter == 0) 1.0 else 0.0 } else inter.toDouble / union
  }

  /** Error of Boundary: max coordinate deviation of the two boxes (§5.3). */
  def eob(p: Rect, t: Rect): Double =
    math.max(math.max(math.abs(p.x0 - t.x0), math.abs(p.y0 - t.y0)),
             math.max(math.abs(p.x1 - t.x1), math.abs(p.y1 - t.y1))).toDouble

  /** IoU of the prediction that overlaps `t` best; 0 without predictions. */
  private def bestIou(grid: TypedFile, predicted: Vector[Rect], t: Rect): Double =
    predicted.foldLeft(0.0)((best, p) => math.max(best, iou(grid, p, t)))

  /** Per-true-region scores: IoU of the best-overlapping prediction and EoB
    * of the closest prediction; a missed region (no predictions) scores
    * IoU 0 and EoB max(height, width) of the file (§5.3).
    */
  def regionScores(grid: TypedFile, predicted: Vector[Rect], gold: Vector[Rect]): Vector[(Double, Double)] =
    gold.map { t =>
      if (predicted.isEmpty) (0.0, math.max(grid.height, grid.width).toDouble)
      else (bestIou(grid, predicted, t), predicted.map(pR => eob(pR, t)).min)
    }

  /** Mean over the gold boxes of their `regionScores` IoU, summed in gold
    * order; 0 without gold boxes. Dynamic Radius detection scores each
    * radius with it, so it computes no EoB.
    */
  def meanIou(grid: TypedFile, predicted: Vector[Rect], gold: Vector[Rect]): Double =
    if (gold.isEmpty) 0.0
    else gold.foldLeft(0.0)((sum, t) => sum + bestIou(grid, predicted, t)) / gold.size

  /** Homogeneity, completeness and v-measure of a predicted clustering
    * against gold classes (Rosenberg & Hirschberg 2007). Inputs map each
    * item to (goldClass, predictedCluster).
    */
  def vMeasure(assignments: Seq[(Int, Int)]): (Double, Double, Double) = {
    val n = assignments.size.toDouble
    if (n == 0) return (1.0, 1.0, 1.0)
    def entropy(counts: Iterable[Int]): Double =
      counts.filter(_ > 0).map { c => val p = c / n; -p * math.log(p) }.sum
    val byClass   = assignments.groupBy(_._1).view.mapValues(_.size).toMap
    val byCluster = assignments.groupBy(_._2).view.mapValues(_.size).toMap
    val joint     = assignments.groupBy(identity).view.mapValues(_.size).toMap
    val hC = entropy(byClass.values)
    val hK = entropy(byCluster.values)
    // H(C|K) = -sum_{c,k} p(c,k) log( p(c,k) / p(k) )
    val hCgivenK = -joint.map { case ((_, k), cnt) =>
      (cnt / n) * math.log(cnt.toDouble / byCluster(k))
    }.sum
    val hKgivenC = -joint.map { case ((c, _), cnt) =>
      (cnt / n) * math.log(cnt.toDouble / byClass(c))
    }.sum
    // H(C|K) ≤ H(C) and H(K|C) ≤ H(K), but each pair is summed differently,
    // so the ratio can exceed 1 by rounding (one cluster: H(C|K) = H(C))
    def clamp(x: Double) = math.min(1.0, math.max(0.0, x))
    val homogeneity  = if (hC == 0.0) 1.0 else clamp(1.0 - hCgivenK / hC)
    val completeness = if (hK == 0.0) 1.0 else clamp(1.0 - hKgivenC / hK)
    val v =
      if (homogeneity + completeness == 0.0) 0.0
      else 2 * homogeneity * completeness / (homogeneity + completeness)
    (homogeneity, completeness, v)
  }
}
