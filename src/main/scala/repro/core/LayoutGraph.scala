package repro.core

import repro.core.Geometry.Alignment

/** The layout of a spreadsheet file (Def 9): a complete graph whose nodes
  * are the file's regions and whose edges are labeled with the pairwise
  * spatial relationship of the region bounding boxes (direction, magnitude,
  * distance — Defs 3–5 and the overlap extension Def 8). Every node has
  * degree |G| − 1.
  *
  * Edges live in row-major n·n arrays so that flooding reads them without
  * boxing: for k = i·n + j with i ≠ j, `dirs(k)` is the [[Alignment]] code
  * of edge (i, j) and `mags(k)` / `dists(k)` are its magnitude and
  * distance. The diagonal holds no edge: its entries stay 0, and
  * `partners` leaves it out.
  *
  * @param fileId  owning file
  * @param regions graph nodes in index order
  */
final class LayoutGraph private (val fileId: String, val regions: Vector[Region]) extends Serializable {
  def size: Int = regions.length

  private[core] val dirs  = new Array[Int](size * size)
  private[core] val mags  = new Array[Double](size * size)
  private[core] val dists = new Array[Double](size * size)
  for (i <- 0 until size; j <- 0 until size if i != j) {
    val r = Geometry.spatialRel(regions(i).box, regions(j).box)
    val k = i * size + j
    dirs(k) = r.direction.code; mags(k) = r.magnitude.toDouble; dists(k) = r.distance
  }

  /** `partners(i · Alignment.Count + d)`: the nodes j ≠ i, in increasing
    * order, whose edge (i, j) has direction code d.
    */
  private[core] val partners: Array[Array[Int]] = Array.tabulate(size * Alignment.Count) { id =>
    val i = id / Alignment.Count; val d = id % Alignment.Count
    (0 until size).filter(j => j != i && dirs(i * size + j) == d).toArray
  }

  /** Largest edge-feature vector norm (0 with fewer than two nodes): the
    * per-graph part of the edge-similarity normalization (see
    * `SimilarityFlooding`). The diagonal's features are 0.
    */
  private[core] val featureScale: Double =
    mags.indices.foldLeft(0.0)((mx, k) => math.max(mx, math.sqrt(mags(k) * mags(k) + dists(k) * dists(k))))
}

object LayoutGraph {

  /** Builds the complete layout graph of a file from its regions. */
  def build(fileId: String, regions: Vector[Region]): LayoutGraph = new LayoutGraph(fileId, regions)

  /** Upper bound on the symmetric layout similarity of two graphs, from the
    * node-count difference: at most min(|Ga|,|Gb|) nodes are matched, each
    * with similarity ≤ 1, and every unmatched node contributes 0 to the
    * average over max(|Ga|,|Gb|) nodes (paper §5.4 pruning). Computed as
    * min/max, it is never below a matching average in floating point.
    */
  def sizeBound(na: Int, nb: Int): Double = {
    val mx = math.max(na, nb)
    if (mx == 0) 1.0 else math.min(na, nb).toDouble / mx
  }
}
