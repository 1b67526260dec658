package repro.core

import repro.core.Geometry.{Alignment, SpatialRel}

/** The layout of a spreadsheet file (Def 9): a complete graph whose nodes
  * are the file's regions and whose edges are labeled with the pairwise
  * spatial relationship of the region bounding boxes (direction, magnitude,
  * distance — Defs 3–5 and the overlap extension Def 8).
  *
  * Edges live in row-major n·n arrays so that flooding reads them without
  * boxing: for k = i·n + j, `dirs(k)` is the [[Alignment]] code of edge
  * (i, j), or -1 where there is no edge (always on the diagonal), and
  * `mags(k)` / `dists(k)` are its magnitude and distance.
  *
  * @param fileId  owning file
  * @param regions graph nodes in index order
  */
final class LayoutGraph private (val fileId: String, val regions: Vector[Region],
                                 val dirs: Array[Int], val mags: Array[Double],
                                 val dists: Array[Double]) extends Serializable {
  def size: Int = regions.length

  /** Number of edges at each node. */
  val degree: Array[Int] = Array.tabulate(size)(i => (0 until size).count(j => dirs(i * size + j) >= 0))

  /** `partners(i · Alignment.Count + d)`: the nodes j, in increasing order,
    * whose edge (i, j) has direction code d.
    */
  val partners: Array[Array[Int]] = Array.tabulate(size * Alignment.Count) { id =>
    val i = id / Alignment.Count; val d = id % Alignment.Count
    (0 until size).filter(j => dirs(i * size + j) == d).toArray
  }

  /** Largest edge-feature vector norm (0 if no edges): the per-graph part
    * of the edge-similarity normalization (see `SimilarityFlooding`).
    */
  val featureScale: Double = {
    var mx = 0.0
    for (k <- dirs.indices if dirs(k) >= 0) {
      val n = math.sqrt(mags(k) * mags(k) + dists(k) * dists(k))
      if (n > mx) mx = n
    }
    mx
  }
}

object LayoutGraph {

  /** Builds the complete layout graph of a file from its regions. */
  def build(fileId: String, regions: Vector[Region]): LayoutGraph =
    apply(fileId, regions, (i, j) => Some(Geometry.spatialRel(regions(i).box, regions(j).box)))

  /** A layout graph with the given edges; `edge(i, i)` is never asked for,
    * since nodes have no self edges.
    */
  def apply(fileId: String, regions: Vector[Region], edge: (Int, Int) => Option[SpatialRel]): LayoutGraph = {
    val n = regions.length
    val dirs = Array.fill(n * n)(-1)
    val mags = new Array[Double](n * n)
    val dists = new Array[Double](n * n)
    for (i <- 0 until n; j <- 0 until n if i != j; r <- edge(i, j)) {
      val k = i * n + j
      dirs(k) = r.direction.code; mags(k) = r.magnitude.toDouble; dists(k) = r.distance
    }
    new LayoutGraph(fileId, regions, dirs, mags, dists)
  }

  /** Upper bound on the symmetric layout similarity of two graphs, from the
    * node-count difference: every unmatched node contributes 0 to the
    * average over max(|Ga|,|Gb|) nodes (paper §5.4 pruning).
    */
  def sizeBound(na: Int, nb: Int): Double = {
    val mx = math.max(na, nb)
    if (mx == 0) 1.0 else 1.0 - math.abs(na - nb).toDouble / mx
  }
}
