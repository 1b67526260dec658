package repro.core

import repro.core.Geometry.Alignment

/** The layout of a spreadsheet file (Def 9): a complete graph whose nodes
  * are the file's regions and whose edges are labeled with the pairwise
  * spatial relationship of the region bounding boxes (direction, magnitude,
  * distance — Defs 3–5 and the overlap extension Def 8). Every node has
  * degree |G| − 1. The edge labels are computed where flooding reads them,
  * in a [[LayoutGraph.Table]].
  *
  * @param fileId  owning file
  * @param regions graph nodes in index order
  */
final class LayoutGraph private (val fileId: String, val regions: Vector[Region]) extends Serializable {
  def size: Int = regions.length
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

  /** The layouts whose nodes are `layouts(0)`, `layouts(1)`, … in flat
    * primitive arrays: everything flooding reads of them and nothing else
    * (no boxes, elements or file ids), so that a broadcast of it is cheap.
    *
    * Layout x has `size(x)` nodes, numbered `start(x)` + i across the
    * table for its node i; `index` holds their fingerprint terms, so σ⁰ of
    * node i of x and node j of y is `index.similarity(start(x) + i,
    * start(y) + j)`. Its edges fill a row-major n·n block from
    * `edgeStart(x)`: for k = `edgeStart(x)` + i·n + j with i ≠ j,
    * `dirs(k)` is the [[Alignment]] code of edge (i, j) and `mags(k)` /
    * `dists(k)` are its magnitude and distance; the diagonal's entries are
    * 0. The partners of table node g in direction d, the nodes j ≠ i of
    * its layout whose edge (i, j) has direction d, are
    * `partners(partnerStart(g·Count + d) until partnerStart(g·Count + d + 1))`,
    * in increasing order. `featureScale(x)` is x's largest edge-feature
    * vector norm (0 with fewer than two nodes): the per-graph part of the
    * edge-similarity normalization (see `SimilarityFlooding`).
    */
  private[core] final class Table(layouts: Array[Vector[Region]]) extends Serializable {
    val index = new RegionSimilarity.Index(layouts.flatten)
    val start: Array[Int] = layouts.scanLeft(0)(_ + _.length)
    val edgeStart: Array[Int] = layouts.scanLeft(0)((k, rs) => k + rs.length * rs.length)
    val dirs  = new Array[Byte](edgeStart.last)
    val mags  = new Array[Double](edgeStart.last)
    val dists = new Array[Double](edgeStart.last)
    val partnerStart = new Array[Int](start.last * Alignment.Count + 1)
    val partners = new Array[Int](edgeStart.last - start.last)
    val featureScale = new Array[Double](layouts.length)

    fill(layouts)

    def size(x: Int): Int = start(x + 1) - start(x)

    /** Fills the edge and partner tables. A method, not constructor code:
      * a closure in the constructor that read `layouts` would keep it as a
      * field, in every broadcast.
      */
    private def fill(graphs: Array[Vector[Region]]): Unit = {
      var next = 0
      for ((rs, x) <- graphs.zipWithIndex) {
        val n = rs.length; val e = edgeStart(x)
        for (i <- 0 until n; j <- 0 until n if i != j) {
          val r = Geometry.spatialRel(rs(i).box, rs(j).box)
          val k = e + i * n + j
          dirs(k) = r.direction.code.toByte; mags(k) = r.magnitude.toDouble; dists(k) = r.distance
          featureScale(x) = math.max(featureScale(x), math.sqrt(mags(k) * mags(k) + dists(k) * dists(k)))
        }
        for (i <- 0 until n; d <- 0 until Alignment.Count) {
          partnerStart((start(x) + i) * Alignment.Count + d) = next
          for (j <- 0 until n if j != i && dirs(e + i * n + j) == d) { partners(next) = j; next += 1 }
        }
      }
      partnerStart(partnerStart.length - 1) = next
    }
  }
}
