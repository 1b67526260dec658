package repro.core

import repro.core.Geometry.Rect

/** Region detection: density-based clustering of elements (paper §4.2).
  *
  * Mondrian modifies DBSCAN to (a) use a custom weighted distance over
  * elements and (b) label no element as noise, with minPts m = 1 so any
  * single element can form a region. The distance between two elements is
  *
  *   d(a,b) = α · closestCellDistance + β · sizeDifference + γ · misalignment
  *
  * (terms from [[Geometry]]), α = γ = 1 (§5.2). With m = 1 every point is
  * a core point, so a DBSCAN cluster is exactly a connected component of
  * the ε-neighborhood graph (Ester et al., KDD 1996); we compute those
  * components with a [[UnionFind]]. The test-only `ReferenceTyping.dbscan` keeps the DBSCAN
  * formulation, and the tests check that both agree.
  */
object Clustering {

  /** Clustering hyperparameters per dataset (§5.2): β and the radius ε. */
  final case class Params(beta: Double = 0.5, eps: Double = 1.5)

  /** The weighted element distance of §4.2, with α = γ = 1. */
  def elementDistance(a: Rect, b: Rect, p: Params): Double =
    Geometry.distance(a, b) + p.beta * Geometry.sizeDifference(a, b) + Geometry.misalignment(a, b)

  /** The regions of `elems` at each radius of `radii`: the components of
    * the graph joining elements at distance ≤ ε, in DBSCAN's order —
    * clusters by first element, members in input order. The distances do
    * not depend on ε, so they are computed once (the upper triangle).
    */
  def clusterings(elems: IndexedSeq[Rect], p: Params, radii: Seq[Double]): Vector[Vector[Vector[Rect]]] = {
    val n = elems.length
    val dist = new Array[Double](n * (n - 1) / 2)
    var k = 0
    for (i <- 0 until n; j <- i + 1 until n) { dist(k) = elementDistance(elems(i), elems(j), p); k += 1 }
    radii.iterator.map { eps =>
      val sets = new UnionFind(n)
      var k = 0
      for (i <- 0 until n; j <- i + 1 until n) { if (dist(k) <= eps) sets.union(i, j); k += 1 }
      sets.sets(0 until n).map(_.map(elems))
    }.toVector
  }

  /** Groups elements into regions at radius `p.eps`: each cluster's member
    * rectangles.
    */
  def clusterElements(elems: IndexedSeq[Rect], p: Params): Vector[Vector[Rect]] =
    clusterings(elems, p, Seq(p.eps)).head
}
