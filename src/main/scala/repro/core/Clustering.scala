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

  /** The regions of `elems` at each radius of the non-decreasing `radii`:
    * the components of the graph joining elements at distance ≤ ε, in
    * DBSCAN's order — clusters by first element, members in input order.
    * The partitions are nested (single linkage), so one pass serves every
    * radius: each pair's distance is computed once and the pair is put in
    * the bucket of the first radius it is within; one union-find then
    * takes the buckets in radius order. A radius whose bucket merges no
    * two clusters gets the same instance as the radius before it.
    */
  def clusterings(elems: IndexedSeq[Rect], p: Params, radii: Seq[Double]): Vector[Vector[Vector[Rect]]] = {
    val eps = radii.toArray
    require(eps.indices.drop(1).forall(k => eps(k - 1) <= eps(k)), s"radii must be non-decreasing: $radii")
    val n = elems.length
    // the pairs i * n + j within the last radius; bucket b lists
    // pair(head(b)), pair(next(head(b))), … up to the index -1
    val pair = new Array[Int](n * (n - 1) / 2)
    val next = new Array[Int](pair.length)
    val head = Array.fill(eps.length)(-1)
    var kept = 0
    var i = 0
    while (i < n) {
      var j = i + 1
      while (j < n) {
        val d = elementDistance(elems(i), elems(j), p)
        var lo = 0; var hi = eps.length // the first radius with d ≤ ε, by binary search
        while (lo < hi) { val mid = (lo + hi) >>> 1; if (d <= eps(mid)) hi = mid else lo = mid + 1 }
        if (lo < eps.length) { pair(kept) = i * n + j; next(kept) = head(lo); head(lo) = kept; kept += 1 }
        j += 1
      }
      i += 1
    }
    val sets = new UnionFind(n)
    var last: Vector[Vector[Rect]] = null
    eps.indices.iterator.map { b =>
      var merged = last == null
      var k = head(b)
      while (k >= 0) { if (sets.union(pair(k) / n, pair(k) % n)) merged = true; k = next(k) }
      if (merged) last = sets.sets(0 until n).map(_.map(elems))
      last
    }.toVector
  }

  /** Groups elements into regions at radius `p.eps`: each cluster's member
    * rectangles.
    */
  def clusterElements(elems: IndexedSeq[Rect], p: Params): Vector[Vector[Rect]] =
    clusterings(elems, p, Seq(p.eps)).head
}
