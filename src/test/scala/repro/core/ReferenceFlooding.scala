package repro.core

import repro.core.Geometry.SpatialRel

/** Reference similarity flooding for the tests: the straightforward
  * formulation `SimilarityFlooding` had before it became an array kernel
  * with an early exit. It computes every edge from the region boxes
  * instead of reading the graph's edge table, recounts degrees, rebuilds Φ
  * from `Option` edges, computes σ⁰ per direction and scans every partner
  * in every iteration. The kernel must return the same doubles.
  */
object ReferenceFlooding {

  /** The spatial relationship of regions i and j of `g`; none for i = j,
    * since nodes have no self edges.
    */
  def edge(g: LayoutGraph, i: Int, j: Int): Option[SpatialRel] =
    if (i == j) None else Some(Geometry.spatialRel(g.regions(i).box, g.regions(j).box))

  def edgeSimilarity(a: Option[SpatialRel], b: Option[SpatialRel], scale: Double): Double = (a, b) match {
    case (Some(ea), Some(eb)) if ea.direction == eb.direction =>
      val dm = ea.magnitude.toDouble - eb.magnitude.toDouble
      val dd = ea.distance - eb.distance
      val d  = math.sqrt(dm * dm + dd * dd)
      val norm =
        if (scale > 0.0) scale
        else {
          val mm = math.max(ea.magnitude, eb.magnitude).toDouble
          val md = math.max(math.abs(ea.distance), math.abs(eb.distance))
          math.sqrt(mm * mm + md * md)
        }
      if (norm == 0.0) 1.0 else 1.0 - math.min(1.0, d / norm)
    case _ => 0.0
  }

  def featureScale(g: LayoutGraph): Double = {
    var mx = 0.0
    for (i <- 0 until g.size; j <- 0 until g.size; r <- edge(g, i, j)) {
      val n = math.sqrt(r.magnitude.toDouble * r.magnitude + r.distance * r.distance)
      if (n > mx) mx = n
    }
    mx
  }

  def simAsym(ga: LayoutGraph, gb: LayoutGraph, p: SimilarityFlooding.Params): Double = {
    val u = ga.size; val v = gb.size
    if (u == 0 || v == 0) return 0.0
    val index = new RegionSimilarity.Index((ga.regions ++ gb.regions).toArray)
    val sigma0 = Array.tabulate(u, v)((i, j) => index.similarity(i, u + j))
    var sigma = sigma0.map(_.clone())
    val scale = math.max(featureScale(ga), featureScale(gb))

    def degree(g: LayoutGraph, i: Int): Int = (0 until g.size).count(j => edge(g, i, j).isDefined)

    var it = 0
    var delta = Double.MaxValue
    while (it < p.maxIterations && delta >= p.stopDelta) {
      val next = Array.tabulate(u, v) { (i, j) =>
        var acc = sigma0(i)(j)
        var weight = 1.0
        val degNorm = math.pow(2.0, math.abs(degree(ga, i) - degree(gb, j)).toDouble)
        var m = 0
        while (m < u) {
          if (m != i && edge(ga, i, m).isDefined) {
            var bestN = -1; var bestPhi = 0.0; var bestContrib = 0.0
            var n = 0
            while (n < v) {
              if (n != j && edge(gb, j, n).isDefined) {
                val phi = edgeSimilarity(edge(ga, i, m), edge(gb, j, n), scale)
                val contrib = phi * sigma(m)(n)
                if (contrib > bestContrib) { bestContrib = contrib; bestPhi = phi; bestN = n }
              }
              n += 1
            }
            if (bestN >= 0) {
              acc += sigma(m)(bestN) * bestPhi / degNorm
              weight += bestPhi / degNorm
            }
          }
          m += 1
        }
        acc / weight
      }
      var d2 = 0.0
      for (i <- 0 until u; j <- 0 until v) {
        val d = next(i)(j) - sigma(i)(j); d2 += d * d
      }
      delta = math.sqrt(d2)
      sigma = next
      it += 1
    }

    val matched = Hungarian.maxWeightMatching(sigma)
    val total = matched.map { case (i, j) => sigma(i)(j) }.sum
    total / math.max(u, v)
  }

  def similarity(ga: LayoutGraph, gb: LayoutGraph,
                 p: SimilarityFlooding.Params = SimilarityFlooding.Params()): Double =
    (simAsym(ga, gb, p) + simAsym(gb, ga, p)) / 2.0
}
