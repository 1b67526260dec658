package repro.core

import repro.core.Geometry.Rect

/** End-to-end per-file region detection (paper §4.1 + §4.2): image parsing,
  * connected components, rectilinear partitioning into elements, and
  * clustering of elements into regions.
  */
object Mondrian {

  /** Paper hyperparameters per dataset (§5.2), α = γ = 1 for both:
    * Deco: β = 0.5, static radius 1.5;
    * Fuste: β = 1, static radius 1.4.
    */
  val DecoParams: Clustering.Params  = Clustering.Params(beta = 0.5, eps = 1.5)
  val FusteParams: Clustering.Params = Clustering.Params(beta = 1.0, eps = 1.4)

  /** The dynamic-radius search grid of §5.2: [0.1,2] step 0.1, (2,10] step 1,
    * (10,100] step 10.
    */
  val RadiusGrid: Vector[Double] =
    ((1 to 20).map(_ * 0.1) ++ (3 to 10).map(_.toDouble) ++ (2 to 10).map(_ * 10.0)).toVector

  /** Detects the regions of one file with a fixed radius. */
  def detectRegions(grid: TypedFile, params: Clustering.Params): Vector[Region] = {
    val elems = Segmentation.elements(grid)
    if (elems.isEmpty) Vector.empty
    else Clustering.clusterElements(elems, params).map(RegionSimilarity.fromElements(grid, _))
  }

  /** Dynamic-radius detection (§5.2): scores the cluster boxes at the
    * radii of [[RadiusGrid]] (the paper picks the radius per file against
    * the gold standard; callers pass e.g. mean IoU vs. gold boxes) and
    * makes regions of the first radius of the highest score. A radius with
    * the partition of the radius before it would score the same, so only
    * distinct partitions are scored.
    */
  def detectRegionsDynamic(grid: TypedFile, base: Clustering.Params,
                           score: Vector[Rect] => Double): (Double, Vector[Region]) = {
    val elems = Segmentation.elements(grid)
    if (elems.isEmpty) return (RadiusGrid.head, Vector.empty)
    val parts = Clustering.clusterings(elems, base, RadiusGrid)
    val (best, _) = parts.indices.filter(k => k == 0 || !(parts(k) eq parts(k - 1)))
      .map(k => (k, score(parts(k).map(Geometry.boundary))))
      .reduceLeft((best, c) => if (c._2 > best._2) c else best)
    (RadiusGrid(best), parts(best).map(RegionSimilarity.fromElements(grid, _)))
  }

  /** The connected-components baseline (Coletta et al., §5.2): each
    * connected component's bounding box is one region — no partitioning,
    * no clustering.
    */
  def detectRegionsCC(grid: TypedFile): Vector[Region] =
    Segmentation.connectedComponents(grid).map { c =>
      RegionSimilarity.fromBox(grid, c.boundingBox)
    }

  /** Gold-standard regions from annotated bounding boxes. */
  def regionsFromBoxes(grid: TypedFile, boxes: Vector[Rect]): Vector[Region] =
    boxes.map(RegionSimilarity.fromBox(grid, _))
}
