package repro.core

import repro.core.Geometry.Rect

/** Image-domain segmentation of a spreadsheet (paper §4.1).
  *
  * 1. Connected components of the non-empty pixels (4-connectivity), the
  *    cell aggregates of Figure 4c.
  * 2. A rectilinear partition of each component into rectangular *elements*
  *    (Figure 5c). We use the row-run merge decomposition: each row of a
  *    component is split into maximal horizontal runs, and vertically
  *    adjacent runs with identical x-extent are merged into one rectangle.
  *    Every cut coincides with a concave-vertex row of the component
  *    outline, so the decomposition is a valid "extend edges incident to
  *    concave vertices" partition (cf. Bajuelos et al.); over-segmentation
  *    relative to the minimal partition is harmless because the clustering
  *    phase re-merges fine-grained elements (paper §4.1, last paragraph).
  */
object Segmentation {

  /** A connected component: its member cells (non-empty only). */
  final case class Component(cells: Vector[(Int, Int)]) {
    def boundingBox: Rect = {
      val xs = cells.map(_._1); val ys = cells.map(_._2)
      Rect(xs.min, ys.min, xs.max, ys.max)
    }
  }

  /** 4-connected components over the non-empty cells of a grid, in
    * row-major order of their first cell, each with its cells in row-major
    * order.
    */
  def connectedComponents(grid: FileGrid): Vector[Component] = {
    val w = grid.width
    val img = grid.image
    UnionFind.grid(w, grid.height, c => !img.isEmpty(c % w, c / w))
      .map(cs => Component(cs.map(c => (c % w, c / w))))
  }

  /** Rectilinear partition of one component into rectangles (elements). */
  def partition(component: Component): Vector[Rect] = {
    // maximal horizontal runs per row
    val byRow = component.cells.groupBy(_._2).view.mapValues(_.map(_._1).sorted).toMap
    final case class Run(y: Int, x0: Int, x1: Int)
    val runs = byRow.toVector.sortBy(_._1).flatMap { case (y, xs) =>
      val out = Vector.newBuilder[Run]
      var start = xs.head; var prev = xs.head
      for (x <- xs.tail) {
        if (x != prev + 1) { out += Run(y, start, prev); start = x }
        prev = x
      }
      out += Run(y, start, prev)
      out.result()
    }
    // merge vertically adjacent runs with identical x-extent
    val used = scala.collection.mutable.Set.empty[Run]
    val byRowRuns = runs.groupBy(_.y)
    val rects = Vector.newBuilder[Rect]
    for (r <- runs if !used(r)) {
      used += r
      var y1 = r.y
      var continue = true
      while (continue) {
        byRowRuns.getOrElse(y1 + 1, Vector.empty).find(n => !used(n) && n.x0 == r.x0 && n.x1 == r.x1) match {
          case Some(n) => used += n; y1 += 1
          case None    => continue = false
        }
      }
      rects += Rect(r.x0, r.y, r.x1, y1)
    }
    rects.result()
  }

  /** Full segmentation: connected components, then partition each into
    * elements. Returns all elements of the file.
    */
  def elements(grid: FileGrid): Vector[Rect] =
    connectedComponents(grid).flatMap(partition)
}
