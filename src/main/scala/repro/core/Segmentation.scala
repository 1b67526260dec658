package repro.core

import repro.core.Geometry.Rect
import scala.collection.mutable.ArrayBuffer

/** Image-domain segmentation of a spreadsheet (paper §4.1).
  *
  * 1. Connected components of the non-empty pixels (4-connectivity), the
  *    cell aggregates of Figure 4c, each held as its maximal horizontal
  *    runs of non-empty cells.
  * 2. A rectilinear partition of each component into rectangular *elements*
  *    (Figure 5c). We use the row-run merge decomposition: vertically
  *    adjacent runs with identical x-extent are merged into one rectangle.
  *    Every cut coincides with a concave-vertex row of the component
  *    outline, so the decomposition is a valid "extend edges incident to
  *    concave vertices" partition (cf. Bajuelos et al.); over-segmentation
  *    relative to the minimal partition is harmless because the clustering
  *    phase re-merges fine-grained elements (paper §4.1, last paragraph).
  */
object Segmentation {

  /** A 4-connected component: its maximal horizontal runs, row-major, and
    * the label its cells share.
    */
  final case class Component(runs: Vector[Rect], label: Int) {
    def boundingBox: Rect = Geometry.boundary(runs)
  }

  /** 4-connected components of the labelled cells of a w × h grid: the
    * cells (x, y) with `label(x, y)` ≥ 0, two neighbours joining when their
    * labels are equal. `label` is called once per cell. One pass collects
    * the runs row by row, a run being a maximal horizontal stretch of one
    * label ≥ 0; a [[UnionFind]] over the runs joins the runs of consecutive
    * rows that share a column and a label, found by a two-pointer sweep of
    * the two rows. Components come in row-major order of their first cell.
    */
  def components(w: Int, h: Int, label: (Int, Int) => Int): Vector[Component] = {
    val runs = ArrayBuffer.empty[Rect]
    val runLabels = Array.newBuilder[Int]
    val rowStart = new Array[Int](h + 1) // the runs of row y: rowStart(y) until rowStart(y + 1)
    val row = new Array[Int](w)
    for (y <- 0 until h) {
      var x = 0
      while (x < w) { row(x) = label(x, y); x += 1 }
      x = 0
      while (x < w) {
        val x0 = x
        while (x < w && row(x) == row(x0)) x += 1
        if (row(x0) >= 0) { runs += Rect(x0, y, x - 1, y); runLabels += row(x0) }
      }
      rowStart(y + 1) = runs.length
    }
    val labels = runLabels.result()
    val sets = new UnionFind(runs.length)
    for (y <- 1 until h) {
      var i = rowStart(y - 1); var j = rowStart(y)
      while (i < rowStart(y) && j < rowStart(y + 1)) {
        val a = runs(i); val b = runs(j)
        if (a.x0 <= b.x1 && b.x0 <= a.x1 && labels(i) == labels(j)) sets.union(i, j)
        if (a.x1 < b.x1) i += 1 else j += 1
      }
    }
    sets.sets(runs.indices).map(rs => Component(rs.map(runs), labels(rs.head)))
  }

  /** 4-connected components over the non-empty cells of a grid, in
    * row-major order of their first cell: [[components]] with label 0 for
    * a non-empty cell.
    */
  def connectedComponents(grid: TypedFile): Vector[Component] = {
    val img = grid.image
    components(grid.width, grid.height, (x, y) => if (img.isEmpty(x, y)) -1 else 0)
  }

  /** Rectilinear partition of one component into rectangles (elements), in
    * the order of their top run: one pass over the runs, each extending the
    * rectangle that ends on the row above with the same x-extent, or
    * starting a new one.
    */
  def partition(component: Component): Vector[Rect] = {
    val rects = ArrayBuffer.empty[Rect]
    val lastAt = scala.collection.mutable.HashMap.empty[Int, Int] // x0 -> index of the last rectangle starting there
    for (r <- component.runs) {
      lastAt.get(r.x0).filter(k => rects(k).y1 == r.y0 - 1 && rects(k).x1 == r.x1) match {
        case Some(k) => rects(k) = rects(k).copy(y1 = r.y0)
        case None    => lastAt(r.x0) = rects.length; rects += r
      }
    }
    rects.toVector
  }

  /** Full segmentation: connected components, then partition each into
    * elements. Returns all elements of the file.
    */
  def elements(grid: TypedFile): Vector[Rect] =
    connectedComponents(grid).flatMap(partition)
}
