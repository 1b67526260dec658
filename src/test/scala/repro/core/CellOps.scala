package repro.core

import repro.core.Geometry.Rect

/** Cell-by-cell enumerations and raw-cell accessors for the tests' checks;
  * the pipeline reads the type image and box corners instead.
  */
object CellOps {

  def isEmpty(raw: String): Boolean = Cells.synType(raw) == Cells.Empty

  implicit class RectCells(private val r: Rect) extends AnyVal {
    def contains(x: Int, y: Int): Boolean = x >= r.x0 && x <= r.x1 && y >= r.y0 && y <= r.y1
    /** The covered cells, row-major. */
    def cells: IndexedSeq[(Int, Int)] = for (y <- r.y0 to r.y1; x <- r.x0 to r.x1) yield (x, y)
  }

  implicit class GridCells(private val g: FileGrid) extends AnyVal {
    def cell(x: Int, y: Int): String = g.rows(y)(x)
    /** Syntactic-type code of cell (x, y); 0 is Empty. */
    def typeCode(x: Int, y: Int): Int = g.image.code(x, y)
    /** All non-empty cell coordinates, row-major. */
    def nonEmptyCells: IndexedSeq[(Int, Int)] =
      for (y <- 0 until g.height; x <- 0 until g.width if !g.image.isEmpty(x, y)) yield (x, y)
  }
}
