package repro.core

import repro.core.Geometry.Rect

/** The type image of a file (paper §4.1): one pixel per cell, holding the
  * cell's syntactic-type code (`Cells.SynType.code`, 0 = Empty).
  *
  * Every cell is typed once, when the image is built. Alongside the codes
  * the image keeps one summed-area table per type (Crow, SIGGRAPH 1984):
  * `sat((y·(w+1) + x)·T + t)` is the number of type-t cells in the cells
  * [0, x) × [0, y). The count of a type inside any box is then four table
  * reads, whatever the box's size, and so are the non-empty count (IoU,
  * §5.3) and the 192-bin fingerprint (§4.2), which is a sum of per-type
  * counts.
  *
  * Box queries clamp the box to the grid: cells outside it count as absent.
  */
final class TypeImage private (val width: Int, val height: Int,
                               codes: Array[Byte], sat: Array[Int]) {
  import TypeImage.Types

  /** Type code of cell (x, y). */
  def code(x: Int, y: Int): Int = codes(y * width + x)

  /** Whether cell (x, y) is Empty (blank or whitespace only). */
  def isEmpty(x: Int, y: Int): Boolean = codes(y * width + x) == Cells.Empty.code

  private def at(x: Int, y: Int, t: Int): Int = sat((y * (width + 1) + x) * Types + t)

  /** Number of type-`t` cells inside `box`. */
  def count(t: Int, box: Rect): Int = {
    val x0 = math.max(0, box.x0); val x1 = math.min(width - 1, box.x1) + 1
    val y0 = math.max(0, box.y0); val y1 = math.min(height - 1, box.y1) + 1
    if (x0 >= x1 || y0 >= y1) 0
    else at(x1, y1, t) - at(x0, y1, t) - at(x1, y0, t) + at(x0, y0, t)
  }

  /** Number of non-empty cells inside `box`. */
  def nonEmpty(box: Rect): Int = {
    val w = math.min(width - 1, box.x1) - math.max(0, box.x0) + 1
    val h = math.min(height - 1, box.y1) - math.max(0, box.y0) + 1
    if (w <= 0 || h <= 0) 0 else w * h - count(Cells.Empty.code, box)
  }
}

object TypeImage {
  private val Types = Cells.all.size

  /** Types every cell of `grid` and builds the summed-area tables. */
  def apply(grid: FileGrid): TypeImage = {
    val w = grid.width; val h = grid.height
    val codes = new Array[Byte](w * h)
    val sat = new Array[Int]((w + 1) * (h + 1) * Types)
    var y = 0
    while (y < h) {
      val row = grid.rows(y)
      val above = y * (w + 1) * Types
      val here = (y + 1) * (w + 1) * Types
      var x = 0
      while (x < w) {
        val c = Cells.synType(row(x)).code
        codes(y * w + x) = c.toByte
        // sat(x+1, y+1) = sat(x, y+1) + sat(x+1, y) − sat(x, y) + [cell is t]
        var t = 0
        while (t < Types) {
          val i = (x + 1) * Types + t
          sat(here + i) = sat(here + i - Types) + sat(above + i) - sat(above + i - Types) +
            (if (t == c) 1 else 0)
          t += 1
        }
        x += 1
      }
      y += 1
    }
    new TypeImage(w, h, codes, sat)
  }
}
