package repro.core

import repro.core.Geometry.Rect

/** A file as region detection reads it: its id and its type image. A
  * [[FileGrid]] is one, together with its cells; a [[TypeImage]] is one on
  * its own, and is what detection ships to its tasks.
  */
trait TypedFile {
  def fileId: String
  def image: TypeImage
  /** Grid width (number of columns, N in the paper). */
  def width: Int
  /** Grid height (number of rows, M in the paper). */
  def height: Int
}

/** The type image of a file (paper §4.1): one pixel per cell, holding the
  * cell's syntactic-type code (`Cells.SynType.code`, 0 = Empty).
  *
  * Every cell is typed once, when the image is built, and Java
  * serialization writes only the file id, the shape and the codes. Box
  * counts read one summed-area table per type (Crow, SIGGRAPH 1984):
  * `sat((y·(w+1) + x)·T + t)` is the number of type-t cells in the cells
  * [0, x) × [0, y). The count of a type inside any box is then four table
  * reads, whatever the box's size, and so are the non-empty count (IoU,
  * §5.3) and the 192-bin fingerprint (§4.2), which is a sum of per-type
  * counts. The table is built from the codes where a box is first counted,
  * and is never serialized.
  *
  * Box queries clamp the box to the grid: cells outside it count as absent.
  */
@SerialVersionUID(1L)
final class TypeImage private (val fileId: String, val width: Int, val height: Int, codes: Array[Byte])
    extends TypedFile with Serializable {
  import TypeImage.Types

  def image: TypeImage = this

  @transient private lazy val sat: Array[Int] = {
    val sat = new Array[Int]((width + 1) * (height + 1) * Types)
    val run = new Array[Int](Types) // type counts of row y's cells [0, x]
    var y = 0
    while (y < height) {
      java.util.Arrays.fill(run, 0)
      val above = y * (width + 1) * Types
      val here = above + (width + 1) * Types
      var x = 0
      while (x < width) {
        run(codes(y * width + x)) += 1
        // sat(x+1, y+1) = sat(x+1, y) + [type-t cells of row y in [0, x]]
        val i = (x + 1) * Types
        var t = 0
        while (t < Types) { sat(here + i + t) = sat(above + i + t) + run(t); t += 1 }
        x += 1
      }
      y += 1
    }
    sat
  }

  /** Type code of cell (x, y). */
  def code(x: Int, y: Int): Int = codes(y * width + x)

  /** Whether cell (x, y) is Empty (blank or whitespace only). */
  def isEmpty(x: Int, y: Int): Boolean = codes(y * width + x) == Cells.Empty.code

  private def at(s: Array[Int], x: Int, y: Int, t: Int): Int = s((y * (width + 1) + x) * Types + t)

  /** Number of type-`t` cells inside `box`. */
  def count(t: Int, box: Rect): Int = {
    val x0 = math.max(0, box.x0); val x1 = math.min(width - 1, box.x1) + 1
    val y0 = math.max(0, box.y0); val y1 = math.min(height - 1, box.y1) + 1
    if (x0 >= x1 || y0 >= y1) 0
    else { val s = sat; at(s, x1, y1, t) - at(s, x0, y1, t) - at(s, x1, y0, t) + at(s, x0, y0, t) }
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

  /** Types every cell of `rows`, which all have the first row's length. */
  private[core] def apply(fileId: String, rows: Array[Array[String]]): TypeImage = {
    val h = rows.length
    val w = if (h == 0) 0 else rows(0).length
    val codes = new Array[Byte](w * h)
    var y = 0
    while (y < h) {
      val row = rows(y)
      var x = 0
      while (x < w) { codes(y * w + x) = Cells.synType(row(x)).code.toByte; x += 1 }
      y += 1
    }
    new TypeImage(fileId, w, h, codes)
  }
}
