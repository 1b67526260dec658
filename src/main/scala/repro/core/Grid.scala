package repro.core

/** A spreadsheet file normalized to a rectangular grid of raw cell strings,
  * with its type image.
  *
  * Rows are padded with empty cells to the longest row's length (paper §4.1:
  * native csv files need not have the same number of delimiters per row).
  * Coordinates are (x, y) = (column, row) with the origin top-left, matching
  * the paper's Euclidean-space convention.
  *
  * @param rows  padded grid, `rows(y)(x)` is the raw content of cell (x,y)
  * @param image the file's type image: every cell typed once, when the grid
  *              is built; every stage that needs cell types reads it
  */
final class FileGrid private (val rows: Array[Array[String]], val image: TypeImage)
    extends TypedFile with Serializable {
  /** Unique file identifier within a corpus. */
  def fileId: String = image.fileId
  def height: Int = image.height
  def width: Int = image.width
}

object FileGrid {

  /** The grid of `rows`, each padded with empty cells to the longest row's
    * length, and typed.
    */
  def apply(fileId: String, rows: Array[Array[String]]): FileGrid = {
    val w = rows.foldLeft(0)(_ max _.length)
    val padded = rows.map(r => if (r.length == w) r else r.padTo(w, ""))
    new FileGrid(padded, TypeImage(fileId, padded))
  }
}

object Grid {

  /** Splits csv text into records in one pass (RFC 4180 quoting): a field
    * wrapped in double quotes may contain the delimiter, newlines and `""`
    * (an escaped quote); outside quotes, "\n" and "\r\n" end a record.
    * There is one record per line, as `text.split("\n", -1)` would cut it;
    * a line without any character is an empty array.
    */
  private def records(text: String, delim: Char): Vector[Array[String]] = {
    val out    = Vector.newBuilder[Array[String]]
    val fields = scala.collection.mutable.ArrayBuffer.empty[String]
    val sb     = new StringBuilder
    var inQ    = false
    var blank  = true
    def endField(): Unit = { fields += sb.result(); sb.clear() }
    def endRecord(): Unit = {
      if (blank) out += Array.empty[String] else { endField(); out += fields.toArray }
      fields.clear(); blank = true
    }
    val n = text.length
    var i = 0
    while (i < n) {
      val c = text.charAt(i)
      if (inQ) {
        if (c == '"') {
          if (i + 1 < n && text.charAt(i + 1) == '"') { sb.append('"'); i += 1 }
          else inQ = false
        } else sb.append(c)
      } else if (c == '\n') endRecord()
      else if (c == '\r' && i + 1 < n && text.charAt(i + 1) == '\n') { endRecord(); i += 1 }
      else {
        blank = false
        if (c == '"') inQ = true
        else if (c == delim) endField()
        else sb.append(c)
      }
      i += 1
    }
    endRecord()
    out.result()
  }

  /** Parses csv text into a padded [[FileGrid]] (paper §4.1). Blank lines
    * inside the file are empty rows; trailing blank lines are dropped.
    */
  def fromCsv(fileId: String, text: String, delim: Char = ','): FileGrid = {
    val rs = records(text, delim)
    fromRows(fileId, rs.take(rs.lastIndexWhere(_.nonEmpty) + 1).map(_.toSeq))
  }

  /** Builds a grid from already-split rows (see [[FileGrid.apply]]). */
  def fromRows(fileId: String, rows: Seq[Seq[String]]): FileGrid =
    FileGrid(fileId, rows.map(_.toArray).toArray)
}
