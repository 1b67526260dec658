package repro.core

/** A spreadsheet file normalized to a rectangular grid of raw cell strings.
  *
  * Rows are padded with empty cells to the longest row's length (paper §4.1:
  * native csv files need not have the same number of delimiters per row).
  * Coordinates are (x, y) = (column, row) with the origin top-left, matching
  * the paper's Euclidean-space convention.
  *
  * @param fileId   unique file identifier within a corpus
  * @param rows     padded grid, `rows(y)(x)` is the raw content of cell (x,y)
  */
final case class FileGrid(fileId: String, rows: Array[Array[String]]) {
  /** Grid height (number of rows, M in the paper). */
  def height: Int = rows.length
  /** Grid width (number of columns, N in the paper). */
  def width: Int = if (rows.isEmpty) 0 else rows(0).length

  /** The file's type image, built on first use; every stage that needs cell
    * types reads it instead of re-typing the raw strings. It is not
    * serialized: a task that receives the grid types its rows once.
    */
  @transient lazy val image: TypeImage = TypeImage(this)

  /** Java serialization writes the grid in its packed form (see
    * [[FileGrid.Packed]]) and reads it back as a new grid.
    */
  private def writeReplace(): AnyRef = FileGrid.pack(this)
}

object FileGrid {

  /** A grid as Java serialization writes it: the width of each row, the
    * length of each cell in row-major order, and all cell text in one
    * string. That is a handful of objects however many cells the grid has,
    * where the rows as they are would be one `String` per cell (half a
    * million on the Deco-like corpus, most of them empty). Rows keep their
    * own widths, so a ragged grid built with the constructor round-trips.
    */
  @SerialVersionUID(1L)
  private final class Packed(fileId: String, widths: Array[Int], lengths: Array[Int], text: String)
      extends Serializable {
    private def readResolve(): AnyRef = {
      var at = 0
      var c  = 0
      FileGrid(fileId, widths.map { w =>
        val row = new Array[String](w)
        var x = 0
        while (x < w) {
          val n = lengths(c)
          row(x) = if (n == 0) "" else text.substring(at, at + n)
          at += n; c += 1; x += 1
        }
        row
      })
    }
  }

  /** One pass over the cells: each is read once, most of them from cache
    * misses, so the text buffer grows rather than being sized first.
    */
  private def pack(g: FileGrid): Packed = {
    val widths  = g.rows.map(_.length)
    val lengths = new Array[Int](widths.sum)
    val text    = new java.lang.StringBuilder
    var c = 0
    var y = 0
    while (y < g.height) {
      val row = g.rows(y)
      var x = 0
      while (x < row.length) {
        val n = row(x).length
        if (n != 0) text.append(row(x))
        lengths(c) = n
        c += 1; x += 1
      }
      y += 1
    }
    new Packed(g.fileId, widths, lengths, text.toString)
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

  /** Builds a grid from already-split rows, padding to the longest row. */
  def fromRows(fileId: String, rows: Seq[Seq[String]]): FileGrid = {
    val w = if (rows.isEmpty) 0 else rows.map(_.length).max
    FileGrid(fileId, rows.map(r => r.padTo(w, "").toArray).toArray)
  }
}
