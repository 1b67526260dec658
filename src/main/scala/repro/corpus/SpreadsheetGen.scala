package repro.corpus

import scala.util.Random
import repro.core.FileGrid
import repro.core.Geometry.Rect

/** Synthetic multiregion spreadsheet generator.
  *
  * The paper evaluates on Deco (annotated ENRON sheets) and Fuste (annotated
  * FUSE sheets), neither of which is available offline. This substrate
  * generates structurally equivalent corpora: files are instantiated from
  * *template specs* — a fixed sequence of region bands (titles, tables,
  * footnotes, notes, optionally side-by-side tables) — with per-file noise
  * mirroring the paper's Figure 2: changing data values, missing cells,
  * empty rows inside tables, vertical offset jitter, varying row counts,
  * updated years/footers. Files of one template therefore share number,
  * layout and schema of regions (Def 14) without being byte-identical.
  *
  * Gold annotations per file: region bounding boxes and kinds, per-cell
  * roles (data/header/metadata) and synthetic "bold" style bits (used only
  * by the Genetic-XLS baseline), and the template id.
  */
object SpreadsheetGen {

  /** Cell roles for the genetic baseline's supervised cell classifier. */
  object Role { val EmptyR: Byte = 0; val Data: Byte = 1; val Header: Byte = 2; val Metadata: Byte = 3 }

  /** Column value types of synthetic tables (map 1:1 to syntactic types). */
  sealed trait ColType
  case object CInt extends ColType; case object CFloat extends ColType
  case object CDate extends ColType; case object CTime extends ColType
  case object CUpper extends ColType; case object CLower extends ColType
  case object CTitle extends ColType; case object CGeneric extends ColType
  val AllColTypes: Vector[ColType] = Vector(CInt, CFloat, CDate, CTime, CUpper, CLower, CTitle, CGeneric)

  /** One region's structural spec inside a template. */
  sealed trait RegionSpec
  final case class TitleSpec(words: Int) extends RegionSpec
  final case class FootnoteSpec(lineTypes: Vector[ColType], withDate: Boolean) extends RegionSpec
  /** Notes blocks mix two template-fixed types so that their histogram
    * fingerprints differ continuously across templates.
    */
  final case class NotesSpec(rows: Int, cols: Int, typeA: ColType, typeB: ColType,
                             probB: Double) extends RegionSpec
  /** `minorTypes`/`minorAt` mix a template-fixed minority type into the
    * data cells at *template-fixed positions*: real tables rarely have
    * perfectly pure columns (footnote markers, "n/a" strings, stray dates),
    * the mixing fraction differentiates the histograms of otherwise
    * same-schema templates, and a cell's syntactic type stays stable across
    * files of one pipeline (only its value changes) — per-file type draws
    * would make same-template fingerprints noisy in a way real corpora are
    * not.
    *
    * `emptyRowsAt` (data-row indices) and `missingAt` (row, interior column)
    * are equally *template-fixed* noise patterns: files produced by one
    * pipeline share the positions of their empty rows and structurally-
    * missing values (cf. paper Figure 2, where the same rows are blank in
    * all three files, and §4.1's observation that parsing mistakes are
    * "reflected across all similar files"). `extraMissProb` adds the small
    * per-file random missingness on top.
    */
  /** `headerRows` supports multi-row headers; `gapAfterCol` lists columns
    * followed by a template-fixed empty column (a table visually split in
    * two, the Figure 5 phenomenon the clustering's alignment term exists
    * for). Both add continuous histogram diversity across templates.
    */
  final case class TableSpec(colTypes: Vector[ColType], header: Option[ColType],
                             headerRows: Int, gapAfterCol: Vector[Int],
                             baseRows: Int, missingAt: Vector[(Int, Int)],
                             emptyRowsAt: Vector[Int], minorTypes: Vector[ColType],
                             minorAt: Vector[(Int, Int)], extraMissProb: Double,
                             growCols: Boolean) extends RegionSpec

  /** A vertical band: one region, or two placed side by side with a column
    * gap (gap 1 = the "table split by an empty column" phenomenon; gap 0 =
    * directly adjacent regions needing partitioning, Figure 5).
    */
  final case class Band(specs: Vector[RegionSpec], colGap: Int)

  /** A template: its bands and the (file-jittered) gaps between them. */
  final case class TemplateSpec(templateId: String, bands: Vector[Band], bandGap: Int, xOffset: Int)

  /** Gold annotation of one region instance. */
  final case class GoldRegion(kind: String, box: Rect)

  /** A generated file with its gold standard. */
  final case class GoldFile(fileId: String, templateId: String, outlier: Boolean,
                            grid: FileGrid, roles: Array[Array[Byte]],
                            bold: Array[Array[Boolean]], regions: Vector[GoldRegion]) {
    /** The file's cells; the grid owns them. Detection ships the grid's
      * type image, not the file, to its tasks, so the cell text, `roles`
      * and `bold` stay on the driver.
      */
    def rows: Array[Array[String]] = grid.rows
    def regionBoxes: Vector[Rect] = regions.map(_.box)
  }

  // ---------------------------------------------------------------- values

  private val UpperWords   = Vector("MWH", "TOTAL", "NET", "USD", "KWH", "EAST", "WEST", "PEAK", "FIRM", "SYS")
  private val LowerWords   = Vector("estimate", "subtotal", "real/time", "pending", "actual", "rate", "average",
                                    "deliveries", "scheduled", "balance", "losses", "projected")
  private val TitleWords   = Vector("Firm", "Sales", "Projected", "Population", "Energy", "Demand", "Region",
                                    "Yearly", "Report", "Revenue", "Quarter", "Mortality", "Origin", "Census")
  private val GenericWords = Vector("System avg. =", "net Of losses", "aVg/day", "per Unit (est.)", "x-Rate adj.")

  private def word(rnd: Random, pool: Vector[String]): String = pool(rnd.nextInt(pool.size))

  /** A value of the requested column type; content varies per call, the
    * syntactic type never does.
    */
  def value(rnd: Random, t: ColType): String = t match {
    case CInt     => (rnd.nextInt(99000) + 1).toString
    case CFloat   => f"${rnd.nextDouble() * 999 + 0.5}%.2f"
    case CDate    => s"${1 + rnd.nextInt(28)}/${1 + rnd.nextInt(12)}/${1990 + rnd.nextInt(40)}"
    case CTime    => f"${rnd.nextInt(24)}%02d:${rnd.nextInt(60)}%02d"
    case CUpper   => word(rnd, UpperWords)
    case CLower   => word(rnd, LowerWords)
    case CTitle   => s"${word(rnd, TitleWords)} ${word(rnd, TitleWords)}"
    case CGeneric => word(rnd, GenericWords)
  }

  // ------------------------------------------------------------- templates

  /** Region-count classes used when building corpora (paper Table 3). */
  sealed trait SizeClass
  case object One extends SizeClass        // exactly 1 region
  case object FewRegions extends SizeClass // 2..5 regions
  case object ManyRegions extends SizeClass// 6..12 regions
  case object OutlierFile extends SizeClass// ~50+ regions (excluded by 99.9% rule)

  /** Deterministically derives a template spec for the requested size class.
    * Structure (schemas, widths, gaps, band composition) is fixed by the
    * template RNG; only data varies per file.
    */
  def template(templateId: String, sizeClass: SizeClass, seed: Long): TemplateSpec = {
    val rnd = new Random(seed)
    def tableSpec(): TableSpec = {
      val w = 2 + rnd.nextInt(11)
      val colTypes = Vector.fill(w)(AllColTypes(rnd.nextInt(AllColTypes.size)))
      val header = if (rnd.nextDouble() < 0.8) Some(Vector(CTitle, CUpper, CGeneric)(rnd.nextInt(3))) else None
      val baseRows = 4 + rnd.nextInt(20)
      // cell-level missingness stays rare (real missing values manifest
      // mostly as whole empty rows, cf. Figure 2); whole-row gaps are the
      // dominant noise, template-positioned and *periodic* as in Figure 2,
      // where a blank row follows every few data rows
      val missingProb = Vector(0.0, 0.01, 0.02, 0.04)(rnd.nextInt(4))
      val gapPeriod = Vector(0, 0, 3, 4, 5, 6)(rnd.nextInt(6))
      val emptyRowsAt =
        if (gapPeriod == 0) Vector.empty[Int]
        else (gapPeriod until baseRows by gapPeriod).toVector
      val missingAt =
        if (w <= 2) Vector.empty[(Int, Int)]
        else (for { r <- 0 until baseRows; x <- 1 until w - 1 if rnd.nextDouble() < missingProb }
          yield (r, x)).toVector
      val minorProb = rnd.nextDouble() * 0.3
      val minorAt = (for { r <- 0 until baseRows; x <- 0 until w if rnd.nextDouble() < minorProb }
        yield (r, x)).toVector
      val headerRows = if (header.isEmpty) 0 else 1 + (if (rnd.nextDouble() < 0.25) 1 else 0)
      val gapAfterCol =
        if (w >= 5 && rnd.nextDouble() < 0.25) Vector(1 + rnd.nextInt(w - 3))
        else Vector.empty[Int]
      TableSpec(colTypes, header, headerRows, gapAfterCol, baseRows, missingAt, emptyRowsAt,
        minorTypes = Vector.fill(w)(AllColTypes(rnd.nextInt(AllColTypes.size))),
        minorAt = minorAt,
        extraMissProb = 0.0005,
        // column growth and structural missing cells are mutually exclusive
        // noise dimensions: combined they flip borderline element merges
        // differently per file, which real same-pipeline files do not do
        growCols = rnd.nextDouble() < 0.3 && missingAt.isEmpty)
    }
    def notesSpec(): NotesSpec =
      NotesSpec(1 + rnd.nextInt(3), 1 + rnd.nextInt(3),
        Vector(CLower, CTitle, CGeneric)(rnd.nextInt(3)),
        AllColTypes(rnd.nextInt(AllColTypes.size)),
        rnd.nextDouble() * 0.5)
    def footnoteSpec(): FootnoteSpec =
      FootnoteSpec(Vector.fill(2 + rnd.nextInt(3))(Vector(CLower, CGeneric)(rnd.nextInt(2))),
                   withDate = rnd.nextBoolean())
    def singleBand(spec: RegionSpec): Band = Band(Vector(spec), 0)

    val nRegions = sizeClass match {
      case One         => 1
      case FewRegions  => 2 + rnd.nextInt(4)  // 2..5
      case ManyRegions => 6 + rnd.nextInt(7)  // 6..12
      case OutlierFile => 50 + rnd.nextInt(15)
    }

    val bands: Vector[Band] = sizeClass match {
      case One =>
        // single-region files are single-table files (a csv holding one
        // table); small note blocks only occur alongside other regions —
        // a corpus of floating three-cell notes files would make distinct
        // "templates" structurally indistinguishable by construction
        Vector(singleBand(tableSpec()))
      case OutlierFile =>
        // dozens of scattered small note blocks, two per band
        def smallBlock(): NotesSpec =
          NotesSpec(1, 1 + rnd.nextInt(2), Vector(CInt, CFloat)(rnd.nextInt(2)),
            AllColTypes(rnd.nextInt(AllColTypes.size)), rnd.nextDouble() * 0.3)
        Vector.fill((nRegions + 1) / 2)(
          Band(Vector(smallBlock(), smallBlock()), colGap = 2 + rnd.nextInt(3)))
      case _ =>
        // title? + body regions + footnote?, with occasional side-by-side pair
        val buf = Vector.newBuilder[Band]
        var remaining = nRegions
        val useTitle = remaining >= 2 && rnd.nextDouble() < 0.7
        val useFoot  = remaining >= 3 && rnd.nextDouble() < 0.7
        if (useTitle) { buf += singleBand(TitleSpec(3 + rnd.nextInt(4))); remaining -= 1 }
        val footSpec = if (useFoot) { remaining -= 1; Some(footnoteSpec()) } else None
        while (remaining > 0) {
          if (remaining >= 2 && rnd.nextDouble() < 0.2) {
            buf += Band(Vector(tableSpec(), tableSpec()), colGap = rnd.nextInt(3))
            remaining -= 2
          } else {
            buf += singleBand(if (rnd.nextDouble() < 0.85) tableSpec() else notesSpec())
            remaining -= 1
          }
        }
        footSpec.foreach(f => buf += singleBand(f))
        buf.result()
    }
    TemplateSpec(templateId, bands, bandGap = 2 + rnd.nextInt(3), xOffset = if (rnd.nextDouble() < 0.2) rnd.nextInt(3) else 0)
  }

  // ----------------------------------------------------------- file canvas

  private final class Canvas {
    val cells = scala.collection.mutable.Map.empty[(Int, Int), (String, Byte, Boolean)]
    var maxX = -1; var maxY = -1
    def put(x: Int, y: Int, v: String, role: Byte, bold: Boolean): Unit = {
      if (v.nonEmpty) {
        cells((x, y)) = (v, role, bold)
        if (x > maxX) maxX = x
        if (y > maxY) maxY = y
      }
    }
    def materialize(): (Array[Array[String]], Array[Array[Byte]], Array[Array[Boolean]]) = {
      val w = maxX + 1; val h = maxY + 1
      val rows  = Array.fill(h, w)("")
      val roles = Array.fill(h, w)(Role.EmptyR)
      val bold  = Array.fill(h, w)(false)
      for (((x, y), (v, r, b)) <- cells) { rows(y)(x) = v; roles(y)(x) = r; bold(y)(x) = b }
      (rows, roles, bold)
    }
  }

  /** Renders one region spec at (x0, y0); returns its gold bounding box. */
  private def render(c: Canvas, rnd: Random, spec: RegionSpec, x0: Int, y0: Int): (GoldRegion, Int) = spec match {
    case TitleSpec(words) =>
      val text = (0 until words).map(_ => word(rnd, TitleWords)).mkString(" ")
      c.put(x0, y0, text, Role.Metadata, bold = true)
      (GoldRegion("title", Rect(x0, y0, x0, y0)), 1)

    case FootnoteSpec(lineTypes, withDate) =>
      var y = y0
      for (t <- lineTypes) { c.put(x0, y, value(rnd, t), Role.Metadata, bold = false); y += 1 }
      if (withDate) {
        c.put(x0, y, s"Release Date: ${word(rnd, TitleWords)} ${1990 + rnd.nextInt(40)}", Role.Metadata, bold = false)
        y += 1
      }
      (GoldRegion("footnote", Rect(x0, y0, x0, y - 1)), y - y0)

    case NotesSpec(nr, nc, tA, tB, probB) =>
      for (dy <- 0 until nr; dx <- 0 until nc) {
        val t = if (rnd.nextDouble() < probB) tB else tA
        c.put(x0 + dx, y0 + dy, value(rnd, t), Role.Metadata, bold = false)
      }
      (GoldRegion("notes", Rect(x0, y0, x0 + nc - 1, y0 + nr - 1)), nr)

    case TableSpec(colTypes, header, headerRows, gapAfterCol, baseRows, missingAt, emptyRowsAt, minorTypes, minorAt, extraMissProb, growCols) =>
      // per-file schema jitter mirrors paper Figure 2: same-template tables
      // keep their row count but templates marked `growCols` may gain a
      // column in some files (the US Census tables grow a year column
      // across releases); vertical variation comes from file offsets
      val w = colTypes.length + (if (growCols && rnd.nextBoolean()) 1 else 0)
      def colType(x: Int): ColType = colTypes(math.min(x, colTypes.length - 1))
      def minorType(x: Int): ColType = minorTypes(math.min(x, minorTypes.length - 1))
      // x position of each data column, skipping template-fixed empty cols
      val gapSet = gapAfterCol.toSet
      val colX: Vector[Int] = {
        var pos = 0
        (0 until w).map { cIdx => val p = pos; pos += (if (gapSet(cIdx)) 2 else 1); p }.toVector
      }
      var y = y0
      header.foreach { hType =>
        for (_ <- 0 until headerRows) {
          for (x <- 0 until w) c.put(x0 + colX(x), y, value(rnd, hType), Role.Header, bold = true)
          y += 1
        }
      }
      val nRows = baseRows
      // plan data cells first, then guarantee every row and column keeps at
      // least one value — the gold boundary must span the full schema even
      // under missing-value noise
      val missing = missingAt.toSet
      val minor = minorAt.toSet
      val plan = Array.tabulate(nRows, w) { (r, x) =>
        if (missing((r, x)) || rnd.nextDouble() < extraMissProb) None
        else {
          val t = if (minor((r, x))) minorType(x) else colType(x)
          Some(value(rnd, t))
        }
      }
      for (r <- 0 until nRows if plan(r).forall(_.isEmpty)) {
        val x = rnd.nextInt(w); plan(r)(x) = Some(value(rnd, colType(x)))
      }
      for (x <- 0 until w if (0 until nRows).forall(r => plan(r)(x).isEmpty)) {
        val r = rnd.nextInt(nRows); plan(r)(x) = Some(value(rnd, colType(x)))
      }
      val emptyRows = emptyRowsAt.toSet
      var emitted = 0
      while (emitted < nRows) {
        if (emitted > 0 && emptyRows(emitted)) y += 1 // template-fixed empty row
        for (x <- 0 until w; v <- plan(emitted)(x))
          c.put(x0 + colX(x), y, v, Role.Data, bold = false)
        y += 1
        emitted += 1
      }
      (GoldRegion("table", Rect(x0, y0, x0 + colX(w - 1), y - 1)), y - y0)
  }

  /** Instantiates one file of a template with per-file noise. */
  def instantiate(spec: TemplateSpec, fileId: String, fileSeed: Long, outlier: Boolean = false): GoldFile = {
    val rnd = new Random(fileSeed)
    val c = new Canvas
    val regions = Vector.newBuilder[GoldRegion]
    var y = rnd.nextInt(3) // leading-offset jitter
    for (band <- spec.bands) {
      var x = spec.xOffset
      var bandHeight = 0
      for (s <- band.specs) {
        val (gr, h) = render(c, rnd, s, x, y)
        regions += gr
        bandHeight = math.max(bandHeight, h)
        // place the next region of the band after the *rendered* width —
        // per-file column jitter makes the spec width unreliable
        x = gr.box.x1 + 1 + band.colGap
      }
      y += bandHeight + spec.bandGap + rnd.nextInt(2) // inter-band gap jitter
    }
    val (rows, roles, bold) = c.materialize()
    GoldFile(fileId, spec.templateId, outlier, FileGrid(fileId, rows), roles, bold, regions.result())
  }
}
