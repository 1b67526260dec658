package repro.core

import repro.core.Geometry.Rect

/** A detected region: the bounding box of a cluster of elements plus its
  * color-histogram fingerprint (paper §4.2).
  *
  * @param fileId    owning file
  * @param box       region boundary (Def 7)
  * @param elements  member element rectangles
  * @param histogram 192-bin color histogram (64 bins per RGB channel)
  * @param cellCount number of non-empty cells in the region
  */
final case class Region(fileId: String, box: Rect, elements: Vector[Rect],
                        histogram: Array[Double], cellCount: Int)

/** Region fingerprinting and similarity (paper §4.2).
  *
  * Every cell in a region's bounding box contributes its type color
  * (Table 1, including White for empty cells) to three 64-bin channel
  * histograms (bin = channelValue / 4), concatenated into one 192-bin
  * fingerprint — a global descriptor whose values depend on the amount and
  * distribution of cells of different types. Region similarity is the
  * normalized cross-correlation of the two fingerprints, clamped to [0, 1].
  * Shades of one primary color land in nearby bins, so sub-types of a
  * fundamental type stay more similar than different fundamental types.
  */
object RegionSimilarity {

  val BinsPerChannel = 64
  val HistogramBins  = 3 * BinsPerChannel

  /** The three bins (R, G, B) that a cell of each type adds 1 to. */
  private val typeBins: Array[Array[Int]] = Cells.all.map { t =>
    val (r, g, b) = t.rgb
    Array(r / 4, BinsPerChannel + g / 4, 2 * BinsPerChannel + b / 4)
  }.toArray

  /** Histogram over all cells of `box` in `grid` (empty cells included).
    * Each cell adds 1 to its type's three bins, so the histogram is the sum
    * over types t of (cells of type t in the box) · (t's three bins).
    */
  def histogram(grid: FileGrid, box: Rect): Array[Double] = {
    val img = grid.image
    val h = new Array[Double](HistogramBins)
    var t = 0
    while (t < typeBins.length) {
      val c = img.count(t, box)
      if (c > 0) { val bins = typeBins(t); h(bins(0)) += c; h(bins(1)) += c; h(bins(2)) += c }
      t += 1
    }
    h
  }

  /** Normalized cross-correlation of two histograms, clamped to [0, 1]. */
  def crossCorrelation(a: Array[Double], b: Array[Double]): Double = {
    require(a.length == b.length, "histogram length mismatch")
    val n = a.length
    var sa = 0.0; var sb = 0.0
    var i = 0
    while (i < n) { sa += a(i); sb += b(i); i += 1 }
    val ma = sa / n; val mb = sb / n
    var num = 0.0; var da = 0.0; var db = 0.0
    i = 0
    while (i < n) {
      val xa = a(i) - ma; val xb = b(i) - mb
      num += xa * xb; da += xa * xa; db += xb * xb
      i += 1
    }
    if (da == 0.0 || db == 0.0) { if (da == db) 1.0 else 0.0 }
    else math.min(1.0, math.max(0.0, num / math.sqrt(da * db)))
  }

  /** Similarity of two regions = cross-correlation of their fingerprints. */
  def similarity(a: Region, b: Region): Double = crossCorrelation(a.histogram, b.histogram)

  /** Builds a [[Region]] from a cluster of elements of one file. */
  def fromElements(grid: FileGrid, elems: Vector[Rect]): Region = {
    val box   = Geometry.boundary(elems)
    val hist  = histogram(grid, box)
    val cells = elems.map(_.area).sum.toInt
    Region(grid.fileId, box, elems, hist, cells)
  }

  /** Builds a [[Region]] straight from a bounding box (gold regions or
    * baseline detections that do not produce element sets).
    */
  def fromBox(grid: FileGrid, box: Rect): Region = {
    Region(grid.fileId, box, Vector(box), histogram(grid, box), grid.image.nonEmpty(box))
  }
}
