package repro.core

import repro.core.Geometry.Rect

/** A detected region: the bounding box of a cluster of elements plus its
  * fingerprint (paper §4.2).
  *
  * @param fileId    owning file
  * @param box       region boundary (Def 7)
  * @param elements  member element rectangles
  * @param counts    number of cells of each type (`Cells.SynType.code`
  *                  0..8, Empty included) in the box: the fingerprint
  * @param cellCount number of non-empty cells in the region
  */
final case class Region(fileId: String, box: Rect, elements: Vector[Rect],
                        counts: Array[Int], cellCount: Int) {

  /** The 192-bin color histogram (64 bins per RGB channel) of the box. */
  @transient lazy val histogram: Array[Double] = RegionSimilarity.histogram(counts)

  /** Java serialization writes the region in its packed form (see
    * [[Region.Packed]]) and reads it back as a new region.
    */
  private def writeReplace(): AnyRef = Region.pack(this)
}

object Region {
  private val Types = Cells.all.size

  /** A region as Java serialization writes it: the file id and one array
    * of the box, the cell count, the type counts and the elements, four
    * coordinates each. That is two objects per region, where the region as
    * it is would be a `Vector` and a `Rect` per element besides.
    */
  @SerialVersionUID(1L)
  private final class Packed(fileId: String, data: Array[Int]) extends Serializable {
    private def readResolve(): AnyRef = {
      def rect(i: Int) = Rect(data(i), data(i + 1), data(i + 2), data(i + 3))
      val first = 5 + Types
      Region(fileId, rect(0), Vector.tabulate((data.length - first) / 4)(k => rect(first + 4 * k)),
        java.util.Arrays.copyOfRange(data, 5, first), data(4))
    }
  }

  private def pack(r: Region): Packed = {
    require(r.counts.length == Types, s"a region has ${r.counts.length} type counts, not $Types")
    val data = new Array[Int](5 + Types + 4 * r.elements.size)
    def put(i: Int, b: Rect): Unit = { data(i) = b.x0; data(i + 1) = b.y0; data(i + 2) = b.x1; data(i + 3) = b.y1 }
    put(0, r.box)
    data(4) = r.cellCount
    System.arraycopy(r.counts, 0, data, 5, Types)
    var i = 5 + Types
    for (e <- r.elements) { put(i, e); i += 4 }
    new Packed(r.fileId, data)
  }
}

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
  *
  * A cell's type alone fixes its three bins, so the histogram is
  * h = Σ_t c_t·e_t over the 9 type counts c_t of the box, where e_t is the
  * 0/1 vector of t's bins. Regions therefore store only the counts, and the
  * cross-correlation is computed from them in closed form (DESIGN.md §5.2):
  * with G(t, s) the number of bins types t and s share, a·b = cᵀGc′ and
  * Σa = 3·Σc, so the centred sums scaled by the 192 bins are integers.
  */
object RegionSimilarity {

  val BinsPerChannel = 64
  val HistogramBins  = 3 * BinsPerChannel

  private val Types = Cells.all.size

  /** Relative margin around τ·√va·√vb within which [[Index.atLeast]]
    * takes the exact path.
    */
  private final val AtLeastBand = 1e-9

  /** The three bins (R, G, B) that a cell of each type adds 1 to. */
  private val typeBins: Array[Array[Int]] = Cells.all.map { t =>
    val (r, g, b) = t.rgb
    Array(r / 4, BinsPerChannel + g / 4, 2 * BinsPerChannel + b / 4)
  }.toArray

  /** Bin-overlap matrix G(t, s) = e_t·e_s: the number of bins that types t
    * and s share (3 on the diagonal).
    */
  private[core] val overlap: Array[Array[Int]] =
    Array.tabulate(Types, Types)((t, s) => typeBins(t).count(typeBins(s).contains))

  /** The 9 type counts of `box` in `grid`: the region fingerprint. */
  def counts(grid: TypedFile, box: Rect): Array[Int] = {
    val img = grid.image
    Array.tabulate(Types)(img.count(_, box))
  }

  /** The 192-bin histogram h = Σ_t counts(t)·e_t. Bin values are integers,
    * which doubles hold exactly, so this equals the cell-by-cell sum.
    */
  def histogram(counts: Array[Int]): Array[Double] = {
    val h = new Array[Double](HistogramBins)
    var t = 0
    while (t < Types) {
      val c = counts(t)
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

  /** G·c. */
  private def weigh(c: Array[Int]): Array[Long] = Array.tabulate(Types) { t =>
    var s = 0L; var u = 0
    while (u < Types) { s += overlap(t)(u).toLong * c(u); u += 1 }
    s
  }

  private def dot(w: Array[Long], c: Array[Int]): Long = {
    var s = 0L; var t = 0
    while (t < Types) { s += w(t) * c(t); t += 1 }
    s
  }

  /** Number of cells Σc. */
  private def total(c: Array[Int]): Long = { var s = 0L; var t = 0; while (t < Types) { s += c(t); t += 1 }; s }

  /** 192 · Σ(a_i − mean)² = 192·cᵀGc − (3·Σc)², exact for regions of up to
    * ~10⁸ cells.
    */
  private def spread(c: Array[Int]): Long = {
    val n = total(c)
    HistogramBins * dot(weigh(c), c) - 9 * n * n
  }

  /** [[crossCorrelation]] of two histograms from closed-form terms: their
    * dot product `ab`, cell totals `na`, `nb` and [[spread]]s `va`, `vb`.
    * The integer terms are exact (192·a·b − Σa·Σb is the numerator scaled
    * by 192); only the square root and the division round. Same clamp and
    * same zero-variance rule (a histogram is constant only when its box has
    * no cells).
    */
  private def ncc(ab: Long, na: Long, nb: Long, va: Long, vb: Long): Double =
    if (va == 0L || vb == 0L) { if (va == vb) 1.0 else 0.0 }
    else {
      val num = HistogramBins * ab - 9 * na * nb
      math.min(1.0, math.max(0.0, num / math.sqrt(va.toDouble * vb.toDouble)))
    }

  /** The closed-form terms of many regions in flat arrays, for scans over
    * all region pairs: each region's counts c and G·c, its cell total and
    * its [[spread]]. `similarity(i, j)`, the similarity of regions i and j,
    * is the cross-correlation of their fingerprints.
    */
  private[core] final class Index(regions: Array[Region]) extends Serializable {
    private val counts   = regions.flatMap(_.counts)
    private val weighted = regions.flatMap(r => weigh(r.counts))
    private val totals   = regions.map(r => total(r.counts))
    private val spreads  = regions.map(r => spread(r.counts))
    private val roots    = spreads.map(v => math.sqrt(v.toDouble))

    /** a·b of regions i and j. */
    private def dot(i: Int, j: Int): Long = {
      var ab = 0L; var t = 0
      val wi = i * Types; val cj = j * Types
      while (t < Types) { ab += weighted(wi + t) * counts(cj + t); t += 1 }
      ab
    }

    def similarity(i: Int, j: Int): Double = ncc(dot(i, j), totals(i), totals(j), spreads(i), spreads(j))

    /** `similarity(i, j) >= tau`, without the square root and the division
      * where the exact numerator is clearly above or below τ·√va·√vb: the
      * two sides round by a few ulps, far inside the relative band
      * [[AtLeastBand]], and inside it or when τ ≤ 0 or a spread is 0 the
      * exact similarity decides.
      */
    def atLeast(i: Int, j: Int, tau: Double): Boolean =
      if (tau <= 0 || spreads(i) == 0L || spreads(j) == 0L) similarity(i, j) >= tau
      else {
        val num = (HistogramBins * dot(i, j) - 9 * totals(i) * totals(j)).toDouble
        val limit = tau * roots(i) * roots(j)
        if (num > limit * (1 + AtLeastBand)) true
        else if (num < limit * (1 - AtLeastBand)) false
        else similarity(i, j) >= tau
      }
  }

  /** Builds a [[Region]] from a cluster of elements of one file. */
  def fromElements(grid: TypedFile, elems: Vector[Rect]): Region = {
    val box   = Geometry.boundary(elems)
    val cells = elems.map(_.area).sum.toInt
    Region(grid.fileId, box, elems, counts(grid, box), cells)
  }

  /** Builds a [[Region]] straight from a bounding box (gold regions or
    * baseline detections that do not produce element sets).
    */
  def fromBox(grid: TypedFile, box: Rect): Region =
    Region(grid.fileId, box, Vector(box), counts(grid, box), grid.image.nonEmpty(box))
}
