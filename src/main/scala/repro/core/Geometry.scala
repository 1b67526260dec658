package repro.core

/** Rectangles in cell space and the spatial-relationship features of the
  * paper: alignment direction (Def 3), alignment magnitude (Def 4), distance
  * (Def 5), and the overlap extension for region bounding boxes (Def 8).
  *
  * A [[Rect]] `(x0, y0, x1, y1)` covers cells with x0 ≤ x ≤ x1, y0 ≤ y ≤ y1
  * (inclusive corners, as in Def 2's element vector).
  */
object Geometry {

  /** Alignment direction between two rectangles; `code` is a dense index
    * in [0, Alignment.Count) for array-backed tables.
    */
  sealed abstract class Alignment(val code: Int)
  /** y-projections overlap (elements share rows, i.e. lie side by side). */
  case object V extends Alignment(0)
  /** x-projections overlap (elements share columns, stacked). */
  case object H extends Alignment(1)
  /** Bounding boxes overlap (regions only; elements never overlap). */
  case object O extends Alignment(2)
  /** Projections overlap on neither axis. */
  case object N extends Alignment(3)

  object Alignment {
    /** All directions, indexed by `code`. */
    val values: Vector[Alignment] = Vector(V, H, O, N)
    val Count: Int = values.length
  }

  /** Closed integer rectangle in cell coordinates. */
  final case class Rect(x0: Int, y0: Int, x1: Int, y1: Int) {
    require(x0 <= x1 && y0 <= y1, s"degenerate rect ($x0,$y0,$x1,$y1)")
    def width: Int  = x1 - x0 + 1
    def height: Int = y1 - y0 + 1
    def area: Long  = width.toLong * height.toLong
    /** Smallest rectangle covering both. */
    def union(o: Rect): Rect =
      Rect(math.min(x0, o.x0), math.min(y0, o.y0), math.max(x1, o.x1), math.max(y1, o.y1))
  }

  /** Shared extent of the y-projections (≥ 1 iff overlapping). */
  private def yOverlap(a: Rect, b: Rect): Int = math.min(a.y1, b.y1) - math.max(a.y0, b.y0) + 1
  /** Shared extent of the x-projections (≥ 1 iff overlapping). */
  private def xOverlap(a: Rect, b: Rect): Int = math.min(a.x1, b.x1) - math.max(a.x0, b.x0) + 1

  /** Def 3 extended with Def 8: O if both projections overlap (possible only
    * for region bounding boxes), else V / H / N.
    */
  def alignment(a: Rect, b: Rect): Alignment = {
    val v = yOverlap(a, b) >= 1
    val h = xOverlap(a, b) >= 1
    if (v && h) O else if (v) V else if (h) H else N
  }

  /** Def 4 / Def 8: number of shared axis points; overlap area for O. */
  def alignmentMagnitude(a: Rect, b: Rect): Long = alignment(a, b) match {
    case V => yOverlap(a, b).toLong
    case H => xOverlap(a, b).toLong
    case O => yOverlap(a, b).toLong * xOverlap(a, b).toLong
    case N => 0L
  }

  /** Number of empty columns between the x-extents (0 if touching/overlap). */
  def xGap(a: Rect, b: Rect): Int = math.max(0, math.max(a.x0, b.x0) - math.min(a.x1, b.x1) - 1)
  /** Number of empty rows between the y-extents (0 if touching/overlap). */
  def yGap(a: Rect, b: Rect): Int = math.max(0, math.max(a.y0, b.y0) - math.min(a.y1, b.y1) - 1)

  /** Def 5 / Def 8: distance of the two closest points. For V (side by side)
    * this is the horizontal boundary gap, for H the vertical one, 0 for
    * overlapping regions, and the Euclidean combination of both gaps when
    * not aligned.
    */
  def distance(a: Rect, b: Rect): Double = alignment(a, b) match {
    case V => xGap(a, b).toDouble
    case H => yGap(a, b).toDouble
    case O => 0.0
    case N => math.sqrt(math.pow(xGap(a, b), 2) + math.pow(yGap(a, b), 2))
  }

  /** Spatial relationship feature vector (direction, magnitude, distance). */
  final case class SpatialRel(direction: Alignment, magnitude: Long, distance: Double)

  def spatialRel(a: Rect, b: Rect): SpatialRel =
    SpatialRel(alignment(a, b), alignmentMagnitude(a, b), distance(a, b))

  /** Corner-offset misalignment term of the clustering distance (§4.2):
    * h = |yTL0−yTL1| + |yBR0−yBR1| (row offsets), v = |xTL0−xTL1| + |xBR0−xBR1|
    * (column offsets). The paper prints the term as the sum h+v, but for any
    * two non-overlapping elements one of the two components is necessarily
    * large (stacked elements differ in rows, side-by-side ones in columns),
    * so a literal sum would *repel* exactly the well-aligned pairs the term
    * is motivated to attract ("if elements separated by visual space have a
    * high alignment, they most likely belong together"). We therefore use
    * min(h, v): 0 when the pair is perfectly aligned along either axis,
    * growing with offset — the behavior the paper's prose describes.
    *
    * Offsets are normalized by the union extent of the pair, making the
    * term scale-free like the size term: with raw cell counts a partition
    * fragment a few columns narrower than its table block would receive a
    * penalty of several cells and could never rejoin it at the paper's
    * radii (ε = 1.4/1.5) — the re-merging of Figure 5d would be impossible.
    * The paper's ε range is only coherent if β- and γ-terms live on a
    * comparable O(1) scale. Documented as a substitution in DESIGN.md.
    */
  def misalignment(a: Rect, b: Rect): Double = {
    val u = a.union(b)
    val h = (math.abs(a.y0 - b.y0) + math.abs(a.y1 - b.y1)).toDouble / math.max(1, u.height)
    val v = (math.abs(a.x0 - b.x0) + math.abs(a.x1 - b.x1)).toDouble / math.max(1, u.width)
    math.min(h, v)
  }

  /** Size-difference term of the clustering distance (§4.2): 1 − a0/a1 with
    * a1 the larger area — 0 for equal sizes, → 1 for very unequal.
    */
  def sizeDifference(a: Rect, b: Rect): Double = {
    val (s, l) = if (a.area <= b.area) (a.area, b.area) else (b.area, a.area)
    1.0 - s.toDouble / l.toDouble
  }

  /** Def 7: bounding box of a set of rectangles. */
  def boundary(rs: Iterable[Rect]): Rect = rs.reduce(_ union _)
}
