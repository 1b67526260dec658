package repro.core

import repro.core.CellOps._
import repro.core.Geometry.Rect

/** Reference cell-by-cell versions of the stages that read the type image,
  * for the tests: each re-types the raw strings of every cell it visits
  * with the regular-expression typing [[synType]], as the code did before
  * [[TypeImage]] and the one-pass `Cells.synType`. The image-backed
  * functions must return the same values, histograms bit for bit.
  * Components here are flood-filled cells, partitioned by regrouping the
  * cells into runs ([[components]], [[partition]]): the reference for the
  * run-based segmentation; detection clusters with DBSCAN ([[dbscan]]),
  * the reference for [[Clustering]]'s ε-graph components.
  */
object ReferenceTyping {

  private val IntRe   = """[+-]?\d+""".r
  private val FloatRe = """[+-]?(\d+[.,]\d*|[.,]\d+)([eE][+-]?\d+)?""".r
  private val TimeRe  = """\d{1,2}:\d{2}(:\d{2})?""".r
  private val DateRe  = """\d{1,4}[/\-.]\d{1,2}[/\-.]\d{1,4}""".r

  /** Table 1's typing rules as regular expressions: the specification of
    * the one-pass `Cells.synType`, which must return the same type for
    * every string.
    */
  def synType(raw: String): Cells.SynType = {
    import Cells._
    val v = if (raw == null) "" else raw.trim
    if (v.isEmpty) Empty
    else if (TimeRe.matches(v)) TimeSt
    else if (DateRe.matches(v)) DateSt
    else if (IntRe.matches(v)) IntegerSt
    else if (FloatRe.matches(v)) FloatSt
    else {
      val letters = v.filter(_.isLetter)
      if (letters.isEmpty) GenericSt
      else if (letters.forall(_.isUpper)) UppercaseSt
      else if (letters.forall(_.isLower)) LowercaseSt
      else {
        val words = v.split("""[\s]+""").filter(_.exists(_.isLetter))
        val title = words.nonEmpty && words.forall { w =>
          val ls = w.dropWhile(!_.isLetter)
          ls.nonEmpty && ls.head.isUpper && ls.tail.filter(_.isLetter).forall(_.isLower)
        }
        if (title) TitlecaseSt else GenericSt
      }
    }
  }

  private def isEmpty(grid: FileGrid, x: Int, y: Int): Boolean = synType(grid.cell(x, y)) == Cells.Empty

  def histogram(grid: FileGrid, box: Rect): Array[Double] = {
    val h = new Array[Double](RegionSimilarity.HistogramBins)
    val bins = RegionSimilarity.BinsPerChannel
    for (y <- math.max(0, box.y0) to math.min(grid.height - 1, box.y1);
         x <- math.max(0, box.x0) to math.min(grid.width - 1, box.x1)) {
      val (r, g, b) = synType(grid.cell(x, y)).rgb
      h(r / 4) += 1
      h(bins + g / 4) += 1
      h(2 * bins + b / 4) += 1
    }
    h
  }

  /** The 9 type counts of the in-grid cells of `box`. */
  def counts(grid: FileGrid, box: Rect): Array[Int] = {
    val c = new Array[Int](Cells.all.size)
    for (y <- math.max(0, box.y0) to math.min(grid.height - 1, box.y1);
         x <- math.max(0, box.x0) to math.min(grid.width - 1, box.x1))
      c(synType(grid.cell(x, y)).code) += 1
    c
  }

  def fromElements(grid: FileGrid, elems: Vector[Rect]): Region = {
    val box = Geometry.boundary(elems)
    Region(grid.fileId, box, elems, counts(grid, box), elems.map(_.area).sum.toInt)
  }

  def fromBox(grid: FileGrid, box: Rect): Region = {
    val nonEmpty = box.cells.count { case (x, y) =>
      x < grid.width && y < grid.height && !isEmpty(grid, x, y)
    }
    Region(grid.fileId, box, Vector(box), counts(grid, box), nonEmpty)
  }

  def iou(grid: FileGrid, p: Rect, t: Rect): Double = {
    def nonEmptyCells(r: Rect): Set[(Int, Int)] =
      (for {
        y <- math.max(0, r.y0) to math.min(grid.height - 1, r.y1)
        x <- math.max(0, r.x0) to math.min(grid.width - 1, r.x1)
        if !isEmpty(grid, x, y)
      } yield (x, y)).toSet
    val ps = nonEmptyCells(p); val ts = nonEmptyCells(t)
    val inter = (ps & ts).size
    val union = ps.size + ts.size - inter
    if (union == 0) { if (inter == 0) 1.0 else 0.0 } else inter.toDouble / union
  }

  /** Mean IoU of the gold boxes against their best-overlapping region. */
  def meanIou(grid: FileGrid, regions: Vector[Region], gold: Vector[Rect]): Double =
    if (gold.isEmpty) 0.0
    else gold.map(t => if (regions.isEmpty) 0.0 else regions.map(r => iou(grid, r.box, t)).max).sum / gold.size

  /** A connected component: its member cells (non-empty only). */
  final case class Component(cells: Vector[(Int, Int)]) {
    def boundingBox: Rect = {
      val xs = cells.map(_._1); val ys = cells.map(_._2)
      Rect(xs.min, ys.min, xs.max, ys.max)
    }
  }

  /** 4-connected components of the non-empty cells, each found by a flood
    * fill over re-typed cells; cells in the fill's visiting order.
    */
  def components(grid: FileGrid): Vector[Component] = {
    val w = grid.width; val h = grid.height
    val label = Array.fill(h, w)(false)
    val out = Vector.newBuilder[Component]
    for (y <- 0 until h; x <- 0 until w if !isEmpty(grid, x, y) && !label(y)(x)) {
      val cells = Vector.newBuilder[(Int, Int)]
      val stack = scala.collection.mutable.ArrayDeque((x, y)); label(y)(x) = true
      while (stack.nonEmpty) {
        val (cx, cy) = stack.removeLast()
        cells += ((cx, cy))
        for ((nx, ny) <- Seq((cx - 1, cy), (cx + 1, cy), (cx, cy - 1), (cx, cy + 1)))
          if (nx >= 0 && nx < w && ny >= 0 && ny < h && !isEmpty(grid, nx, ny) && !label(ny)(nx)) {
            label(ny)(nx) = true; stack.append((nx, ny))
          }
      }
      out += Component(cells.result())
    }
    out.result()
  }

  /** Rectilinear partition of one component into rectangles (elements):
    * maximal horizontal runs per row, then vertically adjacent runs with
    * identical x-extent merged, rectangles in the order of their top run.
    */
  def partition(component: Component): Vector[Rect] = {
    // maximal horizontal runs per row
    val byRow = component.cells.groupBy(_._2).view.mapValues(_.map(_._1).sorted).toMap
    final case class Run(y: Int, x0: Int, x1: Int)
    val runs = byRow.toVector.sortBy(_._1).flatMap { case (y, xs) =>
      val out = Vector.newBuilder[Run]
      var start = xs.head; var prev = xs.head
      for (x <- xs.tail) {
        if (x != prev + 1) { out += Run(y, start, prev); start = x }
        prev = x
      }
      out += Run(y, start, prev)
      out.result()
    }
    // merge vertically adjacent runs with identical x-extent
    val used = scala.collection.mutable.Set.empty[Run]
    val byRowRuns = runs.groupBy(_.y)
    val rects = Vector.newBuilder[Rect]
    for (r <- runs if !used(r)) {
      used += r
      var y1 = r.y
      var continue = true
      while (continue) {
        byRowRuns.getOrElse(y1 + 1, Vector.empty).find(n => !used(n) && n.x0 == r.x0 && n.x1 == r.x1) match {
          case Some(n) => used += n; y1 += 1
          case None    => continue = false
        }
      }
      rects += Rect(r.x0, r.y, r.x1, y1)
    }
    rects.result()
  }

  /** The elements of the flood-filled components. */
  def elements(grid: FileGrid): Vector[Rect] = components(grid).flatMap(partition)

  /** DBSCAN over elements with minPts = 1 and no noise (paper §4.2): the
    * cluster id of each input element, clusters numbered in the order the
    * scan opens them.
    */
  def dbscan(elems: IndexedSeq[Rect], p: Clustering.Params): Array[Int] = {
    val minPts = 1
    val n = elems.length
    val labels = Array.fill(n)(-1) // -1 = unvisited
    if (n == 0) return labels
    val dist = Array.tabulate(n, n)((i, j) => if (i == j) 0.0 else Clustering.elementDistance(elems(i), elems(j), p))
    def neighbors(i: Int): IndexedSeq[Int] = (0 until n).filter(j => dist(i)(j) <= p.eps)
    var cluster = -1
    val queue = new scala.collection.mutable.ArrayDeque[Int]()
    for (i <- 0 until n if labels(i) < 0) {
      val ni = neighbors(i)
      if (ni.length >= minPts) {
        cluster += 1
        labels(i) = cluster
        queue.clear(); queue ++= ni.filter(_ != i)
        while (queue.nonEmpty) {
          val q = queue.removeHead()
          if (labels(q) < 0) {
            labels(q) = cluster
            val nq = neighbors(q)
            if (nq.length >= minPts) queue ++= nq.filter(labels(_) < 0)
          }
        }
      }
    }
    for (i <- 0 until n if labels(i) < 0) { cluster += 1; labels(i) = cluster }
    labels
  }

  /** [[dbscan]]'s clusters: member rectangles in input order, clusters in
    * label order.
    */
  def clusterElements(elems: IndexedSeq[Rect], p: Clustering.Params): Vector[Vector[Rect]] = {
    val labels = dbscan(elems, p)
    elems.indices.groupBy(labels).toVector.sortBy(_._1).map { case (_, idx) => idx.map(elems).toVector }
  }

  /** Static Radius detection (`Mondrian.detectRegions`) on re-typed cells. */
  def detectRegions(grid: FileGrid, p: Clustering.Params): Vector[Region] = {
    val elems = elements(grid)
    if (elems.isEmpty) Vector.empty
    else clusterElements(elems, p).map(fromElements(grid, _))
  }

  /** Dynamic Radius detection against gold (`Strategies` "Dynamic Radius")
    * on re-typed cells.
    */
  def detectRegionsDynamic(grid: FileGrid, p: Clustering.Params, gold: Vector[Rect]): Vector[Region] = {
    val elems = elements(grid)
    var best = Double.NegativeInfinity
    var bestRegions = Vector.empty[Region]
    if (elems.nonEmpty) for (eps <- Mondrian.RadiusGrid) {
      val regions = clusterElements(elems, p.copy(eps = eps)).map(fromElements(grid, _))
      val s = meanIou(grid, regions, gold)
      if (s > best) { best = s; bestRegions = regions }
    }
    bestRegions
  }
}
