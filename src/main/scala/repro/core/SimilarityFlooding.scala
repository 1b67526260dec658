package repro.core

import repro.core.Geometry.Alignment

/** Layout similarity via similarity flooding (paper §4.3, after Melnik et
  * al.): node similarities seeded from region fingerprints are iteratively
  * propagated along edge pairs weighted by edge similarity, then read out
  * with a maximum-weight bipartite matching.
  */
object SimilarityFlooding {

  /** Flooding hyperparameters: the paper recommends stopping at matrix
    * delta 0.1 or 10 iterations (§4.3).
    */
  final case class Params(maxIterations: Int = 10, stopDelta: Double = 0.1)

  /** Similarity Φ of two same-direction edges with features (ma, da) and
    * (mb, db): 1 minus the Euclidean distance of the feature vectors
    * "normalized by the maximum value" to land in [0, 1]. Edges of
    * different directions have similarity 0 (§4.3).
    *
    * `scale` is that maximum: the flooding passes the largest edge-feature
    * norm across the two graphs (a per-graph-pair constant), so that small
    * absolute jitters between corresponding edges — e.g. a footnote block
    * shifted by two rows between two files of one template, cf. §2 — yield
    * similarities near 1 instead of being normalized by their own small
    * feature values. Magnitudes and distances are never negative, so a
    * scale of 0 means every feature is 0 and every edge pair is identical.
    */
  private def featureSimilarity(ma: Double, da: Double, mb: Double, db: Double, scale: Double): Double = {
    val dm = ma - mb
    val dd = da - db
    val d  = math.sqrt(dm * dm + dd * dd)
    if (scale == 0.0) 1.0 else 1.0 - math.min(1.0, d / scale)
  }

  /** Margin by which an upper bound must fall short of `atLeast` before
    * flooding is skipped; it absorbs floating-point rounding in the bound
    * and in the flooding (both are orders of magnitude smaller).
    */
  private val BoundSlack = 1e-9

  /** Symmetric layout similarity: the average of both flooding directions
    * sim(Ga, Gb) and sim(Gb, Ga) (§4.3).
    *
    * σ⁰ is the region-fingerprint similarity matrix. Each iteration floods
    * the neighborhood contribution into every node pair (i, j): for every
    * neighbor m of i, only the neighbor n of j with the maximal
    * contribution Φ·σ(m, n) is used (1:1 match assumption; ties go to the
    * lowest n), weighted by Φ normalized by D = 2^|deg(i) − deg(j)|.
    * Layouts are complete graphs: every node of Ga has degree |Ga| − 1, so
    * D = 2^||Ga| − |Gb|| is one constant per pair of graphs. The update is
    * the *normalized* (convex) form
    *
    *   σ'(i,j) = (σ⁰(i,j) + Σ_m Φ·σ(m,n)/D) / (1 + Σ_m Φ/D)
    *
    * rather than the paper's literal unnormalized sum followed by division
    * by the matrix maximum: under the literal form only the argmax pair can
    * ever reach 1, so two *identical* multiregion layouts score strictly
    * below 1 (an 18-region file scores ≈0.988 against itself), making the
    * τ_f = 0.99 threshold of the paper's own Table 3 unreachable for the
    * ≥6-region class it reports C = 0.95 on. The convex form keeps σ in
    * [0, 1], is a fixed point at 1 for equivalent layouts, and preserves
    * the flooding semantics. Documented as a substitution in DESIGN.md.
    * The loop stops when the Frobenius delta falls under `stopDelta` or
    * after `maxIterations`; a direction's score is the maximum-weight
    * matching average over max(|Ga|, |Gb|).
    *
    * With `atLeast` > 0 the caller only needs scores ≥ `atLeast`, and a
    * cascade of upper bounds on the score runs before flooding, cheapest
    * first. The node-count bound `LayoutGraph.sizeBound` (§5.4) is returned
    * when it is below `atLeast`, before σ⁰ is built. Then each direction's
    * cap matrix B ([[caps]]) is built once, and two bounds read it: the
    * mean of both directions' [[lineBound]]s (O(|Ga|·|Gb|)), then that of
    * their matching averages over B (a Hungarian matching each); the first
    * mean below `atLeast` − [[BoundSlack]] is returned without flooding. A
    * returned bound is below `atLeast`, and is not the score.
    *
    * This puts the two layouts into a [[LayoutGraph.Table]] and runs the
    * one scoring kernel, which the inference scan calls on its broadcast
    * table.
    */
  def similarity(ga: LayoutGraph, gb: LayoutGraph, p: Params = Params(), atLeast: Double = 0.0): Double =
    similarity(new LayoutGraph.Table(Array(ga.regions, gb.regions)), 0, 1, p, atLeast)

  /** [[similarity]] of layouts x and y of table `t`: the scoring kernel. */
  private[core] def similarity(t: LayoutGraph.Table, x: Int, y: Int, p: Params, atLeast: Double): Double = {
    val u = t.size(x); val v = t.size(y)
    if (u == 0 || v == 0) return 0.0
    val size = LayoutGraph.sizeBound(u, v)
    if (size < atLeast) return size
    val s0 = seed(t, x, y)
    // σ⁰ is symmetric bit for bit, so the reverse direction reads its transpose
    lazy val s0t = Array.tabulate(v, u)((j, i) => s0(i)(j))
    if (atLeast > 0.0) {
      val ab = caps(t, x, y, s0(_)(_)); val ba = caps(t, y, x, (j, i) => s0(i)(j))
      val line = (lineBound(ab) + lineBound(ba)) / 2.0
      if (line < atLeast - BoundSlack) return line
      val matched = (matchingAverage(ab) + matchingAverage(ba)) / 2.0
      if (matched < atLeast - BoundSlack) return matched
    }
    val scale = math.max(t.featureScale(x), t.featureScale(y))
    val dn = normalization(u, v)
    (flood(t, x, y, s0, dn, scale, p) + flood(t, y, x, s0t, dn, scale, p)) / 2.0
  }

  /** σ⁰(i, j): the region-fingerprint similarity of node i of layout x and
    * node j of layout y, read from the table's region index.
    */
  private[core] def seed(t: LayoutGraph.Table, x: Int, y: Int): Array[Array[Double]] = {
    val a = t.start(x); val b = t.start(y)
    Array.tabulate(t.size(x), t.size(y))((i, j) => t.index.similarity(a + i, b + j))
  }

  /** D = 2^||Ga| − |Gb||, the neighborhood normalization of every node pair
    * in both directions, for node counts `u` and `v`.
    */
  private def normalization(u: Int, v: Int): Double = math.pow(2.0, math.abs(u - v).toDouble)

  /** Maximum-weight matching total over max(rows, cols). */
  private[core] def matchingAverage(w: Array[Array[Double]]): Double = {
    val total = Hungarian.maxWeightMatching(w).map { case (i, j) => w(i)(j) }.sum
    total / math.max(w.length, w(0).length)
  }

  /** One flooding direction sim(x, y) of table `t` from σ⁰ = `s0`
    * (|x| × |y|) and the neighborhood normalization `dn`.
    *
    * Φ is 0 across directions, and a zero contribution never beats the
    * running maximum, so for a neighbor m of i only the partners n of j
    * whose edge has the direction of (i, m) are scanned.
    */
  private def flood(t: LayoutGraph.Table, x: Int, y: Int, s0: Array[Array[Double]],
                    dn: Double, scale: Double, p: Params): Double = {
    val u = t.size(x); val v = t.size(y)
    val ex = t.edgeStart(x); val ey = t.edgeStart(y)
    val py = t.start(y) * Alignment.Count
    var sigma = s0.map(_.clone())
    var next  = Array.ofDim[Double](u, v)
    var it = 0
    var delta = Double.MaxValue
    while (it < p.maxIterations && delta >= p.stopDelta) {
      var d2 = 0.0
      var i = 0
      while (i < u) {
        var j = 0
        while (j < v) {
          var acc = s0(i)(j)
          var weight = 1.0
          var m = 0
          while (m < u) {
            if (m != i) {
              val e = ex + i * u + m
              val ma = t.mags(e); val da = t.dists(e)
              val q = py + j * Alignment.Count + t.dirs(e)
              val sm = sigma(m)
              var bestN = -1; var bestPhi = 0.0; var bestContrib = 0.0
              var k = t.partnerStart(q)
              val end = t.partnerStart(q + 1)
              while (k < end) {
                val n = t.partners(k)
                val f = ey + j * v + n
                val phi = featureSimilarity(ma, da, t.mags(f), t.dists(f), scale)
                val contrib = phi * sm(n)
                if (contrib > bestContrib) { bestContrib = contrib; bestPhi = phi; bestN = n }
                k += 1
              }
              if (bestN >= 0) {
                acc += sm(bestN) * bestPhi / dn
                weight += bestPhi / dn
              }
            }
            m += 1
          }
          val s = acc / weight
          val d = s - sigma(i)(j)
          d2 += d * d
          next(i)(j) = s
          j += 1
        }
        i += 1
      }
      delta = math.sqrt(d2)
      val last = sigma; sigma = next; next = last
      it += 1
    }
    matchingAverage(sigma)
  }

  /** K(i, j): the number of neighbors of node i of layout x whose edge
    * direction occurs among the edges of node j of layout y, from the
    * per-node direction counts of table `t`.
    */
  private def reach(t: LayoutGraph.Table, x: Int, i: Int, y: Int, j: Int): Int = {
    val a = (t.start(x) + i) * Alignment.Count; val b = (t.start(y) + j) * Alignment.Count
    val ps = t.partnerStart
    var k = 0
    var d = 0
    while (d < Alignment.Count) {
      if (ps(b + d + 1) > ps(b + d)) k += ps(a + d + 1) - ps(a + d)
      d += 1
    }
    k
  }

  /** The caps B of one flooding direction sim(x, y) of table `t`, from
    * σ⁰(i, j) = `s0(i, j)` (i of x, j of y), as a |x| × |y| matrix:
    *
    *   B(i, j) = max(σ⁰, (σ⁰ + K/D)/(1 + K/D))
    *
    * with K(i, j) the [[reach]] and D the [[normalization]]. Only the K
    * neighbors of i counted by [[reach]] can contribute, each with Φ ≤ 1,
    * so an update adds weight W ≤ K/D; with σ ≤ 1,
    * σ'(i, j) ≤ (σ⁰ + W)/(1 + W), which grows with W for σ⁰ ≤ 1. So B
    * bounds every iterate σ of the direction, σ⁰ included, and is in
    * [0, 1] since σ⁰ is: the matching average over B bounds the
    * direction's score, and so does the cheaper [[lineBound]] of B.
    *
    * σ⁰ is read through a function so that the reverse direction reads
    * the transpose of the one σ⁰ matrix without building it.
    */
  private[core] def caps(t: LayoutGraph.Table, x: Int, y: Int, s0: (Int, Int) => Double): Array[Array[Double]] = {
    val u = t.size(x); val v = t.size(y)
    val dn = normalization(u, v)
    // rows filled by loops into plain arrays: a 2-D Array.ofDim creates its
    // outer array reflectively, which slowed the cascade by ~20% on Deco
    val b = new Array[Array[Double]](u)
    var i = 0
    while (i < u) {
      val row = new Array[Double](v)
      var j = 0
      while (j < v) {
        val s = s0(i, j)
        val kd = reach(t, x, i, y, j) / dn
        row(j) = math.max(s, (s + kd) / (1.0 + kd))
        j += 1
      }
      b(i) = row
      i += 1
    }
    b
  }

  /** Line-maximum bound on one flooding direction from its caps `b` (see
    * [[caps]]), a nonempty matrix of entries ≥ 0: a matching over b
    * weighs at most the sum of b's row maxima, and at most the sum of its
    * column maxima. The bound is the smaller sum over max(rows, cols):
    * never below [[matchingAverage]] of b and, when every entry is ≤ 1,
    * never above the node-count bound `LayoutGraph.sizeBound`. Each sum
    * runs in index order, so bᵀ gets the same bits.
    */
  private[core] def lineBound(b: Array[Array[Double]]): Double = {
    val rows = b.length; val cols = b(0).length
    val rowMax = new Array[Double](rows); val colMax = new Array[Double](cols)
    var i = 0
    while (i < rows) {
      var j = 0
      while (j < cols) {
        val c = b(i)(j)
        if (c > rowMax(i)) rowMax(i) = c
        if (c > colMax(j)) colMax(j) = c
        j += 1
      }
      i += 1
    }
    math.min(total(rowMax), total(colMax)) / math.max(rows, cols)
  }

  /** Sum of `xs` in index order. */
  private def total(xs: Array[Double]): Double = {
    var s = 0.0
    var k = 0
    while (k < xs.length) { s += xs(k); k += 1 }
    s
  }
}

/** Maximum-weight bipartite matching via the O(n³) Hungarian algorithm on
  * the rectangular weight matrix (padded internally to square). Used to
  * read a 1:1 node correspondence out of the flooded similarity matrix.
  */
object Hungarian {

  /** Returns the matched (row, col) pairs maximizing total weight; rows or
    * columns beyond min(rows, cols) stay unmatched.
    */
  def maxWeightMatching(w: Array[Array[Double]]): Vector[(Int, Int)] = {
    val rows = w.length
    if (rows == 0) return Vector.empty
    val cols = w(0).length
    if (cols == 0) return Vector.empty
    val n = math.max(rows, cols)
    var mx = 0.0
    for (r <- w; x <- r) mx = math.max(mx, x)
    // min-cost square matrix: cost = mx - weight, padding costs mx (weight 0)
    val cost = Array.tabulate(n, n)((i, j) => if (i < rows && j < cols) mx - w(i)(j) else mx)

    // e-maxx Hungarian with potentials; 1-based internal arrays.
    val INF = Double.MaxValue / 4
    val uPot = new Array[Double](n + 1)
    val vPot = new Array[Double](n + 1)
    val p    = new Array[Int](n + 1) // p(j) = row matched to column j
    val way  = new Array[Int](n + 1)
    for (i <- 1 to n) {
      p(0) = i
      var j0 = 0
      val minv = Array.fill(n + 1)(INF)
      val used = Array.fill(n + 1)(false)
      var continue = true
      while (continue) {
        used(j0) = true
        val i0 = p(j0)
        var d = INF
        var j1 = -1
        for (j <- 1 to n if !used(j)) {
          val cur = cost(i0 - 1)(j - 1) - uPot(i0) - vPot(j)
          if (cur < minv(j)) { minv(j) = cur; way(j) = j0 }
          if (minv(j) < d) { d = minv(j); j1 = j }
        }
        for (j <- 0 to n) {
          if (used(j)) { uPot(p(j)) += d; vPot(j) -= d }
          else minv(j) -= d
        }
        j0 = j1
        if (p(j0) == 0) continue = false
      }
      while (j0 != 0) {
        val j1 = way(j0)
        p(j0) = p(j1)
        j0 = j1
      }
    }
    (1 to n).flatMap { j =>
      val i = p(j)
      if (i >= 1 && i <= rows && j <= cols) Some((i - 1, j - 1)) else None
    }.toVector
  }
}
