package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.core.Geometry.{Alignment, H, Rect, SpatialRel, V}

/** Similarity flooding layout comparison and Hungarian matching (§4.3). */
class SimilarityFloodingSpec extends AnyFunSuite {

  private def grid(rows: String*): FileGrid =
    Grid.fromRows("f", rows.map(_.split("\\|", -1).toSeq))

  private def layoutOf(fileId: String, g: FileGrid, boxes: Rect*): LayoutGraph =
    LayoutGraph.build(fileId, boxes.toVector.map(RegionSimilarity.fromBox(g, _)))

  // --- edge similarity
  test("edge similarity of identical edges is 1") {
    val e = Some(SpatialRel(H, 3, 2.0))
    assert(ReferenceFlooding.edgeSimilarity(e, e, 0.0) == 1.0)
  }
  test("edge similarity across different directions is 0") {
    assert(ReferenceFlooding.edgeSimilarity(
      Some(SpatialRel(H, 3, 2.0)), Some(SpatialRel(V, 3, 2.0)), 0.0) == 0.0)
  }
  test("edge similarity with a missing edge is 0") {
    assert(ReferenceFlooding.edgeSimilarity(None, Some(SpatialRel(H, 3, 2.0)), 0.0) == 0.0)
    assert(ReferenceFlooding.edgeSimilarity(Some(SpatialRel(H, 3, 2.0)), None, 0.0) == 0.0)
  }
  test("edge similarity decreases with feature distance") {
    val base = Some(SpatialRel(H, 5, 2.0))
    val near = ReferenceFlooding.edgeSimilarity(base, Some(SpatialRel(H, 5, 3.0)), 0.0)
    val far  = ReferenceFlooding.edgeSimilarity(base, Some(SpatialRel(H, 5, 9.0)), 0.0)
    assert(near > far)
    assert(near > 0.0 && near < 1.0 && far >= 0.0 && far <= 1.0)
  }
  test("edge similarity of two zero-feature edges is 1") {
    assert(ReferenceFlooding.edgeSimilarity(
      Some(SpatialRel(V, 0, 0.0)), Some(SpatialRel(V, 0, 0.0)), 0.0) == 1.0)
  }

  // --- Hungarian matching
  test("hungarian picks the identity on a diagonal-dominant matrix") {
    val w = Array(Array(9.0, 1.0, 1.0), Array(1.0, 9.0, 1.0), Array(1.0, 1.0, 9.0))
    assert(Hungarian.maxWeightMatching(w).toSet == Set((0, 0), (1, 1), (2, 2)))
  }
  test("hungarian finds the non-greedy optimum") {
    // greedy picks (0,0)=5 then (1,1)=1 (total 6); optimum is 4+4=8
    val w = Array(Array(5.0, 4.0), Array(4.0, 1.0))
    val m = Hungarian.maxWeightMatching(w).toSet
    assert(m == Set((0, 1), (1, 0)))
  }
  test("hungarian handles rectangular matrices (rows < cols)") {
    val w = Array(Array(1.0, 9.0, 2.0))
    assert(Hungarian.maxWeightMatching(w) == Vector((0, 1)))
  }
  test("hungarian handles rectangular matrices (rows > cols)") {
    val w = Array(Array(1.0), Array(9.0), Array(2.0))
    assert(Hungarian.maxWeightMatching(w) == Vector((1, 0)))
  }
  test("hungarian on empty matrices") {
    assert(Hungarian.maxWeightMatching(Array.empty[Array[Double]]).isEmpty)
  }
  test("hungarian matching is optimal on random matrices (vs brute force)") {
    val rnd = new scala.util.Random(17)
    for (_ <- 0 until 30) {
      val n = 2 + rnd.nextInt(4)
      val w = Array.fill(n, n)(rnd.nextDouble())
      val got = Hungarian.maxWeightMatching(w).map { case (i, j) => w(i)(j) }.sum
      val best = (0 until n).permutations.map(p => p.zipWithIndex.map { case (j, i) => w(i)(j) }.sum).max
      assert(math.abs(got - best) < 1e-9)
    }
  }

  // --- flooding similarity
  test("identical single-region layouts score 1") {
    val g = grid("1|2", "3|4")
    val l = layoutOf("a", g, Rect(0, 0, 1, 1))
    assert(math.abs(SimilarityFlooding.similarity(l, l) - 1.0) < 1e-9)
  }
  test("empty layout scores 0 against anything") {
    val g = grid("1")
    val l = layoutOf("a", g, Rect(0, 0, 0, 0))
    val e = LayoutGraph.build("b", Vector.empty)
    assert(SimilarityFlooding.similarity(l, e) == 0.0)
    assert(SimilarityFlooding.similarity(e, e) == 0.0)
  }
  test("same-template files score higher than different layouts") {
    val f1 = grid("Firm Sales| | ", "1|2|3", "4|5|6", " | | ", "notes| | ")
    val f2 = grid("Peak Demand| | ", "7|8|9", "3|2|1", " | | ", "estimate| | ")
    val f3 = grid("1|a|Xy 9", "2|b|9.5", "3|c|GOOD")
    val l1 = layoutOf("f1", f1, Rect(0, 0, 0, 0), Rect(0, 1, 2, 2), Rect(0, 4, 0, 4))
    val l2 = layoutOf("f2", f2, Rect(0, 0, 0, 0), Rect(0, 1, 2, 2), Rect(0, 4, 0, 4))
    val l3 = layoutOf("f3", f3, Rect(0, 0, 2, 2))
    val same = SimilarityFlooding.similarity(l1, l2)
    val diff = SimilarityFlooding.similarity(l1, l3)
    assert(same > 0.95, s"same-template similarity was $same")
    assert(same > diff)
  }
  test("node-count mismatch bounds the similarity (pruning bound holds)") {
    val g1 = grid("1|2", "3|4")
    val g2 = grid("1|2", "3|4", " | ", "a|b")
    val l1 = layoutOf("a", g1, Rect(0, 0, 1, 1))
    val l2 = layoutOf("b", g2, Rect(0, 0, 1, 1), Rect(0, 3, 1, 3))
    val s = SimilarityFlooding.similarity(l1, l2)
    assert(s <= LayoutGraph.sizeBound(1, 2) + 1e-9)
  }
  test("similarity is symmetric by construction") {
    val g1 = grid("1|2", "a|b")
    val g2 = grid("5|6", "c|d", "7|8")
    val l1 = layoutOf("a", g1, Rect(0, 0, 1, 0), Rect(0, 1, 1, 1))
    val l2 = layoutOf("b", g2, Rect(0, 0, 1, 0), Rect(0, 1, 1, 2))
    assert(math.abs(SimilarityFlooding.similarity(l1, l2) -
                    SimilarityFlooding.similarity(l2, l1)) < 1e-12)
  }
  test("sizeBound formula") {
    assert(LayoutGraph.sizeBound(3, 3) == 1.0)
    assert(LayoutGraph.sizeBound(1, 2) == 0.5)
    assert(LayoutGraph.sizeBound(0, 0) == 1.0)
    assert(LayoutGraph.sizeBound(0, 4) == 0.0)
    // min/max: 1 − 4/5 would round to 0.19999999999999996, below the score
    // 1/5 of a lone region matched exactly against five
    assert(LayoutGraph.sizeBound(1, 5) == 0.2 && LayoutGraph.sizeBound(6, 1) == 1.0 / 6)
  }
  test("flooding stays within [0, 1]") {
    val g = grid("1|2|a", "3|4|b", " | | ", "x|y|z")
    val l1 = layoutOf("a", g, Rect(0, 0, 1, 1), Rect(2, 0, 2, 1), Rect(0, 3, 2, 3))
    val l2 = layoutOf("b", g, Rect(0, 0, 2, 1), Rect(0, 3, 2, 3))
    val s = SimilarityFlooding.similarity(l1, l2)
    assert(s >= 0.0 && s <= 1.0)
  }

  // --- layout graph construction
  test("layout graph is complete with labeled edges and no self loops") {
    val g = grid("1|2|x", "3|4| ", " | | ", "a|b| ")
    val boxes = Vector(Rect(0, 0, 1, 1), Rect(0, 3, 1, 3), Rect(2, 0, 2, 0), Rect(1, 1, 2, 3))
    val l = layoutOf("a", g, boxes: _*)
    val n = boxes.size
    assert(l.size == n)
    // the layout's edge table sits after a 2-node layout's 4 entries
    val t = new LayoutGraph.Table(Array(l.regions.take(2), l.regions))
    assert(t.size(1) == n && t.start(1) == 2 && t.edgeStart(1) == 4)
    for (i <- 0 until n; j <- 0 until n if i != j) {
      val r = Geometry.spatialRel(boxes(i), boxes(j))
      val k = t.edgeStart(1) + i * n + j
      assert((t.dirs(k).toInt, t.mags(k), t.dists(k)) == ((r.direction.code, r.magnitude.toDouble, r.distance)), s"edge ($i, $j)")
    }
    for (i <- 0 until n; d <- Alignment.values) {
      val q = (t.start(1) + i) * Alignment.Count + d.code
      assert(t.partners.slice(t.partnerStart(q), t.partnerStart(q + 1)).toSeq ==
             (0 until n).filter(j => j != i && Geometry.alignment(boxes(i), boxes(j)) == d), s"partners of $i in $d")
    }
  }

  test("zero feature scale: two regions touching at a corner") {
    // N edges of magnitude 0 and distance 0 in both layouts, so Φ = 1
    val l1 = layoutOf("a", grid("1| ", " |x"), Rect(0, 0, 0, 0), Rect(1, 1, 1, 1))
    val l2 = layoutOf("b", grid(" |2", "y| "), Rect(1, 0, 1, 0), Rect(0, 1, 0, 1))
    val t = new LayoutGraph.Table(Array(l1.regions, l2.regions))
    assert(t.featureScale(0) == 0.0 && t.featureScale(1) == 0.0)
    def bits(x: Double) = java.lang.Double.doubleToLongBits(x)
    for ((a, b) <- Seq(l1 -> l1, l1 -> l2, l2 -> l1)) {
      val ref = ReferenceFlooding.similarity(a, b)
      assert(bits(SimilarityFlooding.similarity(a, b)) == bits(ref))
      assert(bits(SimilarityFlooding.similarity(a, b, atLeast = ref)) == bits(ref))
    }
    assert(math.abs(SimilarityFlooding.similarity(l1, l1) - 1.0) < 1e-12)
  }

  // --- properties of the flooding kernel against the reference formulation

  private def holds(prop: Prop): Unit = {
    val params = org.scalacheck.Test.Parameters.default
      .withMinSuccessfulTests(400).withInitialSeed(Seed(20211L))
    val res = org.scalacheck.Test.check(params, prop)
    assert(res.passed, org.scalacheck.util.Pretty.pretty(res))
  }

  /** Fingerprints near three base type-count vectors, so that region pairs
    * range from unrelated to identical; an all-zero one has zero variance.
    */
  private val baseCounts: Vector[Array[Int]] = {
    val rnd = new scala.util.Random(3)
    Vector.fill(3)(Array.fill(Cells.all.size)(rnd.nextInt(4)))
  }
  private val genCounts: Gen[Array[Int]] = Gen.frequency(
    1 -> Gen.const(new Array[Int](Cells.all.size)),
    6 -> (for {
      base <- Gen.oneOf(baseCounts)
      t    <- Gen.choose(0, Cells.all.size - 1)
      bump <- Gen.choose(0, 3)
    } yield { val c = base.clone(); c(t) += bump; c }))

  private val genBox: Gen[Rect] = for {
    x <- Gen.choose(0, 6); y <- Gen.choose(0, 8); w <- Gen.choose(1, 3); h <- Gen.choose(1, 3)
  } yield Rect(x, y, x + w - 1, y + h - 1)

  private def genRegions(id: String): Gen[Vector[Region]] = for {
    n  <- Gen.choose(1, 6)
    rs <- Gen.listOfN(n, for (b <- genBox; c <- genCounts) yield Region(id, b, Vector(b), c, b.area.toInt))
  } yield rs.toVector

  private def genLayout(id: String): Gen[LayoutGraph] = genRegions(id).map(LayoutGraph.build(id, _))

  /** A layout of the same template: one type count bumped, maybe a region dropped. */
  private def genVariant(a: LayoutGraph): Gen[LayoutGraph] = for {
    k    <- Gen.choose(0, a.size - 1)
    t    <- Gen.choose(0, Cells.all.size - 1)
    drop <- Gen.oneOf(a.size > 1, false)
  } yield {
    val r = a.regions(k)
    val c = r.counts.clone(); c(t) += 1
    val rs = a.regions.updated(k, r.copy(fileId = "b", counts = c))
    LayoutGraph.build("b", if (drop) rs.init else rs)
  }

  private val genPair: Gen[(LayoutGraph, LayoutGraph)] = Gen.frequency(
    1 -> (for (a <- genLayout("a"); b <- genLayout("b")) yield (a, b)),
    1 -> (for (a <- genLayout("a"); b <- genVariant(a)) yield (a, b)))

  private val genParams: Gen[SimilarityFlooding.Params] = for {
    it <- Gen.oneOf(0, 1, 2, 10)
    sd <- Gen.oneOf(0.1, 1e-3, 0.0)
  } yield SimilarityFlooding.Params(it, sd)

  test("property: the kernel returns the reference's doubles bit for bit") {
    holds(Prop.forAllNoShrink(genPair, genParams) { case ((a, b), p) =>
      val got = SimilarityFlooding.similarity(a, b, p)
      val ref = ReferenceFlooding.similarity(a, b, p)
      (java.lang.Double.doubleToLongBits(got) == java.lang.Double.doubleToLongBits(ref)) :| s"$got vs $ref"
    })
  }

  test("property: with atLeast = τ the kernel keeps exactly the reference's scores ≥ τ") {
    val genTau = Gen.oneOf(Gen.choose(0.3, 1.0), Gen.oneOf(0.7, 0.9, 0.99))
    holds(Prop.forAllNoShrink(genPair, genParams, genTau) { case ((a, b), p, tau) =>
      val ref = ReferenceFlooding.similarity(a, b, p)
      // τ = ref and τ just above it probe the threshold itself
      Prop.all(Seq(tau, ref, ref + 1e-12).map { t =>
        val got = SimilarityFlooding.similarity(a, b, p, atLeast = t)
        (if (ref >= t) got == ref else got < t && got >= ref) :| s"τ=$t: $got vs reference $ref"
      }: _*)
    })
  }

  /** The caps B of direction x → y of table `t`, from its σ⁰. */
  private def caps(t: LayoutGraph.Table, x: Int, y: Int): Array[Array[Double]] = {
    val s0 = SimilarityFlooding.seed(t, x, y)
    SimilarityFlooding.caps(t, x, y, s0(_)(_))
  }

  /** The line bounds of both directions (0 → 1, 1 → 0) of table `t`. */
  private def lineBounds(t: LayoutGraph.Table): (Double, Double) =
    (SimilarityFlooding.lineBound(caps(t, 0, 1)), SimilarityFlooding.lineBound(caps(t, 1, 0)))

  /** Per direction and for their mean: reference score ≤ matching bound ≤
    * line bound ≤ node-count bound (which rounds differently).
    */
  private def boundCascade(a: LayoutGraph, b: LayoutGraph, p: SimilarityFlooding.Params): Prop = {
    val t = new LayoutGraph.Table(Array(a.regions, b.regions))
    val capsAB = caps(t, 0, 1); val capsBA = caps(t, 1, 0)
    val lineAB = SimilarityFlooding.lineBound(capsAB); val lineBA = SimilarityFlooding.lineBound(capsBA)
    val matchAB = SimilarityFlooding.matchingAverage(capsAB)
    val matchBA = SimilarityFlooding.matchingAverage(capsBA)
    val refAB = ReferenceFlooding.simAsym(a, b, p); val refBA = ReferenceFlooding.simAsym(b, a, p)
    val size = LayoutGraph.sizeBound(a.size, b.size) + 1e-12
    def chain(name: String, ref: Double, matched: Double, line: Double): Prop =
      (ref <= matched && matched <= line + 1e-12 && line <= size) :|
        s"$name: reference $ref, matching $matched, line $line, node count $size"
    chain("a → b", refAB, matchAB, lineAB) && chain("b → a", refBA, matchBA, lineBA) &&
      chain("mean", (refAB + refBA) / 2.0, (matchAB + matchBA) / 2.0, (lineAB + lineBA) / 2.0)
  }

  test("property: the flooding bound is at least the score and at most the node-count bound") {
    holds(Prop.forAllNoShrink(genPair, genParams) { case ((a, b), p) =>
      val size = LayoutGraph.sizeBound(a.size, b.size)
      // atLeast above 1 rejects every pair at the first stage, the node count
      val first = SimilarityFlooding.similarity(a, b, p, atLeast = 2.0)
      // atLeast = the node-count bound passes it, and the line stage rejects
      // the pair when its bound falls short by more than the 1e-9 slack
      val second = SimilarityFlooding.similarity(a, b, p, atLeast = size)
      val t = new LayoutGraph.Table(Array(a.regions, b.regions))
      val (ab, ba) = lineBounds(t)
      val line = (ab + ba) / 2.0
      boundCascade(a, b, p) && (first == size) :| s"atLeast = 2 returned $first" &&
        (line >= size - 1e-9 || second == line) :| s"atLeast = $size returned $second, line bound $line"
    })
  }

  test("property: the line bound of a matrix is at least its matching average, and transposes bit for bit") {
    // non-negative matrices, 1 × 1 to 12 × 12, with zeros and tied entries;
    // half of them hold entries above 1
    val genMatrix = for {
      rows <- Gen.choose(1, 12); cols <- Gen.choose(1, 12); top <- Gen.oneOf(1.0, 5.0)
      entry = Gen.frequency(2 -> Gen.const(0.0), 2 -> Gen.oneOf(0.25, 0.5, 1.0), 3 -> Gen.choose(0.0, top))
      b    <- Gen.listOfN(rows, Gen.listOfN(cols, entry))
    } yield b.map(_.toArray).toArray
    holds(Prop.forAllNoShrink(genMatrix) { b =>
      val line = SimilarityFlooding.lineBound(b)
      val matched = SimilarityFlooding.matchingAverage(b)
      val bt = Array.tabulate(b(0).length, b.length)((j, i) => b(i)(j))
      (line >= matched - 1e-12) :| s"line $line below matching $matched" &&
        (b.exists(_.exists(_ > 1.0)) || line <= 1.0) :| s"line $line above 1" &&
        (java.lang.Double.doubleToRawLongBits(SimilarityFlooding.lineBound(bt)) ==
          java.lang.Double.doubleToRawLongBits(line)) :| "transpose differs"
    })
  }

  private def region(id: String, box: Rect, counts: Int*): Region = {
    val c = new Array[Int](Cells.all.size)
    counts.copyToArray(c)
    Region(id, box, Vector(box), c, box.area.toInt)
  }

  test("bounds of two single-region layouts are σ⁰") {
    val a = LayoutGraph.build("a", Vector(region("a", Rect(0, 0, 1, 1), 3, 1)))
    val b = LayoutGraph.build("b", Vector(region("b", Rect(0, 0, 2, 0), 1, 2, 1)))
    val s = RegionPair.similarity(a.regions(0), b.regions(0))
    assert(s > 0.0 && s < 1.0)
    val t = new LayoutGraph.Table(Array(a.regions, b.regions))
    assert(lineBounds(t) == ((s, s)))
    assert(SimilarityFlooding.matchingAverage(caps(t, 0, 1)) == s)
    assert(SimilarityFlooding.similarity(a, b) == s)
    assert(SimilarityFlooding.similarity(a, b, atLeast = 1.0) == s)
    assert(boundCascade(a, b, SimilarityFlooding.Params()).apply(Gen.Parameters.default).success)
  }

  test("bounds of a one-region layout against n regions are the best σ⁰ over n") {
    // a lone node has no neighbors, so B = σ⁰ and flooding leaves σ⁰ as it is
    val a = LayoutGraph.build("a", Vector(region("a", Rect(0, 0, 1, 1), 3, 1)))
    val b = LayoutGraph.build("b", Vector(
      region("b", Rect(0, 0, 1, 0), 1, 2, 1), region("b", Rect(0, 2, 1, 3), 3, 1, 1),
      region("b", Rect(3, 0, 3, 3), 0, 1, 4)))
    val best = b.regions.map(RegionPair.similarity(a.regions(0), _)).max / 3.0
    for ((x, y) <- Seq(a -> b, b -> a)) {
      val t = new LayoutGraph.Table(Array(x.regions, y.regions))
      val (xy, yx) = lineBounds(t)
      assert(xy == best && yx == best, s"${x.fileId} × ${y.fileId}")
      assert(SimilarityFlooding.matchingAverage(caps(t, 0, 1)) == best)
      assert(SimilarityFlooding.similarity(x, y) == best)
      assert(boundCascade(x, y, SimilarityFlooding.Params()).apply(Gen.Parameters.default).success)
    }
  }

  test("a one-region layout against three regions stops at the node-count bound") {
    val a = LayoutGraph.build("a", Vector(region("a", Rect(0, 0, 1, 1), 3, 1)))
    val b = LayoutGraph.build("b", Vector(
      region("b", Rect(0, 0, 1, 0), 1, 2, 1), region("b", Rect(0, 2, 1, 3), 3, 1, 1),
      region("b", Rect(3, 0, 3, 3), 0, 1, 4)))
    // no σ⁰ reaches 1, so the line bound and the score are below 1/3
    val size = LayoutGraph.sizeBound(1, 3)
    val t = new LayoutGraph.Table(Array(a.regions, b.regions))
    val (ab, ba) = lineBounds(t)
    assert((ab + ba) / 2.0 < size && size < 0.99)
    for ((x, y) <- Seq(a -> b, b -> a)) {
      val got = SimilarityFlooding.similarity(x, y, atLeast = 0.99)
      assert(java.lang.Double.doubleToRawLongBits(got) == java.lang.Double.doubleToRawLongBits(size), s"$got")
    }
  }

  test("line bound takes the smaller of the row and column maxima sums") {
    // a's two regions are stacked (H), b's side by side (V): no edge pair
    // shares a direction, so B = σ⁰ = [[1, s], [1, s]] and flooding is inert
    val a = LayoutGraph.build("a", Vector(region("a", Rect(0, 0, 1, 0), 3, 1), region("a", Rect(0, 2, 1, 2), 3, 1)))
    val b = LayoutGraph.build("b", Vector(region("b", Rect(0, 0, 0, 1), 3, 1), region("b", Rect(2, 0, 2, 1), 1, 2, 1)))
    val t = new LayoutGraph.Table(Array(a.regions, b.regions))
    assert(t.dirs(1) == H.code && t.dirs(t.edgeStart(1) + 1) == V.code)
    val s = RegionPair.similarity(a.regions(0), b.regions(1))
    assert(s < 0.9)
    // rows sum to 2, columns to 1 + s, in both directions
    val want = (1.0 + s) / 2.0
    val (ab, ba) = lineBounds(t)
    assert(math.abs(ab - want) < 1e-15 && math.abs(ba - want) < 1e-15, s"$ab, $ba vs $want")
    assert(math.abs(SimilarityFlooding.similarity(a, b) - want) < 1e-15)
    assert(SimilarityFlooding.similarity(a, b, atLeast = 0.99) == (ab + ba) / 2.0)
  }

  test("property: similarity is symmetric and within [0, 1]") {
    // infer scores each unordered pair of layout classes in one orientation,
    // so its path, atLeast = τ_f, must be symmetric bit for bit as well
    holds(Prop.forAllNoShrink(genPair, genParams) { case ((a, b), p) =>
      val ab = SimilarityFlooding.similarity(a, b, p)
      (ab >= 0.0 && ab <= 1.0) :| s"$ab" && Prop.all(Seq(0.0, 0.7, 0.99).map { t =>
        val x = SimilarityFlooding.similarity(a, b, p, t); val y = SimilarityFlooding.similarity(b, a, p, t)
        (java.lang.Double.doubleToRawLongBits(x) == java.lang.Double.doubleToRawLongBits(y)) :| s"τ=$t: $x vs $y"
      }: _*)
    })
  }

  test("property: similarity does not depend on region order") {
    holds(Prop.forAllNoShrink(genPair, genParams, Gen.long) { case ((a, b), p, seed) =>
      val shuffled = LayoutGraph.build(a.fileId, new scala.util.Random(seed).shuffle(a.regions))
      val ab = SimilarityFlooding.similarity(a, b, p)
      val sb = SimilarityFlooding.similarity(shuffled, b, p)
      (math.abs(ab - sb) < 1e-9) :| s"$ab vs $sb after shuffling ${a.regions.map(_.box)}"
    })
  }

  test("property: a layout scores 1 against itself") {
    holds(Prop.forAllNoShrink(genLayout("a"), genParams) { (a, p) =>
      val s = SimilarityFlooding.similarity(a, a, p)
      (math.abs(s - 1.0) < 1e-12) :| s"$s"
    })
  }
}
