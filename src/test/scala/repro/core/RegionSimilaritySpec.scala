package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.core.Geometry.Rect

/** Region fingerprints and cross-correlation similarity (paper §4.2). */
class RegionSimilaritySpec extends AnyFunSuite {

  private def grid(rows: String*): FileGrid =
    Grid.fromRows("f", rows.map(_.split("\\|", -1).toSeq))

  private def histogram(g: FileGrid, box: Rect): Array[Double] = RegionSimilarity.fromBox(g, box).histogram
  private def histogram(counts: Array[Int]): Array[Double] = RegionSimilarity.histogram(counts)

  test("histogram has 192 bins (64 per channel)") {
    assert(RegionSimilarity.HistogramBins == 192)
    val h = histogram(grid("1|2"), Rect(0, 0, 1, 0))
    assert(h.length == 192)
  }
  test("each cell contributes one count per channel") {
    val h = histogram(grid("1|2|3"), Rect(0, 0, 2, 0))
    assert(h.slice(0, 64).sum == 3 && h.slice(64, 128).sum == 3 && h.slice(128, 192).sum == 3)
  }
  test("empty cells contribute white counts") {
    val h = histogram(grid("1| |1"), Rect(0, 0, 2, 0))
    // white = (255,255,255) -> bin 63 of every channel
    assert(h(63) == 1.0 && h(64 + 63) == 1.0 && h(128 + 63) == 1.0)
  }
  test("histogram bins follow the type colors") {
    val h = histogram(grid("MWH"), Rect(0, 0, 0, 0))
    val (r, g, b) = Cells.UppercaseSt.rgb
    assert(h(r / 4) == 1.0 && h(64 + g / 4) == 1.0 && h(128 + b / 4) == 1.0)
  }
  test("out-of-grid parts of the box are ignored") {
    val h = histogram(grid("1"), Rect(0, 0, 5, 5))
    assert(h.slice(0, 64).sum == 1.0)
  }

  test("cross-correlation of a histogram with itself is 1") {
    val h = histogram(grid("1|a|B C"), Rect(0, 0, 2, 0))
    assert(math.abs(RegionSimilarity.crossCorrelation(h, h) - 1.0) < 1e-12)
  }
  test("cross-correlation is scale-invariant (same type mix, more rows)") {
    val g1 = grid("1|a", "2|b")
    val g2 = grid("1|a", "2|b", "3|c", "4|d")
    val h1 = histogram(g1, Rect(0, 0, 1, 1))
    val h2 = histogram(g2, Rect(0, 0, 1, 3))
    assert(RegionSimilarity.crossCorrelation(h1, h2) > 0.999)
  }
  test("different type mixes score lower than equal mixes") {
    val ints    = histogram(grid("1|2", "3|4"), Rect(0, 0, 1, 1))
    val ints2   = histogram(grid("7|8", "9|10"), Rect(0, 0, 1, 1))
    val strings = histogram(grid("a|b", "c|d"), Rect(0, 0, 1, 1))
    assert(RegionSimilarity.crossCorrelation(ints, ints2) >
           RegionSimilarity.crossCorrelation(ints, strings))
  }
  test("sub-types of one fundamental stay closer than different fundamentals") {
    val lower = histogram(grid("a|b", "c|d"), Rect(0, 0, 1, 1))
    val title = histogram(grid("Aa|Bb", "Cc|Dd"), Rect(0, 0, 1, 1))
    val ints  = histogram(grid("1|2", "3|4"), Rect(0, 0, 1, 1))
    assert(RegionSimilarity.crossCorrelation(lower, title) >
           RegionSimilarity.crossCorrelation(lower, ints))
  }
  test("similarity is clamped to [0, 1]") {
    val a = histogram(grid("1|1", "1|1"), Rect(0, 0, 1, 1))
    val b = histogram(grid("a|a", "a|a"), Rect(0, 0, 1, 1))
    val s = RegionSimilarity.crossCorrelation(a, b)
    assert(s >= 0.0 && s <= 1.0)
  }
  test("length mismatch is rejected") {
    intercept[IllegalArgumentException](
      RegionSimilarity.crossCorrelation(Array(1.0), Array(1.0, 2.0)))
  }

  test("fromElements uses the element bounding box and counts cells") {
    val g = grid("1|1| ", "1|1| ", " | | ", "2|2| ")
    val r = RegionSimilarity.fromElements(g, Vector(Rect(0, 0, 1, 1), Rect(0, 3, 1, 3)))
    assert(r.box == Rect(0, 0, 1, 3))
    assert(r.cellCount == 6)
    assert(r.fileId == "f")
  }
  test("fromBox counts only non-empty cells") {
    val g = grid("1| |1")
    val r = RegionSimilarity.fromBox(g, Rect(0, 0, 2, 0))
    assert(r.cellCount == 2)
  }
  test("regions of equivalent layouts from different files are highly similar") {
    // two 'files' of the same template: same schema, different values
    val g1 = grid("Firm Sales|Total", "1|11.5", "2|12.5", "3|13.5")
    val g2 = grid("Firm Demand|Peak", "7|9.25", "9|8.75", "4|7.25")
    val r1 = RegionSimilarity.fromBox(g1, Rect(0, 0, 1, 3))
    val r2 = RegionSimilarity.fromBox(g2, Rect(0, 0, 1, 3))
    assert(RegionPair.similarity(r1, r2) > 0.99)
  }

  // --- the closed form in the 9 type counts against the 192-bin NCC

  private def holds(prop: Prop): Unit = {
    val params = org.scalacheck.Test.Parameters.default
      .withMinSuccessfulTests(1000).withInitialSeed(Seed(20214L))
    val res = org.scalacheck.Test.check(params, prop)
    assert(res.passed, org.scalacheck.util.Pretty.pretty(res))
  }

  private val Types = Cells.all.size
  private def region(counts: Array[Int]): Region = Region("f", Rect(0, 0, 0, 0), Vector.empty, counts, 0)
  private def unit(t: Int): Array[Int] = Array.tabulate(Types)(s => if (s == t) 1 else 0)

  /** All-zero and single-type regions, and mixes of small counts and
    * counts up to 10⁶ cells.
    */
  private val genCounts: Gen[Array[Int]] = Gen.frequency(
    1 -> Gen.const(new Array[Int](Types)),
    2 -> (for (t <- Gen.choose(0, Types - 1); n <- Gen.oneOf(Gen.choose(1, 5), Gen.choose(1, 1000000)))
      yield Array.tabulate(Types)(s => if (s == t) n else 0)),
    6 -> Gen.listOfN(Types, Gen.frequency(3 -> Gen.const(0), 4 -> Gen.choose(1, 10), 1 -> Gen.choose(0, 1000000)))
      .map(_.toArray))

  test("G is the bin overlap of the Table 1 colors: 3 on the diagonal, 1 within a fundamental type") {
    val colors = Cells.all.map { t => val (r, g, b) = t.rgb; Seq(r / 4, g / 4, b / 4) }
    for (t <- 0 until Types; s <- 0 until Types) {
      val shared = colors(t).zip(colors(s)).count { case (x, y) => x == y }
      val dot = histogram(unit(t)).zip(histogram(unit(s))).map { case (x, y) => x * y }.sum
      val block = if (t == s) 3 else if (Cells.all(t).fundamental == Cells.all(s).fundamental) 1 else 0
      assert(RegionSimilarity.overlap(t)(s) == shared && shared == dot && shared == block, s"G($t, $s)")
    }
  }

  test("property: the index's closed form equals the 192-bin NCC within 1e-12, symmetric as raw bits") {
    holds(Prop.forAllNoShrink(genCounts, genCounts) { (ca, cb) =>
      val idx = new RegionSimilarity.Index(Array(region(ca), region(cb)))
      val got = idx.similarity(0, 1)
      val want = RegionSimilarity.crossCorrelation(histogram(ca), histogram(cb))
      val bits = java.lang.Double.doubleToRawLongBits _
      (math.abs(got - want) <= 1e-12) :| s"closed form $got vs 192-bin $want" &&
        (bits(got) == bits(idx.similarity(1, 0))) :| "not symmetric"
    })
  }

  test("property: atLeast equals similarity ≥ τ, with τ also within 1e-12 of the similarity") {
    holds(Prop.forAllNoShrink(genCounts, genCounts, Gen.choose(-1e-12, 1e-12)) { (ca, cb, d) =>
      val idx = new RegionSimilarity.Index(Array(region(ca), region(cb)))
      val s = idx.similarity(0, 1)
      val taus = Seq(-1.0, 0.0, Double.MinPositiveValue, 0.5, 0.75, 0.9, 0.99, 1.0, 1.0 + 1e-12, 2.0,
        s, math.nextUp(s), math.nextDown(s), s + d, s - d, s * (1 + 1e-10), s * (1 - 1e-10))
      val wrong = for (tau <- taus; (i, j) <- Seq((0, 1), (1, 0), (0, 0), (1, 1))
        if idx.atLeast(i, j, tau) != (idx.similarity(i, j) >= tau)) yield (i, j, tau)
      wrong.isEmpty :| s"similarity $s: atLeast differs at ${wrong.take(3)}"
    })
  }

  private val genRect: Gen[Rect] = for {
    x <- Gen.choose(-3, 1000); y <- Gen.choose(-3, 1000)
    w <- Gen.choose(0, 40);    h <- Gen.choose(0, 40)
  } yield Rect(x, y, x + w, y + h)

  /** Regions of no, few and many elements. */
  private val genRegion: Gen[Region] = for {
    id     <- Gen.oneOf(Gen.const("f"), Gen.asciiStr)
    box    <- genRect
    n      <- Gen.frequency(2 -> Gen.const(0), 6 -> Gen.choose(1, 8), 1 -> Gen.choose(100, 1000))
    elems  <- Gen.listOfN(n, genRect)
    counts <- genCounts
    cells  <- Gen.choose(0, Int.MaxValue)
  } yield Region(id, box, elems.toVector, counts, cells)

  test("property: serialized regions round-trip, with no to many elements") {
    holds(Prop.forAllNoShrink(genRegion) { r =>
      val bits = (h: Array[Double]) => h.toSeq.map(java.lang.Double.doubleToRawLongBits)
      def same(c: Region): Boolean =
        c.fileId == r.fileId && c.box == r.box && c.elements == r.elements && c.counts.toSeq == r.counts.toSeq &&
          c.cellCount == r.cellCount && bits(c.histogram) == bits(r.histogram)
      same(Serial.viaSpark(r)) :| "JavaSerializer" && same(Serial.viaStream(r)) :| "ObjectOutputStream"
    })
  }

  test("a serialized region is its file id and one Int array: no Rect, no Vector") {
    for (n <- Seq(0, 1, 50)) {
      val r = Region("f", Rect(0, 0, 60, 3), Vector.tabulate(n)(k => Rect(k, 0, k, 3)), Array.tabulate(Types)(_ + 1), 4 * n)
      val objects = Serial.written(r)
      assert(!objects.exists(o => o.isInstanceOf[Rect] || o.isInstanceOf[Vector[_]] || o.isInstanceOf[Region]),
        objects.map(_.getClass))
      assert(objects.count(_.isInstanceOf[Array[Int]]) == 1 && objects.count(_.isInstanceOf[String]) == 1)
    }
  }

  test("regions without cells: 1 against each other, 0 against any other region") {
    val empty = region(new Array[Int](Types))
    assert(RegionPair.similarity(empty, empty) == 1.0)
    for (t <- 0 until Types) {
      assert(RegionPair.similarity(empty, region(unit(t))) == 0.0)
      assert(RegionPair.similarity(region(unit(t)), empty) == 0.0)
      assert(RegionPair.similarity(region(unit(t)), region(unit(t))) == 1.0)
    }
  }
}
