package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.core.Geometry.Rect

/** Modified DBSCAN region clustering (paper §4.2): ε-graph components,
  * checked against [[ReferenceTyping.dbscan]].
  */
class ClusteringSpec extends AnyFunSuite {

  private val P = Clustering.Params(beta = 0.5, eps = 1.5)

  test("empty input yields no clusters") {
    assert(Clustering.clusterElements(Vector.empty, P).isEmpty)
  }
  test("single element forms a singleton region (m = 1)") {
    assert(Clustering.clusterElements(Vector(Rect(0, 0, 1, 1)), P).size == 1)
  }
  test("adjacent equal elements cluster together") {
    val es = Vector(Rect(0, 0, 2, 2), Rect(0, 3, 2, 5))
    assert(Clustering.clusterElements(es, P).size == 1)
  }
  test("elements separated by one empty row still cluster (empty-cell compensation)") {
    // same columns: distance 1, sizediff 0, misalignment 0 -> 1.0 <= 1.5
    val es = Vector(Rect(0, 0, 4, 2), Rect(0, 4, 4, 6))
    assert(Clustering.clusterElements(es, P).size == 1)
  }
  test("distant elements stay separate") {
    val es = Vector(Rect(0, 0, 2, 2), Rect(0, 10, 2, 12))
    assert(Clustering.clusterElements(es, P).size == 2)
  }
  test("no element is ever labeled noise") {
    val es = Vector(Rect(0, 0, 0, 0), Rect(50, 50, 50, 50), Rect(90, 0, 90, 0))
    assert(Clustering.clusterElements(es, P) == es.map(Vector(_)))
  }
  test("minPts=1 degenerates to eps-graph connected components") {
    val rnd = new scala.util.Random(11)
    val es = Vector.fill(12) {
      val x = rnd.nextInt(20); val y = rnd.nextInt(20)
      Rect(x, y, x + rnd.nextInt(3), y + rnd.nextInt(3))
    }
    // reference: union-find over pairs within eps
    val parent = Array.tabulate(es.size)(identity)
    def find(i: Int): Int = { var r = i; while (parent(r) != r) r = parent(r); r }
    for (i <- es.indices; j <- es.indices if i < j)
      if (Clustering.elementDistance(es(i), es(j), P) <= P.eps) {
        val (ri, rj) = (find(i), find(j)); if (ri != rj) parent(ri) = rj
      }
    val expected = es.indices.groupBy(find).values.map(_.map(es).toSet).toSet
    val got = Clustering.clusterElements(es, P).map(_.toSet).toSet
    assert(got == expected)
  }
  test("transitive chains merge into one region") {
    // each neighbor within eps of the next, first and last far apart
    val es = Vector.tabulate(5)(i => Rect(0, i * 4, 4, i * 4 + 2))
    assert(Clustering.clusterElements(es, P).size == 1)
  }
  test("larger radius merges more") {
    val es = Vector(Rect(0, 0, 3, 2), Rect(0, 6, 3, 8))
    assert(Clustering.clusterElements(es, P).size == 2)
    assert(Clustering.clusterElements(es, P.copy(eps = 5)).size == 1)
  }
  test("weighted distance components match the definitions") {
    val a = Rect(0, 0, 4, 2); val b = Rect(0, 4, 4, 6)
    val d = Clustering.elementDistance(a, b, Clustering.Params(beta = 3, eps = 1))
    assert(d == Geometry.distance(a, b) + 3 * Geometry.sizeDifference(a, b) + Geometry.misalignment(a, b))
  }
  test("misaligned equal-size neighbors are penalized by gamma") {
    val aligned    = Clustering.elementDistance(Rect(0, 0, 4, 2), Rect(0, 4, 4, 6), P)
    val misaligned = Clustering.elementDistance(Rect(0, 0, 4, 2), Rect(3, 4, 7, 6), P)
    assert(aligned < misaligned)
  }
  test("clusterElements partitions the input") {
    val es = Vector(Rect(0, 0, 1, 1), Rect(0, 3, 1, 4), Rect(20, 20, 21, 21))
    val clusters = Clustering.clusterElements(es, P)
    assert(clusters.flatten.sortBy(r => (r.y0, r.x0)) == es.sortBy(r => (r.y0, r.x0)))
  }

  /** Rectangles in a 30 × 30 area; duplicates, touching and nested pairs
    * are added on purpose, as they put distances exactly on a radius.
    */
  private val genRect: Gen[Rect] = for {
    x0 <- Gen.choose(0, 30); y0 <- Gen.choose(0, 30)
    w  <- Gen.choose(1, 6);  h  <- Gen.choose(1, 6)
  } yield Rect(x0, y0, x0 + w - 1, y0 + h - 1)

  private def genRelated(r: Rect): Gen[Rect] = Gen.oneOf(
    Gen.const(r),                                           // duplicate
    Gen.const(Rect(r.x1 + 1, r.y0, r.x1 + r.width, r.y1)),  // touching, side by side
    Gen.const(Rect(r.x0, r.y1 + 1, r.x1, r.y1 + 2)),        // touching, below
    Gen.const(Rect(r.x0, r.y0, r.x0, r.y0)))                // nested

  private val genElems: Gen[Vector[Rect]] = for {
    n       <- Gen.frequency(1 -> Gen.const(0), 1 -> Gen.const(1), 8 -> Gen.choose(2, 40))
    base    <- Gen.listOfN(n, genRect)
    related <- Gen.sequence[List[Rect], Rect](base.take(n / 3).map(genRelated))
    seed    <- Gen.long
  } yield new scala.util.Random(seed).shuffle((base ++ related).toVector)

  private val genParams: Gen[Clustering.Params] = for {
    b <- Gen.oneOf(0.0, 0.5, 1.0, 3.0); e <- Gen.oneOf(0.1, 1.0, 1.4, 1.5, 4.0)
  } yield Clustering.Params(b, e)

  /** A non-decreasing radius list with repeats, mostly set exactly on the
    * pair distances of `es`, as those are the bucket boundaries.
    */
  private def genRadii(es: Vector[Rect], p: Clustering.Params): Gen[Vector[Double]] = {
    val dists = for (i <- es.indices; j <- i + 1 until es.size) yield Clustering.elementDistance(es(i), es(j), p)
    val any = Gen.oneOf(Gen.choose(0.0, 12.0), Gen.oneOf(Mondrian.RadiusGrid))
    val one = if (dists.isEmpty) any else Gen.frequency(3 -> Gen.oneOf(dists), 1 -> any)
    for {
      rs  <- Gen.choose(0, 20).flatMap(Gen.listOfN(_, one))
      dup <- if (rs.isEmpty) Gen.const(Nil) else Gen.someOf(rs)
    } yield (rs ++ dup).sorted.toVector
  }

  private val genCase: Gen[(Vector[Rect], Clustering.Params, Vector[Double])] = for {
    es <- genElems; p <- genParams; radii <- genRadii(es, p)
  } yield (es, p, radii)

  private def check(prop: Prop): Unit = {
    val params = org.scalacheck.Test.Parameters.default
      .withMinSuccessfulTests(300).withInitialSeed(Seed(4211L))
    val res = org.scalacheck.Test.check(params, prop)
    assert(res.passed, org.scalacheck.util.Pretty.pretty(res))
  }

  /** Whether `clusterings(es, p, radii)` equals DBSCAN's clusters at every radius. */
  private def matchesDbscan(es: Vector[Rect], p: Clustering.Params, radii: Vector[Double]): Prop = {
    val got = Clustering.clusterings(es, p, radii)
    val want = radii.map(eps => ReferenceTyping.clusterElements(es, p.copy(eps = eps)))
    (got == want) :| s"radius ${radii.indices.find(k => got(k) != want(k)).map(radii)} of $radii"
  }

  test("clusterings over the radius grid equal DBSCAN's clusters at every radius, in order") {
    check(Prop.forAll(genCase) { case (es, p, radii) =>
      matchesDbscan(es, p, Mondrian.RadiusGrid) :| "grid" &&
        matchesDbscan(es, p, radii) :| "generated radii" &&
        (Clustering.clusterElements(es, p) == ReferenceTyping.clusterElements(es, p)) :| "clusterElements"
    })
  }

  test("clusterings shares one instance between consecutive radii with equal partitions, and only then") {
    check(Prop.forAll(genCase) { case (es, p, radii) =>
      Prop.all(Seq(Mondrian.RadiusGrid, radii).map { rs =>
        val got = Clustering.clusterings(es, p, rs)
        val wrong = (1 until got.size).filter(k => (got(k) eq got(k - 1)) != (got(k) == got(k - 1)))
        wrong.isEmpty :| s"radii ${wrong.map(rs)} of $rs"
      }: _*)
    })
    // two elements: two partitions over the 37 grid radii, so one new instance
    val grid = Clustering.clusterings(Vector(Rect(0, 0, 3, 2), Rect(0, 6, 3, 8)), P, Mondrian.RadiusGrid)
    assert((1 until grid.size).count(k => !(grid(k) eq grid(k - 1))) == 1)
  }

  test("clusterings rejects radii that are not non-decreasing") {
    val es = Vector(Rect(0, 0, 1, 1), Rect(0, 3, 1, 4))
    assertThrows[IllegalArgumentException](Clustering.clusterings(es, P, Seq(1.0, 2.0, 1.5)))
    assertThrows[IllegalArgumentException](Clustering.clusterings(Vector.empty, P, Seq(2.0, 1.0)))
    assert(Clustering.clusterings(es, P, Seq(1.0, 1.0, 2.0)).size == 3)
  }
}
