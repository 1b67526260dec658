package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.core.CellOps._
import repro.core.Geometry.Rect

/** The shared union-find and its users' component searches, each against a
  * brute-force search: breadth-first search on edge lists, flood fill on
  * grids (the run sweep `Segmentation.components`), and the `String`-keyed
  * union-find that template inference used.
  */
class UnionFindSpec extends AnyFunSuite {

  private def holds(prop: Prop): Unit = {
    val params = org.scalacheck.Test.Parameters.default
      .withMinSuccessfulTests(500).withInitialSeed(Seed(19751L))
    val res = org.scalacheck.Test.check(params, prop)
    assert(res.passed, org.scalacheck.util.Pretty.pretty(res))
  }

  private val genGraph: Gen[(Int, Vector[(Int, Int)])] = for {
    n     <- Gen.choose(0, 30)
    m     <- Gen.choose(0, 2 * n)
    edges <- if (n == 0) Gen.const(Nil) else Gen.listOfN(m, Gen.zip(Gen.choose(0, n - 1), Gen.choose(0, n - 1)))
  } yield (n, edges.toVector)

  /** Components of the members by breadth-first search, ordered by smallest
    * member, members increasing.
    */
  private def bfs(n: Int, edges: Vector[(Int, Int)], members: Vector[Int]): Vector[Vector[Int]] = {
    val adj = Array.fill(n)(List.empty[Int])
    for ((a, b) <- edges) { adj(a) ::= b; adj(b) ::= a }
    val comp = Array.fill(n)(-1)
    for (s <- 0 until n if comp(s) < 0) {
      val queue = scala.collection.mutable.Queue(s); comp(s) = s
      while (queue.nonEmpty) for (v <- adj(queue.dequeue()) if comp(v) < 0) { comp(v) = s; queue += v }
    }
    members.groupBy(comp).values.map(_.sorted).toVector.sortBy(_.head)
  }

  test("sets equal breadth-first components, also over a subset of members") {
    holds(Prop.forAll(genGraph, Gen.long) { case ((n, edges), seed) =>
      val sets = new UnionFind(n)
      edges.foreach { case (a, b) => sets.union(a, b) }
      val rnd = new scala.util.Random(seed)
      val subset = (0 until n).filter(_ => rnd.nextBoolean()).toVector
      (sets.sets(0 until n) == bfs(n, edges, (0 until n).toVector)) :| "all members" &&
        (sets.sets(subset) == bfs(n, edges, subset)) :| "subset"
    })
  }

  test("union links root(i) under root(j)") {
    val sets = new UnionFind(4)
    sets.union(0, 1); sets.union(2, 3); sets.union(1, 3)
    assert((0 until 4).map(sets.find) == Vector(3, 3, 3, 3))
    sets.union(3, 0)
    assert(sets.find(2) == 3)
  }

  private val genCell: Gen[String] = Gen.frequency(3 -> Gen.oneOf("", " "), 4 -> Gen.oneOf("1", "a", "B", "x y"))

  private val genGrid: Gen[FileGrid] = for {
    h    <- Gen.choose(0, 12)
    w    <- Gen.choose(0, 12)
    rows <- Gen.listOfN(h, Gen.listOfN(w, genCell))
  } yield Grid.fromRows("f", rows)

  /** The cells of a component's runs, row-major. */
  private def cells(c: Segmentation.Component): Vector[(Int, Int)] = c.runs.flatMap(_.cells)

  private def rowMajor(cs: Vector[(Int, Int)]): Boolean = cs == cs.sortBy { case (x, y) => (y, x) }

  test("grid components equal the reference flood fill's, in order, with row-major cells") {
    holds(Prop.forAll(genGrid) { g =>
      val got = Segmentation.components(g.width, g.height, (x, y) => if (CellOps.isEmpty(g.cell(x, y))) -1 else 0)
      val want = ReferenceTyping.components(g)
      (got.map(cells(_).toSet) == want.map(_.cells.toSet)) :| "components" &&
        got.forall(c => rowMajor(cells(c))) :| "row-major cells" &&
        got.forall(_.label == 0) :| "labels"
    })
  }

  /** Components of the cells c = y·w + x with label(c) ≥ 0 by flood fill
    * over same-label 4-neighbours, in row-major order of their first cell,
    * each with its label.
    */
  private def sameLabelFill(w: Int, h: Int, label: Vector[Int]): Vector[(Set[Int], Int)] = {
    val seen = Array.fill(w * h)(false)
    val want = Vector.newBuilder[(Set[Int], Int)]
    for (s <- label.indices if label(s) >= 0 && !seen(s)) {
      val stack = scala.collection.mutable.Stack(s); seen(s) = true
      val comp = Set.newBuilder[Int]
      while (stack.nonEmpty) {
        val c = stack.pop(); comp += c
        val x = c % w
        for (n <- Seq(if (x > 0) c - 1 else -1, if (x < w - 1) c + 1 else -1, c - w, c + w))
          if (n >= 0 && n < w * h && !seen(n) && label(n) == label(c)) { seen(n) = true; stack.push(n) }
      }
      want += ((comp.result(), label(s)))
    }
    want.result()
  }

  /** `Segmentation.components` of a row-major label vector, as cell sets
    * with their labels; every label is read once.
    */
  private def labelled(w: Int, h: Int, label: Vector[Int]): (Vector[Segmentation.Component], Vector[(Set[Int], Int)]) = {
    val reads = new Array[Int](w * h)
    val got = Segmentation.components(w, h, (x, y) => { reads(y * w + x) += 1; label(y * w + x) })
    assert(reads.forall(_ == 1), "label read other than once per cell")
    (got, got.map(c => (cells(c).map { case (x, y) => y * w + x }.toSet, c.label)))
  }

  test("grid components with a join predicate equal a same-label flood fill") {
    val genLabels = for {
      h  <- Gen.choose(0, 12); w <- Gen.choose(1, 12)
      ls <- Gen.listOfN(w * h, Gen.frequency(2 -> Gen.const(-1), 3 -> Gen.choose(0, 2)))
    } yield (w, h, ls.toVector)
    holds(Prop.forAll(genLabels) { case (w, h, label) =>
      val (got, sets) = labelled(w, h, label)
      (sets == sameLabelFill(w, h, label)) :| "components and labels" && got.forall(c => rowMajor(cells(c)))
    })
  }

  test("adjacent runs of different labels in one row stay apart, and join their own labels across rows") {
    // row 0: 0 0 1 1 2 ; row 1: 1 1 1 -1 2 ; row 2: 0 -1 -1 -1 2
    val label = Vector(0, 0, 1, 1, 2, 1, 1, 1, -1, 2, 0, -1, -1, -1, 2)
    val (got, sets) = labelled(5, 3, label)
    assert(sets == sameLabelFill(5, 3, label))
    assert(sets == Vector((Set(0, 1), 0), (Set(2, 3, 5, 6, 7), 1), (Set(4, 9, 14), 2), (Set(10), 0)))
    assert(got.map(_.runs.size) == Vector(1, 2, 3, 1))
    assert(got(1).boundingBox == Rect(0, 0, 3, 1))
  }

  /** Template inference's union-find before [[UnionFind]]: parents keyed by
    * file id, root(a) linked under root(b), ids in order of first file.
    */
  private def stringTemplates(files: Vector[String], edges: Vector[(String, String, Double)],
                              tau: Double): Map[String, Int] = {
    val parent = scala.collection.mutable.Map(files.map(f => f -> f): _*)
    def find(x: String): String = {
      var r = x
      while (parent(r) != r) r = parent(r)
      var c = x
      while (parent(c) != r) { val nxt = parent(c); parent(c) = r; c = nxt }
      r
    }
    for ((a, b, s) <- edges if s >= tau) {
      val ra = find(a); val rb = find(b)
      if (ra != rb) parent(ra) = rb
    }
    val roots = files.map(find).distinct.zipWithIndex.toMap
    files.map(f => f -> roots(find(f))).toMap
  }

  test("templatesFromEdges equals the String-keyed union-find, template ids included") {
    val genCase = for {
      n     <- Gen.choose(0, 25)
      seed  <- Gen.long
      files  = new scala.util.Random(seed).shuffle((0 until n).map(i => s"file-$i").toVector)
      m     <- Gen.choose(0, 2 * n)
      edges <- if (n == 0) Gen.const(Nil)
               else Gen.listOfN(m, Gen.zip(Gen.oneOf(files), Gen.oneOf(files), Gen.oneOf(0.5, 0.9, 0.99, 1.0)))
      tau   <- Gen.oneOf(0.7, 0.99, 1.0)
    } yield (files, edges.toVector, tau)
    holds(Prop.forAll(genCase) { case (files, edges, tau) =>
      TemplateInference.templatesFromEdges(files, edges, tau) == stringTemplates(files, edges, tau)
    })
  }
}
