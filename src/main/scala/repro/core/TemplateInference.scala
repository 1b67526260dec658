package repro.core

import org.apache.spark.sql.SparkSession
import scala.collection.mutable

/** Template inference (paper §4.4, Algorithm 1), parallelized on Spark.
  *
  * The paper processes files iteratively against a growing region index but
  * notes the result is order-independent: at the last iteration every
  * region has been compared with every other, and so have all layouts
  * containing matching regions. We implement that fixed point directly as a
  * set-based Spark pipeline:
  *
  *  0. files with identical layouts (equal region boxes and type counts, in
  *     region order) form one layout class, and steps 1–2 run on one
  *     representative per class: scoring reads nothing else, so every file
  *     pair of two classes has the class pair's score;
  *  1. all-pairs region similarity (broadcast closed-form fingerprint
  *     index) finds the class pairs with a region pair of similarity ≥ τ_r
  *     — candidate class pairs, including (X, X) when class X holds 2+
  *     files — and each candidate gets its similarity-flooding layout
  *     comparison where it is found, in one parallel Spark map; the
  *     comparison stops early when its bound cascade (node count, then
  *     flooding bounds) rules out sim ≥ τ_f;
  *  2. class pairs with layout similarity ≥ τ_f expand on the driver to the
  *     file pairs they stand for, the edges of the file graph; templates are
  *     its connected components (union-find on the driver — the file graph
  *     has one node per file, which is small).
  *
  * A τ_f sweep runs `infer` once at the lowest τ_f and thresholds its
  * edges per τ_f with `templatesFromEdges`.
  */
object TemplateInference {

  /** Inference hyperparameters: τ_r = 0.75 (§4.4), τ_f subject to sweep
    * (Table 3 uses 0.99).
    */
  final case class Params(tauRegion: Double = 0.75, tauLayout: Double = 0.99,
                          flooding: SimilarityFlooding.Params = SimilarityFlooding.Params())

  /** Result: template id per file (connected component representative) and
    * the layout-similarity edges that produced them.
    */
  final case class Result(templateOf: Map[String, Int],
                          edges: Vector[(String, String, Double)],
                          candidatePairs: Long)

  /** Candidate file pairs (a, b), a < b, from region-fingerprint matches
    * (step 1): the files with some region pair of similarity ≥ `tauRegion`.
    */
  def candidatePairs(spark: SparkSession, regions: Vector[Region], tauRegion: Double): Vector[(String, String)] = {
    val files = regions.groupBy(_.fileId).toArray.sortBy(_._1)
    val classes = layoutClasses(files.map(_._2))
    val reps = classes.map { c => val (id, rs) = files(c(0)); LayoutGraph.build(id, rs) }
    // at τ_f = +∞ the node-count stage rejects every pair before σ⁰ is built
    val (cands, _) = scan(spark, reps, classes.map(_.length > 1), Params(tauRegion, Double.PositiveInfinity))
    cands.flatMap(filePairs(classes, _)).sorted.iterator
      .map(k => (files(first(k))._1, files(second(k))._1)).toVector
  }

  /** A file- or class-index pair (a, b), a ≤ b, packed into one Long;
    * packed pairs sort by a, then b.
    */
  private def pack(a: Int, b: Int): Long = (a.toLong << 32) | b
  private def first(k: Long): Int = (k >>> 32).toInt
  private def second(k: Long): Int = k.toInt

  /** Layout classes of the files whose regions are `files(0)`, `files(1)`,
    * …: the files whose regions have equal boxes and equal type counts, in
    * region order — everything scoring reads of a layout. Each class lists
    * its file indices in increasing order, and classes are numbered by
    * their first file.
    */
  private def layoutClasses(files: Array[Vector[Region]]): Array[Array[Int]] =
    files.indices.groupBy(i => files(i).map(r => (r.box, r.counts.toSeq)))
      .values.map(_.toArray).toArray.sortBy(_(0))

  /** The file pairs, packed, that class pair `k` (X ≤ Y) stands for: every
    * pair of a file of X and a file of Y, or every pair of files of X when
    * X = Y.
    */
  private def filePairs(classes: Array[Array[Int]], k: Long): Iterator[Long] = {
    val xs = classes(first(k)); val ys = classes(second(k))
    if (first(k) == second(k))
      xs.indices.iterator.flatMap(i => (i + 1 until xs.length).iterator.map(j => pack(xs(i), xs(j))))
    else for (a <- xs.iterator; b <- ys.iterator) yield if (a < b) pack(a, b) else pack(b, a)
  }

  /** Candidate pairs of the layout classes whose representatives are
    * `reps(0)`, `reps(1)`, …, as packed class-index pairs (X, Y), X ≤ Y, in
    * no particular order; (X, X) only when `shared(X)`, i.e. X holds 2+
    * files. Beside each candidate is its
    * `SimilarityFlooding.similarity(reps(X), reps(Y), p.flooding, p.tauLayout)`:
    * the score when it is ≥ τ_f, an upper bound below τ_f otherwise.
    *
    * One broadcast holds the layouts, their region offsets, the `shared`
    * flags and the closed-form terms of all regions (124 bytes each) as one
    * [[RegionSimilarity.Index]]; it is destroyed once the results are
    * collected. Task t of T owns the rows X = t, t + T, …, which balances
    * the shrinking rows, and compares class X with every class Y ≥ X until
    * the first region pair ≥ τ_r, so each candidate is found once and
    * scored where it is found; nothing is shuffled. A row's cost is mostly
    * its flooding, which varies with the layouts, so T is
    * 4 × `defaultParallelism`: with one task per core, the few heavy rows
    * of a large template pile up in one task.
    */
  private def scan(spark: SparkSession, reps: Array[LayoutGraph], shared: Array[Boolean],
                   p: Params): (Array[Long], Array[Double]) = {
    if (reps.isEmpty) return (Array.empty, Array.empty)
    val sc = spark.sparkContext
    val start = reps.scanLeft(0)(_ + _.size)
    val bc = sc.broadcast((reps, start, shared, new RegionSimilarity.Index(reps.flatMap(_.regions))))
    val tasks = 4 * sc.defaultParallelism
    val found = sc.parallelize(0 until tasks, tasks).map { t =>
      val (reps, start, shared, index) = bc.value
      def matches(a: Int, b: Int): Boolean = {
        var i = start(a)
        while (i < start(a + 1)) {
          var j = start(b)
          while (j < start(b + 1)) {
            if (index.similarity(i, j) >= p.tauRegion) return true
            j += 1
          }
          i += 1
        }
        false
      }
      val keys = Array.newBuilder[Long]; val values = Array.newBuilder[Double]
      var a = t
      while (a < reps.length) {
        var b = if (shared(a)) a else a + 1
        while (b < reps.length) {
          if (matches(a, b)) {
            keys += pack(a, b)
            values += SimilarityFlooding.similarity(reps(a), reps(b), p.flooding, p.tauLayout)
          }
          b += 1
        }
        a += tasks
      }
      (keys.result(), values.result())
    }.collect()
    bc.destroy()
    (found.flatMap(_._1), found.flatMap(_._2))
  }

  /** Full inference over per-file layout graphs (steps 1–2), on one
    * representative per layout class. `candidatePairs` of the result
    * counts candidate file pairs before any pruning; `edges` come sorted by
    * file id, first file then second.
    */
  def infer(spark: SparkSession, layouts: Vector[LayoutGraph], p: Params = Params()): Result = {
    val files = layouts.sortBy(_.fileId).toArray
    val classes = layoutClasses(files.map(_.regions))
    val (cands, scores) = scan(spark, classes.map(c => files(c(0))), classes.map(_.length > 1), p)
    val scoreOf = mutable.LongMap.empty[Double]
    for (n <- cands.indices if scores(n) >= p.tauLayout) scoreOf(cands(n)) = scores(n)
    val classOf = new Array[Int](files.length)
    for ((c, x) <- classes.zipWithIndex; i <- c) classOf(i) = x
    val keys = scoreOf.keysIterator.flatMap(filePairs(classes, _)).toArray
    java.util.Arrays.sort(keys)
    val edges = Vector.tabulate(keys.length) { n =>
      val a = first(keys(n)); val b = second(keys(n))
      val x = classOf(a); val y = classOf(b)
      (files(a).fileId, files(b).fileId, scoreOf(pack(math.min(x, y), math.max(x, y))))
    }
    val candidateFilePairs = cands.iterator.map { k =>
      val n = classes(first(k)).length.toLong
      if (first(k) == second(k)) n * (n - 1) / 2 else n * classes(second(k)).length
    }.sum
    Result(templatesFromEdges(layouts.map(_.fileId), edges, p.tauLayout), edges, candidateFilePairs)
  }

  /** Groups files into templates given precomputed edges and a threshold:
    * the connected components of the file graph, numbered in the order of
    * their first file.
    */
  def templatesFromEdges(files: Vector[String], edges: Vector[(String, String, Double)],
                         tauLayout: Double): Map[String, Int] = {
    val ids = files.distinct
    val index = ids.zipWithIndex.toMap
    val sets = new UnionFind(ids.size)
    for ((a, b, s) <- edges if s >= tauLayout) sets.union(index(a), index(b))
    (for ((set, t) <- sets.sets(ids.indices).zipWithIndex; i <- set) yield ids(i) -> t).toMap
  }
}
