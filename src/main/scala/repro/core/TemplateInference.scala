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
  *     index) keeps class pairs with a region pair of similarity ≥ τ_r →
  *     candidate class pairs, including (X, X) when class X holds 2+ files;
  *  2. candidate pairs whose node-count bound allows sim ≥ τ_f get a
  *     similarity-flooding layout comparison (parallel Spark map), which
  *     stops early when its upper bound rules out sim ≥ τ_f;
  *  3. class pairs with layout similarity ≥ τ_f expand on the driver to the
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
    val cands = candidates(spark, classes.map(c => files(c(0))._2), classes.map(_.length > 1), tauRegion)
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

  /** Candidate pairs of the layout classes whose representative regions
    * are `classes(0)`, `classes(1)`, …, as packed, sorted class-index pairs
    * (X, Y), X ≤ Y; (X, X) only when `shared(X)`, i.e. X holds 2+ files.
    *
    * The closed-form terms of all regions (124 bytes each) are
    * broadcast as one [[RegionSimilarity.Index]], grouped by class. Task p
    * of P owns the rows X = p, p + P, …, which balances the shrinking
    * rows, and compares class X with every class Y ≥ X until the first
    * region pair ≥ `tauRegion`, so each candidate is emitted once and
    * nothing is shuffled — the all-pairs comparison the paper's index
    * converges to.
    */
  private def candidates(spark: SparkSession, classes: Array[Vector[Region]], shared: Array[Boolean],
                         tauRegion: Double): Array[Long] = {
    if (classes.isEmpty) return Array.empty
    val sc = spark.sparkContext
    val start = classes.scanLeft(0)(_ + _.size)
    val bc = sc.broadcast((start, shared, new RegionSimilarity.Index(classes.flatten)))
    val tasks = sc.defaultParallelism
    val pairs = sc.parallelize(0 until tasks, tasks).map { p =>
      val (start, shared, index) = bc.value
      def matches(a: Int, b: Int): Boolean = {
        var i = start(a)
        while (i < start(a + 1)) {
          var j = start(b)
          while (j < start(b + 1)) {
            if (index.similarity(i, j) >= tauRegion) return true
            j += 1
          }
          i += 1
        }
        false
      }
      val out = Array.newBuilder[Long]
      val n = start.length - 1
      var a = p
      while (a < n) {
        var b = if (shared(a)) a else a + 1
        while (b < n) { if (matches(a, b)) out += pack(a, b); b += 1 }
        a += tasks
      }
      out.result()
    }.collect().flatten
    java.util.Arrays.sort(pairs)
    pairs
  }

  /** Full inference over per-file layout graphs (steps 1–3), on one
    * representative per layout class. `candidatePairs` of the result
    * counts candidate file pairs before any pruning; `edges` come sorted by
    * file id, first file then second.
    */
  def infer(spark: SparkSession, layouts: Vector[LayoutGraph], p: Params = Params()): Result = {
    val files = layouts.sortBy(_.fileId).toArray
    val classes = layoutClasses(files.map(_.regions))
    val reps = classes.map(c => files(c(0)))
    val cands = candidates(spark, reps.map(_.regions), classes.map(_.length > 1), p.tauRegion)
    val scores = scorePairs(spark, reps, cands, p.tauLayout, p.flooding)
    val scoreOf = mutable.LongMap.from(scores)
    val classOf = new Array[Int](files.length)
    for ((c, x) <- classes.zipWithIndex; i <- c) classOf(i) = x
    val keys = scores.flatMap { case (k, _) => filePairs(classes, k) }
    java.util.Arrays.sort(keys)
    val edges = Vector.tabulate(keys.length) { n =>
      val a = first(keys(n)); val b = second(keys(n))
      val x = classOf(a); val y = classOf(b)
      (files(a).fileId, files(b).fileId, scoreOf(pack(math.min(x, y), math.max(x, y))))
    }
    var candidateFilePairs = 0L
    for (k <- cands) {
      val n = classes(first(k)).length.toLong
      candidateFilePairs += (if (first(k) == second(k)) n * (n - 1) / 2 else n * classes(second(k)).length)
    }
    Result(templatesFromEdges(layouts.map(_.fileId), edges, p.tauLayout), edges, candidateFilePairs)
  }

  /** Scores candidate class pairs (packed indices into the representative
    * layouts `reps`) on Spark and keeps those with layout similarity ≥
    * `floor` (step 2). Pairs whose node-count bound (§5.4) is below `floor`
    * are never flooded, and flooding itself skips pairs whose upper bound
    * is below `floor`; neither changes an edge ≥ `floor`. The layouts and
    * the pairs are broadcast, and task p of P scores the pairs p, p + P, …,
    * so that expensive pairs of one template spread over all tasks.
    */
  private def scorePairs(spark: SparkSession, reps: Array[LayoutGraph], cands: Array[Long],
                         floor: Double, flood: SimilarityFlooding.Params): Array[(Long, Double)] = {
    val toScore = cands.filter(k => LayoutGraph.sizeBound(reps(first(k)).size, reps(second(k)).size) >= floor)
    if (toScore.isEmpty) return Array.empty
    val sc = spark.sparkContext
    val bc = sc.broadcast((reps, toScore))
    val tasks = sc.defaultParallelism
    sc.parallelize(0 until tasks, tasks).flatMap { p =>
      val (gs, ks) = bc.value
      (p until ks.length by tasks).iterator.flatMap { n =>
        val s = SimilarityFlooding.similarity(gs(first(ks(n))), gs(second(ks(n))), flood, floor)
        if (s >= floor) Some((ks(n), s)) else None
      }
    }.collect()
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
