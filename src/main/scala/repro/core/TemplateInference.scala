package repro.core

import org.apache.spark.sql.SparkSession

/** Template inference (paper §4.4, Algorithm 1), parallelized on Spark.
  *
  * The paper processes files iteratively against a growing region index but
  * notes the result is order-independent: at the last iteration every
  * region has been compared with every other, and so have all layouts
  * containing matching regions. We implement that fixed point directly as a
  * set-based Spark pipeline:
  *
  *  1. all-pairs region similarity (broadcast closed-form fingerprint
  *     index) keeps file pairs with a region pair of similarity ≥ τ_r →
  *     candidate file pairs;
  *  2. candidate pairs whose node-count bound allows sim ≥ τ_f get a
  *     similarity-flooding layout comparison (parallel Spark map), which
  *     stops early when its upper bound rules out sim ≥ τ_f;
  *  3. pairs with layout similarity ≥ τ_f are edges of the file graph;
  *     templates are its connected components (union-find on the driver —
  *     the file graph has one node per file, which is small).
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
    candidates(spark, files.map(_._2), tauRegion).iterator
      .map(k => (files(first(k))._1, files(second(k))._1)).toVector
  }

  /** A file-index pair (a, b), a < b, packed into one Long. */
  private def pack(a: Int, b: Int): Long = (a.toLong << 32) | b
  private def first(k: Long): Int = (k >>> 32).toInt
  private def second(k: Long): Int = k.toInt

  /** Candidate pairs of the files whose regions are `files(0)`, `files(1)`,
    * …, as packed, sorted file-index pairs.
    *
    * The closed-form terms of all regions (124 bytes each) are
    * broadcast as one [[RegionSimilarity.Index]], grouped by file. Task p of
    * P owns the file rows a = p, p + P, …, which balances the shrinking
    * rows, and compares file a with every file b > a until the first region
    * pair ≥ `tauRegion`, so each candidate is emitted once and nothing is
    * shuffled — the all-pairs comparison the paper's index converges to.
    */
  private def candidates(spark: SparkSession, files: Array[Vector[Region]], tauRegion: Double): Array[Long] = {
    if (files.length < 2) return Array.empty
    val sc = spark.sparkContext
    val start = files.scanLeft(0)(_ + _.size)
    val bc = sc.broadcast((start, new RegionSimilarity.Index(files.flatten)))
    val tasks = sc.defaultParallelism
    val pairs = sc.parallelize(0 until tasks, tasks).map { p =>
      val (start, index) = bc.value
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
        var b = a + 1
        while (b < n) { if (matches(a, b)) out += pack(a, b); b += 1 }
        a += tasks
      }
      out.result()
    }.collect().flatten
    java.util.Arrays.sort(pairs)
    pairs
  }

  /** Full inference over per-file layout graphs (steps 1–3).
    * `candidatePairs` of the result counts candidates before any pruning.
    */
  def infer(spark: SparkSession, layouts: Vector[LayoutGraph], p: Params = Params()): Result = {
    val files = layouts.sortBy(_.fileId).toArray
    val cands = candidates(spark, files.map(_.regions), p.tauRegion)
    val edges = scorePairs(spark, files, cands, p.tauLayout, p.flooding)
    Result(templatesFromEdges(layouts.map(_.fileId), edges, p.tauLayout), edges, cands.length.toLong)
  }

  /** Scores candidate pairs of `files` (packed indices) on Spark and keeps
    * those with layout similarity ≥ `floor` (step 2). Pairs whose
    * node-count bound (§5.4) is below `floor` are never flooded, and
    * flooding itself skips pairs whose upper bound is below `floor`;
    * neither changes an edge ≥ `floor`. The layouts and the pairs are
    * broadcast, and task p of P scores the pairs p, p + P, …, so that
    * expensive pairs of one template spread over all tasks.
    */
  private def scorePairs(spark: SparkSession, files: Array[LayoutGraph], cands: Array[Long],
                         floor: Double, flood: SimilarityFlooding.Params): Vector[(String, String, Double)] = {
    val toScore = cands.filter(k => LayoutGraph.sizeBound(files(first(k)).size, files(second(k)).size) >= floor)
    if (toScore.isEmpty) return Vector.empty
    val sc = spark.sparkContext
    val bc = sc.broadcast((files, toScore))
    val tasks = sc.defaultParallelism
    sc.parallelize(0 until tasks, tasks).flatMap { p =>
      val (gs, ks) = bc.value
      (p until ks.length by tasks).iterator.flatMap { n =>
        val a = gs(first(ks(n))); val b = gs(second(ks(n)))
        val s = SimilarityFlooding.similarity(a, b, flood, floor)
        if (s >= floor) Some((a.fileId, b.fileId, s)) else None
      }
    }.collect().toVector
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
