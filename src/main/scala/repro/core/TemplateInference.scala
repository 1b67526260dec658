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
  *  1. all-pairs region similarity (broadcast fingerprint index) keeps
  *     pairs with similarity ≥ τ_r → candidate file pairs;
  *  2. candidate pairs whose node-count bound allows sim ≥ τ_f get a
  *     similarity-flooding layout comparison (parallel Spark map), which
  *     stops early when its upper bound rules out sim ≥ τ_f;
  *  3. pairs with layout similarity ≥ τ_f are edges of the file graph;
  *     templates are its connected components (union-find on the driver —
  *     the file graph has one node per file, which is small).
  *
  * A faithful sequential Algorithm 1 (`sequential`) is kept for fidelity
  * tests on small corpora.
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

  /** Candidate file pairs from region-fingerprint matches (step 1).
    *
    * Regions are compact (192 doubles each), so the full fingerprint index
    * is broadcast and each partition scans its regions against the index —
    * the all-pairs comparison the paper's index converges to.
    */
  def candidatePairs(spark: SparkSession, regions: Vector[Region], tauRegion: Double): Vector[(String, String)] = {
    import spark.implicits._
    if (regions.isEmpty) return Vector.empty
    val idx = spark.sparkContext.broadcast(regions.toArray)
    val n = regions.length
    val pairs = spark.range(0, n.toLong).repartition(spark.sparkContext.defaultParallelism)
      .as[Long]
      .mapPartitions { it =>
        val all = idx.value
        it.flatMap { iL =>
          val i = iL.toInt
          val a = all(i)
          (i + 1 until all.length).iterator.flatMap { j =>
            val b = all(j)
            if (a.fileId == b.fileId) None
            else if (RegionSimilarity.crossCorrelation(a.histogram, b.histogram) >= tauRegion) {
              val (f1, f2) = if (a.fileId < b.fileId) (a.fileId, b.fileId) else (b.fileId, a.fileId)
              Some((f1, f2))
            } else None
          }
        }
      }
      .distinct()
      .collect()
    pairs.toVector
  }

  /** Full inference over per-file layout graphs (steps 1–3).
    * `candidatePairs` of the result counts candidates before any pruning.
    */
  def infer(spark: SparkSession, layouts: Vector[LayoutGraph], p: Params = Params()): Result = {
    val cands = candidatePairs(spark, layouts.flatMap(_.regions), p.tauRegion)
    val edges = scorePairs(spark, layouts, cands, p.tauLayout, p.flooding)
    Result(templatesFromEdges(layouts.map(_.fileId), edges, p.tauLayout), edges, cands.size.toLong)
  }

  /** Layout-similarity edges scoring ≥ `minTau` — used when sweeping τ_f:
    * similarities are computed once and thresholded per τ ≥ `minTau`.
    */
  def scoredEdges(spark: SparkSession, layouts: Vector[LayoutGraph],
                  tauRegion: Double, minTau: Double = 0.7,
                  flood: SimilarityFlooding.Params = SimilarityFlooding.Params()): Vector[(String, String, Double)] =
    scorePairs(spark, layouts, candidatePairs(spark, layouts.flatMap(_.regions), tauRegion), minTau, flood)

  /** Scores candidate pairs on Spark and keeps those with layout similarity
    * ≥ `floor` (step 2). Pairs whose node-count bound (§5.4) is below
    * `floor` are never flooded, and flooding itself skips pairs whose upper
    * bound is below `floor`; neither changes an edge ≥ `floor`.
    */
  private def scorePairs(spark: SparkSession, layouts: Vector[LayoutGraph], cands: Vector[(String, String)],
                         floor: Double, flood: SimilarityFlooding.Params): Vector[(String, String, Double)] = {
    import spark.implicits._
    val byFile = layouts.map(g => g.fileId -> g).toMap
    val toScore = cands.filter { case (a, b) => LayoutGraph.sizeBound(byFile(a).size, byFile(b).size) >= floor }
    if (toScore.isEmpty) return Vector.empty
    val bcLayouts = spark.sparkContext.broadcast(byFile)
    spark.createDataset(toScore)
      .repartition(spark.sparkContext.defaultParallelism)
      .map { case (a, b) =>
        val g = bcLayouts.value
        (a, b, SimilarityFlooding.similarity(g(a), g(b), flood, floor))
      }
      .collect()
      .iterator.filter(_._3 >= floor).toVector
  }

  /** Groups files into templates given precomputed edges and a threshold. */
  def templatesFromEdges(files: Vector[String], edges: Vector[(String, String, Double)],
                         tauLayout: Double): Map[String, Int] = {
    val parent = scala.collection.mutable.Map(files.map(f => f -> f): _*)
    def find(x: String): String = {
      var r = x
      while (parent(r) != r) r = parent(r)
      var c = x
      while (parent(c) != r) { val nxt = parent(c); parent(c) = r; c = nxt }
      r
    }
    for ((a, b, s) <- edges if s >= tauLayout) {
      val ra = find(a); val rb = find(b)
      if (ra != rb) parent(ra) = rb
    }
    val roots = files.map(find).distinct.zipWithIndex.toMap
    files.map(f => f -> roots(find(f))).toMap
  }

  /** Sequential Algorithm 1 exactly as printed in the paper, for fidelity
    * tests: iterative region index with pruning, then similarity graph and
    * connected components.
    */
  def sequential(layouts: Vector[LayoutGraph], p: Params = Params()): Result = {
    // region index: representative region -> set of files containing a match
    val index = scala.collection.mutable.ArrayBuffer.empty[(Region, scala.collection.mutable.Set[String])]
    val candidates = scala.collection.mutable.Set.empty[(String, String)]
    for (g <- layouts) {
      var matchedAny = false
      for (r <- g.regions) {
        var matched = false
        for ((rt, fs) <- index) {
          if (RegionSimilarity.similarity(r, rt) >= p.tauRegion) {
            matched = true; matchedAny = true
            for (ft <- fs if ft != g.fileId) {
              val (a, b) = if (ft < g.fileId) (ft, g.fileId) else (g.fileId, ft)
              candidates += ((a, b))
            }
            fs += g.fileId
          }
        }
        if (!matched) index += ((r, scala.collection.mutable.Set(g.fileId)))
      }
      if (!matchedAny && g.regions.isEmpty) () // files without regions form no candidates
    }
    val byFile = layouts.map(g => g.fileId -> g).toMap
    val keep = candidates.toVector.map { case (a, b) =>
      (a, b, SimilarityFlooding.similarity(byFile(a), byFile(b), p.flooding, p.tauLayout))
    }.filter(_._3 >= p.tauLayout)
    val templates = templatesFromEdges(layouts.map(_.fileId), keep, p.tauLayout)
    Result(templates, keep, candidates.size.toLong)
  }
}
