package repro.core

/** The reference candidate scans for the tests: every cross-file region
  * pair scored by the 192-bin [[RegionSimilarity.crossCorrelation]] of the
  * regions' histograms, as the code did before the closed form; inference
  * file pair by file pair, as the code did before layout classes; and the
  * paper's sequential Algorithm 1 with its growing region index.
  */
object ReferenceCandidates {

  /** (j, 192-bin NCC) for every region j > i of another file than region i. */
  def row(regions: IndexedSeq[Region], i: Int): Iterator[(Int, Double)] = {
    val a = regions(i)
    (i + 1 until regions.length).iterator.filter(regions(_).fileId != a.fileId)
      .map(j => j -> RegionSimilarity.crossCorrelation(a.histogram, regions(j).histogram))
  }

  /** The file pair of two regions, ordered. */
  def filePair(a: Region, b: Region): (String, String) =
    if (a.fileId < b.fileId) (a.fileId, b.fileId) else (b.fileId, a.fileId)

  /** Candidate file pairs: files with a region pair of NCC ≥ `tauRegion`. */
  def candidatePairs(regions: IndexedSeq[Region], tauRegion: Double): Set[(String, String)] =
    regions.indices.iterator.flatMap { i =>
      row(regions, i).collect { case (j, s) if s >= tauRegion => filePair(regions(i), regions(j)) }
    }.toSet

  /** What a reference inference returns: template id per file, numbered
    * by `templatesFromEdges`, the candidate file pairs, and the edges
    * (a, b), a < b, sorted by file id.
    */
  final case class Result(templateOf: Map[String, Int], candidatePairs: Long, edges: Vector[(String, String, Double)])

  /** Inference without layout classes, on the driver: files sorted by id,
    * every file pair (a, b), a < b, with a region pair of closed-form
    * similarity ≥ τ_r is a candidate, and every candidate that passes the
    * node-count bound at τ_f is flooded with τ_f as its floor.
    */
  def fileLevel(layouts: Vector[LayoutGraph], p: TemplateInference.Params): Result = {
    val files = layouts.sortBy(_.fileId)
    val cands = for {
      i <- files.indices; j <- i + 1 until files.length
      a = files(i); b = files(j)
      if a.regions.exists(r => b.regions.exists(RegionPair.similarity(r, _) >= p.tauRegion))
    } yield (a, b)
    val edges = cands.iterator
      .filter { case (a, b) => LayoutGraph.sizeBound(a.size, b.size) >= p.tauLayout }
      .map { case (a, b) => (a.fileId, b.fileId, SimilarityFlooding.similarity(a, b, p.flooding, p.tauLayout)) }
      .filter(_._3 >= p.tauLayout).toVector
    result(layouts.map(_.fileId), edges, p.tauLayout, cands.size.toLong)
  }

  private def result(files: Vector[String], edges: Vector[(String, String, Double)], tauLayout: Double,
                     candidatePairs: Long): Result =
    Result(TemplateInference.templatesFromEdges(files, edges, tauLayout), candidatePairs,
      edges.sortBy(e => (e._1, e._2)))

  /** Sequential Algorithm 1 exactly as printed in the paper, for fidelity
    * tests: iterative region index with pruning, then similarity graph and
    * connected components.
    */
  def sequential(layouts: Vector[LayoutGraph], p: TemplateInference.Params): Result = {
    // region index: representative region -> set of files containing a match
    val index = scala.collection.mutable.ArrayBuffer.empty[(Region, scala.collection.mutable.Set[String])]
    val candidates = scala.collection.mutable.Set.empty[(String, String)]
    for (g <- layouts) {
      for (r <- g.regions) {
        var matched = false
        for ((rt, fs) <- index) {
          if (RegionPair.similarity(r, rt) >= p.tauRegion) {
            matched = true
            for (ft <- fs if ft != g.fileId) {
              val (a, b) = if (ft < g.fileId) (ft, g.fileId) else (g.fileId, ft)
              candidates += ((a, b))
            }
            fs += g.fileId
          }
        }
        if (!matched) index += ((r, scala.collection.mutable.Set(g.fileId)))
      }
    }
    val byFile = layouts.map(g => g.fileId -> g).toMap
    val keep = candidates.toVector.map { case (a, b) =>
      (a, b, SimilarityFlooding.similarity(byFile(a), byFile(b), p.flooding, p.tauLayout))
    }.filter(_._3 >= p.tauLayout)
    result(layouts.map(_.fileId), keep, p.tauLayout, candidates.size.toLong)
  }
}
