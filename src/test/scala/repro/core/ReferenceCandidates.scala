package repro.core

/** The reference candidate scan for the tests: every cross-file region pair
  * scored by the 192-bin [[RegionSimilarity.crossCorrelation]] of the
  * regions' histograms, as the code did before the closed form.
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
}
