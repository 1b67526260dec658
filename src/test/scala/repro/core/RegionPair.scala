package repro.core

/** σ⁰ of two regions for the tests: their similarity read from a
  * two-region [[RegionSimilarity.Index]], as every scan reads it.
  */
object RegionPair {
  def similarity(a: Region, b: Region): Double = new RegionSimilarity.Index(Array(a, b)).similarity(0, 1)
}
