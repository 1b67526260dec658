package repro.core

import repro.SparkSpec
import repro.core.Geometry.Rect
import repro.corpus.Corpora
import repro.corpus.SpreadsheetGen.GoldFile
import repro.eval.Strategies

/** Full-corpus gate for region detection on the type image, for the
  * closed-form region similarity and candidate scan, and for the flooding
  * kernel and its early exit: on the Deco-like corpus with Static Radius
  * regions and the Fuste-like corpus with Dynamic Radius regions
  * (τ_r = 0.75, outliers excluded), every file's regions must equal those
  * that [[ReferenceTyping]] builds and scores cell by cell, every
  * cross-file region pair must score as under the 192-bin NCC
  * ([[ReferenceCandidates]]), and every candidate pair within the
  * node-count bound 0.7 is scored by [[ReferenceFlooding]], which
  * inference must reproduce exactly; on each of those pairs σ⁰ read from
  * the table's region index must equal, as raw bits, the regions'
  * similarity in one index of the whole corpus, and the cheap line bound
  * of the flooding must be at least the matching bound. Inference's
  * templates from class edges must equal the components of its file
  * edges, ids included, at its own τ_f and at every τ_f of the sweep it
  * is read at, and the scan's threshold test must agree with the
  * similarity on every region pair.
  */
class FullCorpusFloodingSpec extends SparkSpec {
  import FullCorpusFloodingSpec.{Case, regionKey}

  private val tauRegion = 0.75
  private val minTau = 0.7
  private val tauLayout = 0.99

  /** Layouts of a corpus and the reference score of each candidate pair
    * that survives the node-count bound at `minTau`.
    */
  private def prepare(files: Vector[GoldFile], strategy: String, dataset: String): Case = {
    val layouts = Strategies.layouts(files, Strategies.detect(spark, strategy, dataset, files, Vector.empty))
    val byFile = layouts.map(g => g.fileId -> g).toMap
    val pairs = TemplateInference.candidatePairs(spark, layouts.flatMap(_.regions), tauRegion)
      .filter { case (a, b) => LayoutGraph.sizeBound(byFile(a).size, byFile(b).size) >= minTau }
    val bc = spark.sparkContext.broadcast(byFile)
    val scores = spark.sparkContext.parallelize(pairs, spark.sparkContext.defaultParallelism * 4)
      .map { case (a, b) => (a, b) -> ReferenceFlooding.similarity(bc.value(a), bc.value(b)) }
      .collect().toMap
    Case(files, strategy, dataset, layouts, scores)
  }

  private lazy val deco  = prepare(Corpora.excludeOutliers(Corpora.deco(spark)), "Static Radius", "deco")
  private lazy val fuste = prepare(Corpora.excludeOutliers(Corpora.fuste(spark)), "Dynamic Radius", "fuste")

  private def edgeMap(edges: Vector[(String, String, Double)]): Map[(String, String), Double] = {
    val m = edges.map(e => (e._1, e._2) -> e._3).toMap
    assert(m.size == edges.size, "duplicate edges")
    m
  }

  private def groups(m: Map[String, Int]): Set[Set[String]] = m.groupBy(_._2).values.map(_.keys.toSet).toSet

  for ((name, c) <- Seq("deco static radius" -> (() => deco), "fuste dynamic radius" -> (() => fuste))) {
    test(s"$name: every file's regions equal the cell-by-cell reference's") {
      val cs = c()
      val p = Strategies.paramsFor(cs.dataset)
      val detect: (FileGrid, Vector[Rect]) => Vector[Region] = cs.strategy match {
        case "Static Radius"  => (grid, _) => ReferenceTyping.detectRegions(grid, p)
        case "Dynamic Radius" => (grid, gold) => ReferenceTyping.detectRegionsDynamic(grid, p, gold)
      }
      // the tasks get each file's grid, whose cells the reference types
      // again, and its gold boxes
      val want = spark.sparkContext
        .parallelize(cs.corpus.map(f => (f.grid, f.regionBoxes)), spark.sparkContext.defaultParallelism * 4)
        .map { case (grid, gold) => grid.fileId -> detect(grid, gold).map(regionKey) }
        .collect().toMap
      val got = cs.layouts.map(g => g.fileId -> g.regions.map(regionKey)).toMap
      val diffs = cs.files.filter(id => got(id) != want(id))
      assert(got.values.map(_.size).sum > cs.files.size)
      assert(diffs.isEmpty, s"${diffs.size} of ${cs.files.size} files differ, e.g. ${diffs.take(3)}")
    }

    test(s"$name: region similarity and candidate pairs equal the 192-bin reference's") {
      val cs = c()
      val regions = cs.layouts.flatMap(_.regions)
      val bc = spark.sparkContext.broadcast((regions, cs.index))
      val tau = tauRegion // the task closure must not capture the suite
      // per region i: (pairs compared, largest |closed form − 192-bin|,
      // pairs decided differently at τ_r, reference candidate pairs)
      val rows = spark.sparkContext.parallelize(regions.indices, spark.sparkContext.defaultParallelism * 4)
        .map { i =>
          val (rs, index) = bc.value
          var n = 0L; var err = 0.0; var flips = 0L
          val hits = Set.newBuilder[(String, String)]
          for ((j, want) <- ReferenceCandidates.row(rs, i)) {
            val got = index.similarity(i, j)
            n += 1; err = math.max(err, math.abs(got - want))
            if ((got >= tau) != (want >= tau)) flips += 1
            if (want >= tau) hits += ReferenceCandidates.filePair(rs(i), rs(j))
          }
          (n, err, flips, hits.result())
        }.collect()
      assert(rows.map(_._1).sum > 1000000L)
      assert(rows.map(_._2).max <= 1e-12)
      assert(rows.map(_._3).sum == 0L)
      val want = rows.iterator.flatMap(_._4).toSet
      val got = TemplateInference.candidatePairs(spark, regions, tauRegion)
      assert(got.size == want.size && got.toSet == want)
    }

    test(s"$name: the exact kernel returns the reference's doubles on every size-bound survivor") {
      val cs = c()
      val byFile = cs.layouts.map(g => g.fileId -> g).toMap
      val bc = spark.sparkContext.broadcast(byFile)
      val pairs = cs.reference.keys.toVector
      val diffs = spark.sparkContext.parallelize(pairs, spark.sparkContext.defaultParallelism * 4)
        .map { case (a, b) => (a, b) -> SimilarityFlooding.similarity(bc.value(a), bc.value(b)) }
        .collect()
        .filter { case (k, s) => s != cs.reference(k) }
      assert(pairs.nonEmpty)
      assert(diffs.isEmpty, s"${diffs.length} of ${pairs.size} pairs differ, e.g. ${diffs.take(3).toSeq}")
    }

    test(s"$name: on every size-bound survivor the line bound is at least the matching bound") {
      val cs = c()
      val byFile = cs.layouts.map(g => g.fileId -> g).toMap
      val bc = spark.sparkContext.broadcast(byFile)
      val pairs = cs.reference.keys.toVector
      // per pair: line bound − matching bound, per direction and for the mean
      val gaps = spark.sparkContext.parallelize(pairs, spark.sparkContext.defaultParallelism * 4)
        .map { case (a, b) =>
          val t = new LayoutGraph.Table(Array(bc.value(a).regions, bc.value(b).regions))
          val s0 = SimilarityFlooding.seed(t, 0, 1); val s0t = SimilarityFlooding.seed(t, 1, 0)
          val capsAB = SimilarityFlooding.caps(t, 0, 1, s0(_)(_))
          val capsBA = SimilarityFlooding.caps(t, 1, 0, s0t(_)(_))
          val lineAB = SimilarityFlooding.lineBound(capsAB); val lineBA = SimilarityFlooding.lineBound(capsBA)
          val matchAB = SimilarityFlooding.matchingAverage(capsAB)
          val matchBA = SimilarityFlooding.matchingAverage(capsBA)
          (a, b) -> Seq(lineAB - matchAB, lineBA - matchBA, (lineAB + lineBA) / 2.0 - (matchAB + matchBA) / 2.0).min
        }
        .collect()
      val unsound = gaps.filter(_._2 < -1e-12)
      assert(gaps.length == pairs.size && pairs.nonEmpty)
      assert(unsound.isEmpty, s"${unsound.length} of ${pairs.size} pairs, e.g. ${unsound.take(3).toSeq}")
    }

    test(s"$name: σ⁰ read from the region index equals the regions' similarity on every size-bound survivor") {
      val cs = c()
      // one table of every layout, as the scan broadcasts one of every class;
      // the corpus index holds the same regions at offsets of its own
      val table = new LayoutGraph.Table(cs.layouts.map(_.regions).toArray)
      val offsets = cs.layouts.scanLeft(0)(_ + _.size)
      val bc = spark.sparkContext.broadcast((cs.layouts, cs.layouts.map(_.fileId).zipWithIndex.toMap, table,
        cs.index, offsets))
      val pairs = cs.reference.keys.toVector
      // per pair: node pairs compared, node pairs whose bits differ
      val rows = spark.sparkContext.parallelize(pairs, spark.sparkContext.defaultParallelism * 4)
        .map { case (a, b) =>
          val (layouts, at, t, index, offsets) = bc.value
          val x = at(a); val y = at(b)
          val s0 = SimilarityFlooding.seed(t, x, y)
          val differ = for (i <- s0.indices; j <- s0(i).indices
            if java.lang.Double.doubleToRawLongBits(s0(i)(j)) != java.lang.Double.doubleToRawLongBits(
              index.similarity(offsets(x) + i, offsets(y) + j))) yield (i, j)
          (a, b, layouts(x).size * layouts(y).size, differ)
        }.collect()
      val bad = rows.filter(_._4.nonEmpty)
      assert(rows.length == pairs.size && rows.map(_._3.toLong).sum > pairs.size)
      assert(bad.isEmpty, s"${bad.length} of ${pairs.size} pairs differ, e.g. ${bad.take(3).toSeq}")
    }

    test(s"$name: infer keeps the reference's edges and partition at τ_f = $tauLayout") {
      val cs = c()
      val r = TemplateInference.infer(spark, cs.layouts, TemplateInference.Params(tauRegion, tauLayout))
      val want = cs.reference.filter(_._2 >= tauLayout)
      assert(edgeMap(r.edges) == want)
      val refEdges = want.toVector.map { case ((a, b), s) => (a, b, s) }
      assert(groups(r.templateOf) == groups(TemplateInference.templatesFromEdges(cs.files, refEdges, tauLayout)))
    }

    test(s"$name: templates from class edges equal templatesFromEdges over the file edges, ids included") {
      val cs = c()
      val r = TemplateInference.infer(spark, cs.layouts, TemplateInference.Params(tauRegion, tauLayout))
      assert(r.edges.nonEmpty)
      assert(r.templateOf == TemplateInference.templatesFromEdges(cs.files, r.edges, tauLayout))
    }

    test(s"$name: atLeast equals similarity ≥ τ_r on every region pair") {
      val cs = c()
      val n = cs.layouts.map(_.size).sum
      val bc = spark.sparkContext.broadcast(cs.index)
      // per region i: the (j, τ_r) where atLeast differs, over every region j
      val differ = spark.sparkContext.parallelize(0 until n, spark.sparkContext.defaultParallelism * 4)
        .map { i =>
          val idx = bc.value
          (for (j <- 0 until n; tau <- Seq(0.5, 0.75, 0.9, 1.0)
            if idx.atLeast(i, j, tau) != (idx.similarity(i, j) >= tau)) yield 1L).sum
        }.collect()
      assert(differ.length == n && n > 1000)
      assert(differ.sum == 0L)
    }

    test(s"$name: infer at the sweep floor $minTau keeps the reference's scores ≥ $minTau") {
      val cs = c()
      val got = TemplateInference.infer(spark, cs.layouts, TemplateInference.Params(tauRegion, minTau)).edges
      assert(edgeMap(got) == cs.reference.filter(_._2 >= minTau))
    }

    test(s"$name: one infer at $minTau gives templatesFromEdges at every τ_f of the sweep, and infer's at $tauLayout") {
      val cs = c()
      val r = TemplateInference.infer(spark, cs.layouts, TemplateInference.Params(tauRegion, minTau))
      val sweep = (70 to 100).map(_ / 100.0)
      val differ = sweep.filter(tau => r.templatesAt(tau) != TemplateInference.templatesFromEdges(cs.files, r.edges, tau))
      assert(differ.isEmpty, s"templates differ at τ_f ${differ.mkString(", ")}")
      assert(sweep.map(r.templatesAt(_).values.toSet.size).distinct.size > 1, "the sweep never splits a template")
      val direct = TemplateInference.infer(spark, cs.layouts, TemplateInference.Params(tauRegion, tauLayout))
      assert(r.templatesAt(tauLayout) == direct.templateOf)
    }
  }
}

object FullCorpusFloodingSpec {
  private final case class Case(corpus: Vector[GoldFile], strategy: String, dataset: String,
                                layouts: Vector[LayoutGraph], reference: Map[(String, String), Double]) {
    def files: Vector[String] = layouts.map(_.fileId)
    /** The region index of the corpus: every layout's regions, in order. */
    lazy val index = new RegionSimilarity.Index(layouts.flatMap(_.regions).toArray)
  }

  /** A region's fields, its histogram as raw bits. */
  private def regionKey(r: Region) =
    (r.fileId, r.box, r.elements, r.counts.toSeq, r.histogram.toSeq.map(java.lang.Double.doubleToRawLongBits),
     r.cellCount)
}
