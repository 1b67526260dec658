package perfbench

import java.io.File
import java.lang.management.ManagementFactory
import org.apache.spark.sql.SparkSession
import org.apache.spark.util.SizeEstimator
import repro.core._
import repro.corpus.{Corpora, SpreadsheetGen}
import repro.corpus.SpreadsheetGen.GoldFile
import repro.eval.{Metrics, Strategies}
import java.util.concurrent.atomic.{AtomicInteger, AtomicReference}
import java.util.concurrent.atomic.{DoubleAdder, LongAdder}
import scala.collection.mutable
import scala.reflect.ClassTag

/** Mondrian pipeline benchmark: region detection then template inference
  * (paper §4, Algorithm 1) over one generated corpus per run.
  *
  * Untraced run (`--trace 0`): set up (SparkSession, corpus generation, a
  * discarded warm-up pipeline), then repeat the pipeline for `--seconds`
  * seconds, at least [[MinPipelines]] times, and report medians of the
  * end-to-end metrics. The warm-up runs on the measured corpus itself: after
  * a warm-up on a small corpus the first full-size pipeline still runs ~20%
  * slower than the next ones, by an amount that varies from run to run.
  *
  * Traced run (`--trace 1`): the same set-up and one pipeline wrapped in
  * stage spans, then a replay of the same pipeline through the public
  * functions of each module, with per-file and per-pair spans.
  * The replay must reproduce the Spark run exactly (regions, candidates,
  * edge scores, partition); it yields the per-layer metrics.
  *
  * All timings are taken here, around calls into the program; nothing in
  * the program is instrumented. The last stdout line is the JSON result.
  */
object PipelineBench {

  /** One corpus + detection strategy. `scale` is the plan scale of
    * `Corpora.scaledForTest`.
    */
  final case class Workload(name: String, dataset: String, scale: Double, strategy: String)

  val Workloads: Vector[Workload] = Vector(
    Workload("deco-static", "deco", 1.0, "Static Radius"),
    Workload("fuste-dynamic", "fuste", 1.0, "Dynamic Radius"),
    // full Deco with Connected Components floods for minutes per run
    Workload("deco-cc", "deco", 0.25, "Connected Components"))

  /** Pruning funnel: candidate file pairs → survivors of the size bound →
    * edges ≥ τ_f → templates. `survivors` is -1 where it is not observed.
    */
  final case class Funnel(candidates: Long, survivors: Long, edges: Long, templates: Long)

  /** Funnel of each workload on its canonical corpus (seed 0, own scale). */
  val Canonical: Map[String, Funnel] = Map(
    "deco-static"   -> Funnel(281801, 58480, 153, 745),
    "fuste-dynamic" -> Funnel(203218, 130816, 71335, 158),
    "deco-cc"       -> Funnel(14895, 2399, 0, 188))

  /** τ_r = 0.75, τ_f = 0.99. */
  val Params: TemplateInference.Params = TemplateInference.Params()
  /** Node-count bound that `TemplateInference.infer` applies before flooding. */
  val SizeBoundMin: Double = math.min(0.7, Params.tauLayout)
  val MinHomogeneity = 0.85
  val EdgeTolerance = 1e-9
  /** Corpora generated per set-up; `corpus.gen_s` is their median. */
  val GenReps = 3
  /** A timed run makes at least this many pipelines. */
  val MinPipelines = 2

  final case class Config(workload: Workload, seed: Long, seconds: Double, trace: Boolean,
                          scale: Double, traceDir: File)

  def main(args: Array[String]): Unit = {
    val cfg = parseArgs(args)
    val lines = run(cfg)
    lines.foreach(println)
    System.out.flush()
    sys.exit(0)
  }

  private def parseArgs(args: Array[String]): Config = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    val w = Workloads.find(_.name == kv("workload"))
      .getOrElse(throw new IllegalArgumentException(s"unknown workload ${kv("workload")}"))
    Config(w, kv("seed").toLong, kv("seconds").toDouble, kv("trace") == "1",
      kv.get("scale").map(_.toDouble).getOrElse(w.scale),
      new File(kv("trace-dir")))
  }

  // ------------------------------------------------------------ set-up

  def corpusName(dataset: String, seed: Long): String =
    if (seed == 0) dataset else s"$dataset-s$seed"

  def plan(dataset: String): Vector[Corpora.TemplatePlan] =
    if (dataset == "deco") Corpora.decoPlan else Corpora.fustePlan

  /** The seed hash `Corpora.generate` derives templates and files from. */
  private def hash(parts: String*): Long =
    parts.foldLeft(1125899906842597L)((acc, s) => s.foldLeft(acc * 31 + 17)((a, ch) => a * 31 + ch))

  /** Seed 0 is the canonical corpus, `Corpora.generate(spark, dataset, plan)`.
    * Another seed keeps every template of the canonical corpus and re-draws
    * its files under the name `<dataset>-s<seed>`: new cell values, gaps and
    * jitter on the same layouts. Re-drawing the templates too would swing a
    * run's cost by up to 2.5× from seed to seed, since a few templates
    * (Fuste's 381-file one, Deco's largest layouts) set most of it.
    */
  def corpus(spark: SparkSession, dataset: String, seed: Long, scale: Double): Vector[GoldFile] = {
    val p = Corpora.scaledForTest(plan(dataset), scale)
    val files =
      if (seed == 0) Corpora.generate(spark, dataset, p)
      else {
        val name = corpusName(dataset, seed)
        val specs = p.flatMap(tp => (0 until tp.files).map(k => (tp, k))).zipWithIndex.map {
          case ((tp, k), i) => (tp, k, f"$name-f$i%04d")
        }
        spark.sparkContext
          .parallelize(specs, math.min(specs.size, spark.sparkContext.defaultParallelism * 4))
          .map { case (tp, k, fileId) =>
            val spec = SpreadsheetGen.template(tp.templateId, tp.sizeClass, hash(dataset, tp.templateId))
            SpreadsheetGen.instantiate(spec, fileId, hash(name, tp.templateId, s"file$k"), tp.outlier)
          }
          .collect()
          .toVector
          .sortBy(_.fileId)
      }
    Corpora.excludeOutliers(files)
  }

  /** Whether [[hash]] still derives the templates `Corpora.generate` does:
    * one file made both ways must match.
    */
  def sameDerivationAsCorpora(spark: SparkSession, dataset: String): Boolean = {
    val tp = plan(dataset).head.copy(files = 1)
    val viaCorpora = Corpora.generate(spark, dataset, Vector(tp)).head
    val spec = SpreadsheetGen.template(tp.templateId, tp.sizeClass, hash(dataset, tp.templateId))
    val direct = SpreadsheetGen.instantiate(spec, viaCorpora.fileId, hash(dataset, tp.templateId, "file0"), tp.outlier)
    direct.rows.map(_.toSeq).toSeq == viaCorpora.rows.map(_.toSeq).toSeq && direct.regions == viaCorpora.regions
  }

  def startSpark(nproc: Int): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$nproc]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  /** @param warmup the discarded warm-up pipeline, which later ones are checked against */
  final case class Setup(spark: SparkSession, files: Vector[GoldFile], warmup: Outcome, sparkS: Double,
                         genS: Double, warmupS: Double) {
    def setupS: Double = sparkS + genS + warmupS
  }

  def setup(cfg: Config, nproc: Int): Setup = {
    val w = cfg.workload
    val (spark, sparkS) = timed(startSpark(nproc))
    val gens = (0 until GenReps).map(_ => timed(corpus(spark, w.dataset, cfg.seed, cfg.scale)))
    val files = gens.head._1
    require(sameDerivationAsCorpora(spark, w.dataset), "Corpora.generate derives templates differently")
    require(gens.forall(_._1.map(_.fileId) == files.map(_.fileId)), "corpus generation is not deterministic")
    val (warmup, warmupS) = timed(pipeline(spark, w, files, None))
    Console.err.println(f"[perfbench] spark $sparkS%.3f s, corpus ${gens.map(_._2).mkString(" ")} s, warm-up $warmupS%.3f s")
    Setup(spark, files, warmup, sparkS, median(gens.map(_._2)), warmupS)
  }

  // ------------------------------------------------------------ pipeline

  final case class Outcome(regions: Map[String, Vector[Region]], layouts: Vector[LayoutGraph],
                           result: TemplateInference.Result, detectS: Double, inferS: Double) {
    def pipelineS: Double = detectS + inferS
  }

  /** The timed pipeline: the calls Table 4's bench makes, plus detection.
    * With a trace, each stage is also a span.
    */
  def pipeline(spark: SparkSession, w: Workload, files: Vector[GoldFile], trace: Option[Trace]): Outcome = {
    def stage[A](name: String)(body: => A): A = trace.fold(body)(_.span(name)(body))
    stage("pipeline") {
      val (regions, detectS) = timed(stage("detect")(
        Strategies.detect(spark, w.strategy, w.dataset, files, Vector.empty)))
      val ((layouts, result), inferS) = timed(stage("infer") {
        val layouts = stage("layouts")(Strategies.layouts(files, regions))
        (layouts, stage("infer.spark")(TemplateInference.infer(spark, layouts, Params)))
      })
      Outcome(regions, layouts, result, detectS, inferS)
    }
  }

  /** Per-file index of the first file of its template, in corpus order:
    * equal vectors mean equal partitions whatever the template ids are.
    */
  def partition(files: Vector[GoldFile], templateOf: Map[String, Int]): Vector[Int] = {
    val first = mutable.Map.empty[Int, Int]
    files.zipWithIndex.map { case (f, i) => first.getOrElseUpdate(templateOf(f.fileId), i) }
  }

  final case class Checked(partition: Vector[Int], funnel: Funnel, vMeasure: Double)

  /** Checks one pipeline outcome; returns the problems found. */
  def check(files: Vector[GoldFile], o: Outcome): (Option[Checked], Vector[String]) = {
    val ids = files.map(_.fileId)
    if (o.result.templateOf.size != ids.size || !ids.forall(o.result.templateOf.contains))
      return (None, Vector("not every file has exactly one template"))
    val gold = files.map(_.templateId).distinct.zipWithIndex.toMap
    val (h, _, v) = Metrics.vMeasure(files.map(f => (gold(f.templateId), o.result.templateOf(f.fileId))))
    val funnel = Funnel(o.result.candidatePairs, -1, o.result.edges.size,
      o.result.templateOf.values.toSet.size)
    val problems = if (h < MinHomogeneity) Vector(f"homogeneity $h%.4f < $MinHomogeneity") else Vector.empty
    (Some(Checked(partition(files, o.result.templateOf), funnel, v)), problems)
  }

  /** How `c` differs from the reference pipeline's check, if there is one. */
  def differences(reference: Option[Checked], c: Checked): Vector[String] = reference.toVector.flatMap { r =>
    (if (r.partition != c.partition) Vector("partition differs from the warm-up's") else Vector.empty) ++
      (if (r.funnel != c.funnel) Vector(s"funnel ${c.funnel} differs from the warm-up's ${r.funnel}") else Vector.empty)
  }

  def funnelProblems(cfg: Config, f: Funnel): Vector[String] =
    if (cfg.seed != 0 || cfg.scale != cfg.workload.scale) Vector.empty
    else {
      val c = Canonical(cfg.workload.name)
      val expected = if (f.survivors < 0) c.copy(survivors = -1) else c
      if (f == expected) Vector.empty else Vector(s"funnel $f differs from the canonical $expected")
    }

  // ------------------------------------------------------------ untraced run

  def runTimed(cfg: Config, s: Setup): (Int, Int, Vector[String], Map[String, (Double, String)]) = {
    val times = mutable.ArrayBuffer.empty[(Double, Double)]
    val problems = mutable.ArrayBuffer.empty[String]
    var attempted = 0; var failed = 0
    // every pipeline must match the warm-up's (seed 0: the canonical funnel)
    val (reference, warmProblems) = check(s.files, s.warmup)
    problems ++= warmProblems ++ reference.toVector.flatMap(r => funnelProblems(cfg, r.funnel))
    val deadline = System.nanoTime() + (cfg.seconds * 1e9).toLong
    do {
      attempted += 1
      val found = try {
        val o = pipeline(s.spark, cfg.workload, s.files, None)
        Console.err.println(f"[perfbench] run $attempted: detect ${o.detectS}%.3f s, infer ${o.inferS}%.3f s")
        times += ((o.pipelineS, o.inferS))
        val (checked, ps) = check(s.files, o)
        ps ++ checked.toVector.flatMap(differences(reference, _))
      } catch { case e: Exception => Vector(s"run $attempted threw $e") }
      if (found.nonEmpty) { failed += 1; problems ++= found }
    } while (attempted < MinPipelines || System.nanoTime() < deadline)
    val metrics = if (times.isEmpty) Map.empty[String, (Double, String)] else Map(
      "pipeline_s" -> (median(times.map(_._1).toSeq), "s"),
      "infer_s"    -> (median(times.map(_._2).toSeq), "s"),
      "setup_s"    -> (s.setupS, "s"),
      "v_measure"  -> (reference.fold(0.0)(_.vMeasure), "1"))
    (attempted, failed, problems.toVector, metrics)
  }

  // ------------------------------------------------------------ traced run

  /** Counts taken at the layer boundaries of the replay (shared by the
    * replay threads).
    */
  final class Counts {
    val elements, clusteringCalls, clusteringRegions, fingerprintCalls, cellsScanned,
        iouCalls, goldRegions = new LongAdder
    val iouSum = new DoubleAdder
  }

  private def clippedArea(grid: FileGrid, r: Geometry.Rect): Long = {
    val w = math.min(grid.width - 1, r.x1) - math.max(0, r.x0) + 1
    val h = math.min(grid.height - 1, r.y1) - math.max(0, r.y0) + 1
    if (w <= 0 || h <= 0) 0L else w.toLong * h
  }

  /** Detection of one file through the public functions, following
    * `Strategies.detect` / `Mondrian.detectRegions*` call for call. The
    * final regions are then scored against gold (paper §5.3 IoU) outside
    * the file's detection span; Dynamic Radius has that score already, as
    * it scores every radius to pick one.
    */
  def replayDetect(t: Trace, w: Workload, f: GoldFile, c: Counts): Vector[Region] = {
    val grid = f.grid
    val gold = f.regionBoxes
    val p = Strategies.paramsFor(w.dataset)
    def fingerprint(clusters: Vector[Vector[Geometry.Rect]]): Vector[Region] = {
      val rs = t.span("fingerprint")(clusters.map(RegionSimilarity.fromElements(grid, _)))
      c.fingerprintCalls.add(rs.size)
      c.cellsScanned.add(rs.iterator.map(r => clippedArea(grid, r.box)).sum)
      rs
    }
    def cluster(elems: Vector[Geometry.Rect], cp: Clustering.Params): Vector[Vector[Geometry.Rect]] = {
      val cs = t.span("clustering")(Clustering.clusterElements(elems, cp))
      c.clusteringCalls.increment(); c.clusteringRegions.add(cs.size)
      cs
    }
    def meanIou(regions: Vector[Region]): Double = {
      val scores = t.span("region_scoring")(Metrics.regionScores(grid, regions.map(_.box), gold))
      if (regions.nonEmpty) c.iouCalls.add(gold.size.toLong * regions.size)
      if (gold.isEmpty) 0.0 else scores.map(_._1).sum / gold.size
    }
    def segment(): Vector[Geometry.Rect] = {
      val es = t.span("segmentation")(Segmentation.elements(grid))
      c.elements.add(es.size)
      es
    }
    val (regions, scored) = t.span("detect.file") {
      w.strategy match {
        case "Static Radius" =>
          val elems = segment()
          (if (elems.isEmpty) Vector.empty[Region] else fingerprint(cluster(elems, p)), None)
        case "Dynamic Radius" =>
          val elems = segment()
          if (elems.isEmpty) (Vector.empty[Region], None)
          else {
            var best = Double.NegativeInfinity
            var bestRegions = Vector.empty[Region]
            for (eps <- Mondrian.RadiusGrid) {
              val rs = fingerprint(cluster(elems, p.copy(eps = eps)))
              val s = meanIou(rs)
              if (s > best) { best = s; bestRegions = rs }
            }
            (bestRegions, Some(best))
          }
        case "Connected Components" =>
          val comps = t.span("segmentation")(Segmentation.connectedComponents(grid))
          c.elements.add(comps.size)
          val rs = t.span("fingerprint")(comps.map(cc => RegionSimilarity.fromBox(grid, cc.boundingBox)))
          c.fingerprintCalls.add(rs.size)
          // fromBox scans the box twice: histogram and non-empty count
          c.cellsScanned.add(rs.iterator.map(r => clippedArea(grid, r.box) + r.box.area).sum)
          (rs, None)
        case s => throw new IllegalArgumentException(s"no replay for strategy $s")
      }
    }
    c.iouSum.add(scored.getOrElse(meanIou(regions)) * gold.size)
    c.goldRegions.add(gold.size)
    regions
  }

  /** Maps `xs` on `threads` threads that take items in order as they free
    * up (like Spark tasks, but one item each); each call runs inside the
    * caller's innermost open span.
    */
  def parMap[A, B: ClassTag](t: Trace, threads: Int, xs: IndexedSeq[A])(f: A => B): Vector[B] = {
    val out = new Array[B](xs.size)
    val next = new AtomicInteger
    val error = new AtomicReference[Throwable]
    val parent = t.currentId
    val workers = Vector.fill(threads)(new Thread(() => t.under(parent) {
      var i = next.getAndIncrement()
      while (i < xs.size && error.get == null) {
        try out(i) = f(xs(i)) catch { case e: Throwable => error.compareAndSet(null, e) }
        i = next.getAndIncrement()
      }
    }))
    workers.foreach(_.start())
    workers.foreach(_.join())
    if (error.get != null) throw error.get
    out.toVector
  }

  private def regionKey(r: Region) = (r.fileId, r.box, r.elements, r.histogram.toSeq, r.cellCount)

  def sameRegions(files: Vector[GoldFile], a: Map[String, Vector[Region]], b: Map[String, Vector[Region]]): Boolean =
    files.forall(f => a.getOrElse(f.fileId, Vector.empty).map(regionKey) == b.getOrElse(f.fileId, Vector.empty).map(regionKey))

  def runTraced(cfg: Config, s: Setup, nproc: Int): (Int, Int, Vector[String], Map[String, (Double, String)]) = {
    val w = cfg.workload
    val files = s.files
    val t = new Trace(s"${w.name}-s${cfg.seed}")
    val problems = mutable.ArrayBuffer.empty[String]
    var failed = 0

    // 1. stage spans around the Spark calls of the untraced run
    val o = pipeline(s.spark, w, files, Some(t))
    val (checked, checkProblems) = check(files, o)
    val ps = checkProblems ++ checked.toVector.flatMap(differences(check(files, s.warmup)._1, _))
    val allRegions = o.layouts.flatMap(_.regions)
    val sparkCands = t.span("candidates.spark")(
      TemplateInference.candidatePairs(s.spark, allRegions, Params.tauRegion)).toSet
    if (ps.nonEmpty || checked.isEmpty) { failed += 1; problems ++= ps }

    // 2. replay through the public functions with per-file and per-pair
    // spans, on nproc plain threads so a traced run stays short
    val c = new Counts
    val bean = ManagementFactory.getThreadMXBean
    val floodCpuNs = new LongAdder
    val (regions, layouts, regionPairs, cands, survivors, scored, templateOf) = t.span("replay") {
      val regions = t.span("detect.replay")(
        parMap(t, nproc, files)(f => f.fileId -> replayDetect(t, w, f, c))).toMap
      val layouts = t.span("layout")(
        files.map(f => LayoutGraph.build(f.fileId, regions.getOrElse(f.fileId, Vector.empty))))
      val (regionPairs, cands) = t.span("candidates") {
        val rs = layouts.flatMap(_.regions).toArray
        var n = 0L
        val pairs = mutable.HashSet.empty[(String, String)]
        var i = 0
        while (i < rs.length) {
          var j = i + 1
          while (j < rs.length) {
            val a = rs(i); val b = rs(j)
            if (a.fileId != b.fileId &&
                RegionSimilarity.crossCorrelation(a.histogram, b.histogram) >= Params.tauRegion) {
              n += 1
              pairs += (if (a.fileId < b.fileId) (a.fileId, b.fileId) else (b.fileId, a.fileId))
            }
            j += 1
          }
          i += 1
        }
        (n, pairs.toSet)
      }
      val byFile = layouts.map(g => g.fileId -> g).toMap
      val survivors = t.span("size_bound")(cands.toVector.sorted.filter { case (a, b) =>
        LayoutGraph.sizeBound(byFile(a).size, byFile(b).size) >= SizeBoundMin
      })
      val scored = t.span("flooding")(parMap(t, nproc, survivors) { case (a, b) =>
        val cpu0 = bean.getCurrentThreadCpuTime
        val score = t.span("flood.pair")(SimilarityFlooding.similarity(byFile(a), byFile(b), Params.flooding))
        floodCpuNs.add(bean.getCurrentThreadCpuTime - cpu0)
        (a, b, score)
      })
      val templateOf = t.span("templates")(
        TemplateInference.templatesFromEdges(files.map(_.fileId), scored, Params.tauLayout))
      (regions, layouts, regionPairs, cands, survivors, scored, templateOf)
    }
    val edges = scored.filter(_._3 >= Params.tauLayout)

    // 3. the replay must reproduce the Spark run
    val fidelity = mutable.ArrayBuffer.empty[String]
    if (!sameRegions(files, o.regions, regions)) fidelity += "replayed regions differ"
    if (cands != sparkCands) fidelity += s"replayed candidates (${cands.size}) differ from Spark's (${sparkCands.size})"
    if (cands.size.toLong != o.result.candidatePairs) fidelity += "candidate count differs from infer's"
    val sparkEdges = o.result.edges.map(e => (e._1, e._2) -> e._3).toMap
    val replayEdges = edges.map(e => (e._1, e._2) -> e._3).toMap
    if (sparkEdges.keySet != replayEdges.keySet) fidelity += "replayed edge set differs from infer's"
    else if (replayEdges.exists { case (k, x) => math.abs(x - sparkEdges(k)) > EdgeTolerance })
      fidelity += s"replayed edge scores differ from infer's by more than $EdgeTolerance"
    if (checked.exists(_.partition != partition(files, templateOf))) fidelity += "replayed partition differs"
    val funnel = Funnel(cands.size, survivors.size, edges.size, templateOf.values.toSet.size)
    fidelity ++= funnelProblems(cfg, funnel)
    if (fidelity.nonEmpty) { failed += 1; problems ++= fidelity }

    t.writeJsonl(new File(cfg.traceDir, s"${w.name}.jsonl"))

    // 4. per-layer metrics; a layer's time is its busy time summed over
    // the replay threads
    val pairNs = t.named("flood.pair").map(x => (x.end - x.start).toDouble).sorted
    def pct(q: Double): Double =
      if (pairNs.isEmpty) 0.0 else pairNs(math.max(0, math.ceil(q * pairNs.size).toInt - 1)) / 1e3
    def ratio(a: Double, b: Double): Double = if (b == 0) 0.0 else a / b
    val nFiles = files.size.toDouble
    val sizeOf = layouts.map(g => g.fileId -> g.size.toLong).toMap
    val uv = survivors.map { case (a, b) => sizeOf(a) * sizeOf(b) }
    // infer = candidates + size bound + flooding + union-find; the two
    // steps outside Spark take milliseconds
    val sparkFloodS = t.totalS("infer.spark") - t.totalS("candidates.spark")
    val metrics: Map[String, (Double, String)] = Map(
      "corpus.gen_s" -> (s.genS, "s"),
      "trace.pipeline_s" -> (t.totalS("pipeline"), "s"),
      "detect.spark_s" -> (t.totalS("detect"), "s"),
      "segmentation.s" -> (t.selfS("segmentation"), "s"),
      "segmentation.elements" -> (c.elements.sum.toDouble, "count"),
      "clustering.s" -> (t.selfS("clustering"), "s"),
      "clustering.calls" -> (c.clusteringCalls.sum.toDouble, "count"),
      "clustering.regions" -> (c.clusteringRegions.sum.toDouble, "count"),
      "fingerprint.s" -> (t.selfS("fingerprint"), "s"),
      "fingerprint.calls" -> (c.fingerprintCalls.sum.toDouble, "count"),
      "fingerprint.cells_scanned" -> (c.cellsScanned.sum.toDouble, "count"),
      "fingerprint.index_bytes" -> (SizeEstimator.estimate(allRegions.toArray).toDouble, "B"),
      "region_scoring.s" -> (t.selfS("region_scoring"), "s"),
      "region_scoring.iou_calls" -> (c.iouCalls.sum.toDouble, "count"),
      "detect.mean_iou" -> (ratio(c.iouSum.sum, c.goldRegions.sum.toDouble), "1"),
      "detect.parallel_efficiency" -> (ratio(t.totalS("detect.file"), t.totalS("detect") * nproc), "1"),
      "layout.s" -> (t.selfS("layout"), "s"),
      "layout.edges" -> (layouts.map(g => g.size.toLong * (g.size - 1)).sum.toDouble, "count"),
      "candidates.s" -> (t.selfS("candidates"), "s"),
      "candidates.region_pairs" -> (regionPairs.toDouble, "count"),
      "candidates.file_pairs" -> (cands.size.toDouble, "count"),
      "candidates.hit_ratio" -> (ratio(cands.size, nFiles * (nFiles - 1) / 2), "1"),
      "size_bound.survivors" -> (survivors.size.toDouble, "count"),
      "size_bound.survival_ratio" -> (ratio(survivors.size, cands.size), "1"),
      "flooding.s" -> (t.totalS("flood.pair"), "s"),
      "flooding.cpu_s" -> (floodCpuNs.sum / 1e9, "s"),
      "flooding.pairs" -> (survivors.size.toDouble, "count"),
      "flooding.sum_uv" -> (uv.sum.toDouble, "count"),
      "flooding.sum_u2v2" -> (uv.map(x => x.toDouble * x).sum, "count"),
      "flooding.pair_us_p50" -> (pct(0.50), "us"),
      "flooding.pair_us_p99" -> (pct(0.99), "us"),
      "flooding.pair_us_max" -> (pct(1.0), "us"),
      "flooding.useful_ratio" -> (ratio(edges.size, survivors.size), "1"),
      "flooding.parallel_efficiency" -> (ratio(t.totalS("flood.pair"), sparkFloodS * nproc), "1"),
      "templates.s" -> (t.selfS("templates"), "s"),
      "templates.edges" -> (edges.size.toDouble, "count"),
      "templates.count" -> (templateOf.values.toSet.size.toDouble, "count"))
    (2, failed, problems.toVector, metrics)
  }

  // ------------------------------------------------------------ output

  def run(cfg: Config): Vector[String] = {
    val nproc = Runtime.getRuntime.availableProcessors
    val s = setup(cfg, nproc)
    val (attempted, failed, problems, metrics) =
      if (cfg.trace) runTraced(cfg, s, nproc) else runTimed(cfg, s)
    val env = Vector(
      "workload" -> str(cfg.workload.name), "strategy" -> str(cfg.workload.strategy),
      "seed" -> cfg.seed.toString, "corpus" -> str(corpusName(cfg.workload.dataset, cfg.seed)),
      "scale" -> cfg.scale.toString, "files" -> s.files.size.toString,
      "trace" -> cfg.trace.toString, "runs" -> attempted.toString,
      "nproc" -> nproc.toString, "master" -> str(s.spark.sparkContext.master),
      "default_parallelism" -> s.spark.sparkContext.defaultParallelism.toString,
      "spark" -> str(s.spark.version), "jvm" -> str(System.getProperty("java.vm.version")),
      "xmx_bytes" -> Runtime.getRuntime.maxMemory.toString,
      "git_commit" -> str(System.getProperty("perfbench.commit", "unknown")),
      "source_sha256" -> str(System.getProperty("perfbench.source", "unknown")),
      "spark_start_s" -> num(s.sparkS), "warmup_s" -> num(s.warmupS))
    s.spark.stop()
    problems.map(p => s"""{"problem": ${str(p)}}""") ++ Vector(
      obj(Vector("env" -> obj(env))),
      obj(Vector(
        "correct" -> (failed == 0 && problems.isEmpty).toString,
        "attempted" -> attempted.toString,
        "failed" -> failed.toString,
        "metrics" -> obj(metrics.toVector.sortBy(_._1).map { case (k, (v, unit)) =>
          k -> obj(Vector("value" -> num(v), "unit" -> str(unit)))
        }))))
  }

  def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  private def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case ch if ch < ' ' => f"\\u${ch.toInt}%04x"
      case ch => ch.toString
    } + "\""

  private def num(d: Double): String =
    if (d.isNaN || d.isInfinite) throw new IllegalStateException(s"non-finite metric $d")
    else if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong.toString
    else d.toString

  private def obj(kv: Seq[(String, String)]): String =
    kv.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
