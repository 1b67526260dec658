package repro.core

import java.lang.reflect.Modifier
import org.apache.spark.serializer.JavaSerializer
import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import repro.{SparkJobs, SparkSpec}
import repro.core.Geometry.Rect
import repro.corpus.{Corpora, SpreadsheetGen}
import repro.eval.{Metrics, Strategies}
import scala.collection.mutable

/** Template inference pipeline (paper §4.4, Algorithm 1) on Spark. */
class TemplateInferenceSpec extends SparkSpec {

  /** Tiny corpus: 3 multi-file templates + singletons, gold regions. */
  private lazy val files = {
    val plan = Vector(
      Corpora.TemplatePlan("ti-t0", SpreadsheetGen.FewRegions, 3),
      Corpora.TemplatePlan("ti-t1", SpreadsheetGen.FewRegions, 3),
      Corpora.TemplatePlan("ti-t2", SpreadsheetGen.One, 4),
      Corpora.TemplatePlan("ti-t3", SpreadsheetGen.ManyRegions, 1),
      Corpora.TemplatePlan("ti-t4", SpreadsheetGen.One, 1))
    Corpora.generate(spark, "ti", plan)
  }
  private lazy val layouts =
    files.map(f => LayoutGraph.build(f.fileId, Mondrian.regionsFromBoxes(f.grid, f.regionBoxes)))

  test("candidate pairs link files sharing similar regions") {
    val cands = TemplateInference.candidatePairs(spark, layouts.flatMap(_.regions), 0.75)
    val tmpl = files.map(f => f.fileId -> f.templateId).toMap
    // every same-template pair must be a candidate (same schema regions)
    for (Seq(a, b) <- files.combinations(2) if tmpl(a.fileId) == tmpl(b.fileId)) {
      val key = if (a.fileId < b.fileId) (a.fileId, b.fileId) else (b.fileId, a.fileId)
      assert(cands.contains(key), s"missing candidate $key")
    }
  }
  test("candidate pairs are deduplicated and ordered") {
    val cands = TemplateInference.candidatePairs(spark, layouts.flatMap(_.regions), 0.75)
    assert(cands.distinct.size == cands.size)
    assert(cands.forall { case (a, b) => a < b })
  }

  /** Small corpora of 1–6 files with 0–3 regions each; fingerprints drawn
    * near a few base count vectors (so files match and miss), with exact
    * duplicates, all-zero and single-type counts.
    */
  private val genCorpus: Gen[Vector[LayoutGraph]] = {
    val types = Cells.all.size
    val rnd = new scala.util.Random(5)
    val bases = Vector.fill(4)(Array.fill(types)(rnd.nextInt(6)))
    val genCounts: Gen[Array[Int]] = Gen.frequency(
      1 -> Gen.const(new Array[Int](types)),
      1 -> Gen.choose(0, types - 1).map(t => Array.tabulate(types)(s => if (s == t) 2 else 0)),
      3 -> Gen.oneOf(bases),
      5 -> (for (b <- Gen.oneOf(bases); t <- Gen.choose(0, types - 1); d <- Gen.choose(1, 4))
        yield { val c = b.clone(); c(t) += d; c }))
    for {
      n     <- Gen.choose(1, 6)
      sizes <- Gen.listOfN(n, Gen.frequency(1 -> Gen.const(0), 2 -> Gen.const(1), 2 -> Gen.choose(2, 3)))
      files <- Gen.sequence[Vector[Vector[Array[Int]]], Vector[Array[Int]]](
        sizes.map(k => Gen.listOfN(k, genCounts).map(_.toVector)))
    } yield files.zipWithIndex.map { case (cs, f) =>
      val id = s"p$f"
      LayoutGraph.build(id, cs.zipWithIndex.map { case (c, k) =>
        val box = Rect(0, 2 * k, 1, 2 * k); Region(id, box, Vector(box), c, 2)
      })
    }
  }

  test("property: candidatePairs equals the 192-bin brute-force scan, whatever the region order") {
    val params = org.scalacheck.Test.Parameters.default
      .withMinSuccessfulTests(200).withInitialSeed(Seed(20215L))
    val prop = Prop.forAllNoShrink(genCorpus, Gen.long) { (layouts, seed) =>
      val regions = layouts.flatMap(_.regions)
      val want = ReferenceCandidates.candidatePairs(regions, 0.75).toVector.sorted
      val got = TemplateInference.candidatePairs(spark, regions, 0.75)
      val shuffled = TemplateInference.candidatePairs(spark, new scala.util.Random(seed).shuffle(regions), 0.75)
      val inferred = TemplateInference.infer(spark, new scala.util.Random(seed + 1).shuffle(layouts))
      val edges = TemplateInference.infer(spark, layouts).edges
      (got == want) :| s"got $got, want $want" && (shuffled == got) :| s"shuffled $shuffled" &&
        (inferred.candidatePairs == want.size.toLong) :| s"infer counted ${inferred.candidatePairs}" &&
        (inferred.edges == edges) :| s"edges ${inferred.edges} after shuffling the layouts, $edges before"
    }
    val res = org.scalacheck.Test.check(params, prop)
    assert(res.passed, org.scalacheck.util.Pretty.pretty(res))
  }

  /** [[genCorpus]] plus 0–2 copies of each layout under new file ids that
    * sort before, among and after the originals. A copy keeps every
    * region's box and type counts (in a new array) and may change its
    * elements and cell count, which scoring does not read.
    */
  private val genCopies: Gen[Vector[LayoutGraph]] = genCorpus.flatMap { layouts =>
    val copies = layouts.map { g =>
      Gen.choose(0, 2).flatMap(k => Gen.sequence[Vector[LayoutGraph], LayoutGraph]((0 until k).map { c =>
        for (prefix <- Gen.oneOf("a", "p", "q"); drift <- Gen.choose(0, 2)) yield {
          val id = s"$prefix${g.fileId}.$c"
          LayoutGraph.build(id, g.regions.map(r => r.copy(fileId = id, counts = r.counts.clone(),
            elements = if (drift == 1) Vector.empty else r.elements, cellCount = r.cellCount + drift)))
        }
      }))
    }
    Gen.sequence[Vector[Vector[LayoutGraph]], Vector[LayoutGraph]](copies).map(cs => layouts ++ cs.flatten)
  }

  test("property: infer over layout classes equals the file-level reference") {
    val params = org.scalacheck.Test.Parameters.default
      .withMinSuccessfulTests(150).withInitialSeed(Seed(20216L))
    var copyEdges = 0
    def origin(id: String) = if (id.contains('.')) id.drop(1).takeWhile(_ != '.') else id
    def bits(edges: Vector[(String, String, Double)]) =
      edges.map { case (a, b, s) => (a, b, java.lang.Double.doubleToRawLongBits(s)) }
    val prop = Prop.forAllNoShrink(genCopies) { layouts =>
      Prop.all(Seq(0.7, 0.99).map { tau =>
        val p = TemplateInference.Params(tauLayout = tau)
        val got = TemplateInference.infer(spark, layouts, p)
        val want = ReferenceCandidates.fileLevel(layouts, p)
        copyEdges += got.edges.count { case (a, b, _) => origin(a) == origin(b) }
        (bits(got.edges) == bits(want.edges)) :| s"τ_f $tau: edges ${got.edges}, want ${want.edges}" &&
          (got.candidatePairs == want.candidatePairs) :| s"τ_f $tau: ${got.candidatePairs} candidates" &&
          (got.templateOf == want.templateOf) :| s"τ_f $tau: templates ${got.templateOf}"
      }: _*)
    }
    val res = org.scalacheck.Test.check(params, prop)
    assert(res.passed, org.scalacheck.util.Pretty.pretty(res))
    assert(copyEdges > 0, "no edge between a layout and its copy")
  }

  test("property: infer gives the same results whatever the number of scan tasks") {
    val params = org.scalacheck.Test.Parameters.default
      .withMinSuccessfulTests(100).withInitialSeed(Seed(20221L))
    val cores = spark.sparkContext.defaultParallelism
    def bits(edges: Vector[(String, String, Double)]) =
      edges.map { case (a, b, s) => (a, b, java.lang.Double.doubleToRawLongBits(s)) }
    def results(r: TemplateInference.Result) =
      (r.candidatePairs, bits(r.edges), r.templatesAt(0.7), r.templatesAt(0.99))
    var edges = 0
    val prop = Prop.forAllNoShrink(genCopies) { layouts =>
      val p = TemplateInference.Params(tauLayout = 0.7)
      val want = results(TemplateInference.infer(spark, layouts, p, 1))
      edges += want._2.size
      Prop.all(Seq(3, cores, 4 * cores).map { tasks =>
        val got = results(TemplateInference.infer(spark, layouts, p, tasks))
        (got == want) :| s"$tasks tasks: $got, 1 task: $want"
      }: _*)
    }
    val res = org.scalacheck.Test.check(params, prop)
    assert(res.passed, org.scalacheck.util.Pretty.pretty(res))
    assert(edges > 0, "no edge in any case")
  }

  test("property: infer and the sequential Algorithm 1 give the same template groups") {
    val params = org.scalacheck.Test.Parameters.default
      .withMinSuccessfulTests(100).withInitialSeed(Seed(20222L))
    def groups(m: Map[String, Int]) = m.groupBy(_._2).values.map(_.keys.toSet).toSet
    var merged = 0
    val prop = Prop.forAllNoShrink(genCopies) { layouts =>
      Prop.all(Seq(0.7, 0.99).map { tau =>
        val p = TemplateInference.Params(tauLayout = tau)
        val got = groups(TemplateInference.infer(spark, layouts, p).templateOf)
        val want = groups(ReferenceCandidates.sequential(layouts, p).templateOf)
        merged += got.count(_.size > 1)
        (got == want) :| s"τ_f $tau: groups $got, Algorithm 1 $want"
      }: _*)
    }
    val res = org.scalacheck.Test.check(params, prop)
    assert(res.passed, org.scalacheck.util.Pretty.pretty(res))
    assert(merged > 0, "no template of two or more files in any case")
  }

  test("deal gives every row to one task, each task's rows in increasing order, by LPT") {
    // LPT: 5 → task 0, 4 → 1, then each 3 to the lighter task, 0 first on ties
    assert(TemplateInference.deal(Array(5L, 4, 3, 3, 3), 2).map(_.toSeq).toSeq == Seq(Seq(0, 3), Seq(1, 2, 4)))
    assert(TemplateInference.deal(Array(1L, 1, 1, 1), 2).map(_.toSeq).toSeq == Seq(Seq(0, 2), Seq(1, 3)))
    assert(TemplateInference.deal(Array.empty, 4).map(_.toSeq).toSeq == Seq.fill(4)(Seq.empty))
    assert(TemplateInference.deal(Array(7L, 9), 4).map(_.toSeq).toSeq == Seq(Seq(1), Seq(0), Seq(), Seq()))
    intercept[IllegalArgumentException](TemplateInference.deal(Array(1L), 0))
    val params = org.scalacheck.Test.Parameters.default
      .withMinSuccessfulTests(300).withInitialSeed(Seed(20222L))
    val gen = for {
      tasks <- Gen.choose(1, 9)
      n     <- Gen.choose(0, 40)
      costs <- Gen.listOfN(n, Gen.frequency(1 -> Gen.const(0L), 1 -> Gen.choose(1L, 3L), 2 -> Gen.choose(0L, 1000000L)))
    } yield (costs.toArray, tasks)
    val prop = Prop.forAllNoShrink(gen) { case (costs, tasks) =>
      val dealt = TemplateInference.deal(costs, tasks)
      val loads = dealt.map(_.map(costs).sum)
      (dealt.length == tasks) :| s"${dealt.length} tasks" &&
        (dealt.flatten.sorted.toSeq == costs.indices) :| "not every row once" &&
        dealt.forall(rs => rs.indices.drop(1).forall(i => rs(i - 1) < rs(i))) :| "rows not increasing" &&
        (TemplateInference.deal(costs.clone(), tasks).map(_.toSeq).toSeq == dealt.map(_.toSeq).toSeq) :| "not deterministic" &&
        // list scheduling: no task ends later than the mean load plus the largest cost
        (loads.max <= costs.sum / tasks + costs.maxOption.getOrElse(0L)) :| s"loads ${loads.toSeq}"
    }
    val res = org.scalacheck.Test.check(params, prop)
    assert(res.passed, org.scalacheck.util.Pretty.pretty(res))
  }

  test("property: rowCosts equals the cost summed over every compared class pair") {
    val params = org.scalacheck.Test.Parameters.default
      .withMinSuccessfulTests(300).withInitialSeed(Seed(20223L))
    val gen = for {
      n     <- Gen.choose(0, 30)
      nodes <- Gen.listOfN(n, Gen.frequency(1 -> Gen.const(0), 4 -> Gen.choose(1, 12), 1 -> Gen.choose(40, 120)))
      sizes <- Gen.listOfN(n, Gen.choose(1, 3))
      tau   <- Gen.oneOf(0.0, 0.5, 0.7, 0.95, 0.99, 1.0, 1.01)
    } yield (nodes.toArray, sizes.toArray, tau)
    val prop = Prop.forAllNoShrink(gen) { case (nodes, sizes, tau) =>
      val want = nodes.indices.map { x =>
        (x until nodes.length).filter(y => y > x || sizes(x) > 1).map { y =>
          val (u, v) = (nodes(x).toLong, nodes(y).toLong)
          1 + (if (LayoutGraph.sizeBound(nodes(x), nodes(y)) >= tau) u * u * v * v else 0L)
        }.sum
      }
      val got = TemplateInference.rowCosts(nodes, sizes, tau).toSeq
      (got == want) :| s"got $got, want $want"
    }
    val res = org.scalacheck.Test.check(params, prop)
    assert(res.passed, org.scalacheck.util.Pretty.pretty(res))
  }

  test("infer runs one Spark job of one task per core") {
    val classes = TemplateInference.payload(layouts.map(_.regions).toArray)._1.length
    val jobs = SparkJobs.stageTasks(spark)(TemplateInference.infer(spark, layouts))
    assert(jobs == Vector(Seq(math.min(classes, spark.sparkContext.defaultParallelism))), s"classes: $classes")
  }

  test("property: templates from class edges equal templatesFromEdges over the file edges, ids included") {
    val params = org.scalacheck.Test.Parameters.default
      .withMinSuccessfulTests(150).withInitialSeed(Seed(20217L))
    // how often each case the class-level templates must get right occurred
    val seen = mutable.Map.empty[String, Int].withDefaultValue(0)
    val prop = Prop.forAllNoShrink(genCopies, Gen.long) { (sorted, seed) =>
      val layouts = new scala.util.Random(seed).shuffle(sorted)
      val classOf = layouts.groupBy(_.regions.map(r => (r.box, r.counts.toSeq))).values.zipWithIndex
        .flatMap { case (gs, x) => gs.map(_.fileId -> x) }.toMap
      val sizes = classOf.values.groupBy(identity).view.mapValues(_.size).toMap
      Prop.all(Seq(0.5, 0.7, 0.99).map { tau =>
        val got = TemplateInference.infer(spark, layouts, TemplateInference.Params(tauLayout = tau))
        val want = TemplateInference.templatesFromEdges(layouts.map(_.fileId), got.edges, tau)
        val classEdges = got.edges.map { case (a, b, _) => Set(classOf(a), classOf(b)) }.toSet
        val joined = classEdges.flatten
        seen("file without regions") += layouts.count(_.size == 0)
        for ((x, n) <- sizes) {
          val self = classEdges(Set(x))
          if (n == 1) seen(if (joined(x)) "single-file class with an edge" else "single-file class without") += 1
          else seen(if (self) "2+-file class with (X, X)" else "2+-file class without (X, X)") += 1
        }
        // classes of one template with no class edge between them
        for (xs <- got.templateOf.groupBy(_._2).values.map(_.keys.map(classOf).toSet);
             x <- xs; y <- xs if x < y && !classEdges(Set(x, y))) seen("class joined only through another class") += 1
        (got.templateOf == want) :| s"τ_f $tau: templates ${got.templateOf}, want $want"
      }: _*)
    }
    val res = org.scalacheck.Test.check(params, prop)
    assert(res.passed, org.scalacheck.util.Pretty.pretty(res))
    for (c <- Seq("file without regions", "single-file class with an edge", "single-file class without",
                  "2+-file class with (X, X)", "2+-file class without (X, X)", "class joined only through another class"))
      assert(seen(c) > 0, s"no case of $c")
  }

  test("property: one infer at 0.7 gives templatesFromEdges at every higher τ_f, each refining the one before") {
    val params = org.scalacheck.Test.Parameters.default
      .withMinSuccessfulTests(150).withInitialSeed(Seed(20218L))
    val taus = Seq(0.7, 0.8, 0.9, 0.99, 1.0)
    var splits = 0
    val prop = Prop.forAllNoShrink(genCopies, Gen.long) { (sorted, seed) =>
      val layouts = new scala.util.Random(seed).shuffle(sorted)
      val got = TemplateInference.infer(spark, layouts, TemplateInference.Params(tauLayout = 0.7))
      val at = taus.map(got.templatesAt)
      // every template at the higher τ_f lies within one of the lower
      def refines(fine: Map[String, Int], coarse: Map[String, Int]) =
        fine.groupBy(_._2).values.forall(_.keys.map(coarse).size == 1)
      splits += at.sliding(2).count { case Seq(a, b) => b.values.toSet.size > a.values.toSet.size }
      Prop.all(taus.zip(at).map { case (tau, t) =>
        val want = TemplateInference.templatesFromEdges(layouts.map(_.fileId), got.edges, tau)
        (t == want) :| s"τ_f $tau: templates $t, want $want"
      } ++ taus.zip(at).sliding(2).map { case Seq((lo, coarse), (hi, fine)) =>
        refines(fine, coarse) :| s"templates at $hi do not refine those at $lo"
      }: _*)
    }
    val res = org.scalacheck.Test.check(params, prop)
    assert(res.passed, org.scalacheck.util.Pretty.pretty(res))
    assert(splits > 0, "no template split along the sweep")
  }

  test("templatesAt below the τ_f of infer is rejected") {
    val result = TemplateInference.infer(spark, layouts, TemplateInference.Params(tauLayout = 0.7))
    assert(result.templatesAt(0.7) == result.templateOf)
    intercept[IllegalArgumentException](result.templatesAt(0.69))
  }

  test("infer rejects repeated file ids") {
    val g = layouts.head
    intercept[IllegalArgumentException](TemplateInference.infer(spark, layouts :+ g))
    intercept[IllegalArgumentException](TemplateInference.infer(spark, LayoutGraph.build(g.fileId, Vector.empty) +: layouts))
  }

  test("candidatePairs counts the file pairs of candidate classes: 3 + 1 + 6") {
    def file(id: String, boxes: Rect*): LayoutGraph =
      LayoutGraph.build(id, boxes.toVector.zipWithIndex.map { case (box, k) =>
        Region(id, box, Vector(box), Array.tabulate(Cells.all.size)(t => (t + 1) * (k + 1) % 7), 2)
      })
    // x1–x3 share one layout, y1–y2 another whose first region matches
    // theirs; z's lone region has no cells, so it matches nothing
    val xs = Seq("x1", "x2", "x3").map(file(_, Rect(0, 0, 1, 0), Rect(0, 2, 1, 4)))
    val ys = Seq("y1", "y2").map(file(_, Rect(0, 0, 1, 0), Rect(3, 3, 3, 3), Rect(5, 0, 5, 0)))
    val z = LayoutGraph.build("z", Vector(Region("z", Rect(0, 0, 0, 0), Vector.empty, new Array[Int](Cells.all.size), 0)))
    val corpus = (xs ++ ys :+ z).toVector
    val got = TemplateInference.infer(spark, corpus, TemplateInference.Params(tauLayout = 0.7))
    assert(got.candidatePairs == 3 + 1 + 6)
    assert(TemplateInference.candidatePairs(spark, corpus.flatMap(_.regions), 0.75).size == 10)
    assert(ReferenceCandidates.fileLevel(corpus, TemplateInference.Params(tauLayout = 0.7)).candidatePairs == 10)
  }

  test("the scan's payload is primitive arrays and scores the same after Java serialization") {
    val (classes, shipped) = TemplateInference.payload(layouts.sortBy(_.fileId).map(_.regions).toArray)
    // every object reachable from the payload through its fields
    val reached = mutable.LinkedHashSet.empty[Class[_]]
    val seen = java.util.Collections.newSetFromMap(new java.util.IdentityHashMap[AnyRef, java.lang.Boolean])
    def walk(o: AnyRef): Unit = if (o != null && seen.add(o)) {
      reached += o.getClass
      for (c <- Iterator.iterate[Class[_]](o.getClass)(_.getSuperclass).takeWhile(_ != null);
           f <- c.getDeclaredFields if !Modifier.isStatic(f.getModifiers) && !f.getType.isPrimitive) {
        f.setAccessible(true); walk(f.get(o))
      }
    }
    walk(shipped)
    val (arrays, objects) = reached.partition(_.isArray)
    assert(objects.toSet == Set(classOf[(_, _)], classOf[LayoutGraph.Table], classOf[RegionSimilarity.Index]))
    assert(arrays.forall(_.getComponentType.isPrimitive), arrays)

    val ser = new JavaSerializer(spark.sparkContext.getConf).newInstance()
    val (table, sizes) = ser.deserialize[(LayoutGraph.Table, Array[Int])](ser.serialize(shipped))
    assert(sizes.toSeq == shipped._2.toSeq && sizes.sum == layouts.size)
    def bits(t: LayoutGraph.Table, x: Int, y: Int, tau: Double) =
      java.lang.Double.doubleToRawLongBits(SimilarityFlooding.similarity(t, x, y, SimilarityFlooding.Params(), tau))
    val pairs = for (x <- classes.indices; y <- x until classes.length; tau <- Seq(0.0, 0.7, 0.99)) yield (x, y, tau)
    val differ = pairs.filter { case (x, y, tau) => bits(table, x, y, tau) != bits(shipped._1, x, y, tau) }
    assert(pairs.size > 100 && differ.isEmpty, s"${differ.size} of ${pairs.size} differ, e.g. ${differ.take(3)}")
  }

  test("gold regions + high threshold recover the planned templates well") {
    // τ_f = 0.95 here: gold layouts of one template differ through gap and
    // row-count jitter, so 0.99 is deliberately over-selective (the paper's
    // completeness also drops toward τ_f = 1, Figure 8)
    val result = TemplateInference.infer(spark, layouts, TemplateInference.Params(tauLayout = 0.95))
    val gold = files.map(_.templateId)
    val pred = files.map(f => result.templateOf(f.fileId))
    val (h, c, v) = Metrics.vMeasure(gold.map(_.hashCode) zip pred)
    assert(h > 0.8, s"homogeneity $h")
    assert(c > 0.7, s"completeness $c")
    assert(v > 0.75, s"v-measure $v")
  }

  /** One inference at 0.7, read at each τ_f of a sweep. */
  private lazy val sweep = TemplateInference.infer(spark, layouts, TemplateInference.Params(tauLayout = 0.7))

  test("threshold 1.0 makes nearly every file its own template (perfect homogeneity)") {
    val t = sweep.templatesAt(1.0 + 1e-9)
    val gold = files.map(_.templateId.hashCode)
    val pred = files.map(f => t(f.fileId))
    val (h, _, _) = Metrics.vMeasure(gold zip pred)
    assert(h == 1.0)
  }

  test("lowering the threshold merges more (completeness monotone)") {
    def nTemplates(tau: Double) = sweep.templatesAt(tau).values.toSet.size
    assert(nTemplates(0.7) <= nTemplates(0.9))
    assert(nTemplates(0.9) <= nTemplates(1.01))
  }

  test("templates are transitively closed") {
    val result = TemplateInference.infer(spark, layouts, TemplateInference.Params(tauLayout = 0.95))
    for ((a, b, _) <- result.edges)
      assert(result.templateOf(a) == result.templateOf(b))
  }

  test("spark and sequential Algorithm 1 agree on the fixed point") {
    // sequential index pruning is a subset of all-pairs candidates; with
    // gold regions both must find the same same-template groups
    val seq = ReferenceCandidates.sequential(layouts, TemplateInference.Params(tauLayout = 0.99))
    val par = TemplateInference.infer(spark, layouts, TemplateInference.Params(tauLayout = 0.99))
    def groups(m: Map[String, Int]) = m.groupBy(_._2).values.map(_.keys.toSet).toSet
    assert(groups(seq.templateOf) == groups(par.templateOf))
  }

  test("files without regions form singleton templates") {
    val empty = LayoutGraph.build("empty-file", Vector.empty)
    val result = TemplateInference.infer(spark, layouts :+ empty, TemplateInference.Params())
    assert(result.templateOf.contains("empty-file"))
    assert(result.templateOf.values.count(_ == result.templateOf("empty-file")) == 1)
  }

  test("sweep edges respect the size-bound pruning") {
    val sizeOf = layouts.map(g => g.fileId -> g.size).toMap
    for ((a, b, _) <- sweep.edges)
      assert(LayoutGraph.sizeBound(sizeOf(a), sizeOf(b)) >= 0.7)
  }

  test("detected-region pipeline (static radius) still groups same-template files") {
    val regions = Strategies.detect(spark, "Static Radius", "deco", files, files)
    val ls = Strategies.layouts(files, regions)
    val result = TemplateInference.infer(spark, ls, TemplateInference.Params(tauLayout = 0.99))
    val gold = files.map(_.templateId.hashCode)
    val pred = files.map(f => result.templateOf(f.fileId))
    val (_, _, v) = Metrics.vMeasure(gold zip pred)
    assert(v > 0.6, s"v-measure with detected regions $v")
  }
}
