package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.TemplateInference
import repro.corpus.Corpora
import repro.eval.Strategies
import repro.jobs.Table3Job

/** Paper Table 3: template inference at varying number of regions
  * (homogeneity / completeness / v-measure at τ_f = 0.99, regions detected
  * by Mondrian in the static-radius scenario, outliers excluded), read off
  * the τ_f sweep of [[Table3Job.sweep]].
  *
  * Paper values:
  *   DECO : 1 region  232 files H .92 C .97 V .94 | [2,5] 470 H .97 C .98 V .98 | >=6 150 H .99 C .98 V .99
  *   FUSTE: 1 region  495 files H .98 C .68 V .80 | [2,5] 372 H .98 C .76 V .86 | >=6  18 H 1.00 C .95 V .97
  */
class Table3Bench extends AnyFunSuite {

  private val paper = Map(
    ("deco", "1")      -> (232, 0.92, 0.97, 0.94),
    ("deco", "[2, 5]") -> (470, 0.97, 0.98, 0.98),
    ("deco", ">= 6")   -> (150, 0.99, 0.98, 0.99),
    ("fuste", "1")      -> (495, 0.98, 0.68, 0.80),
    ("fuste", "[2, 5]") -> (372, 0.98, 0.76, 0.86),
    ("fuste", ">= 6")   -> (18, 1.00, 0.95, 0.97),
  )

  test("Table 3: template inference at varying number of regions") {
    val spark = BenchSupport.spark
    val sweeps = for ((ds, files, _) <- BenchSupport.datasets) yield ds -> Table3Job.sweep(spark, ds, files)
    BenchSupport.printTable("Table 3 over the tau_f sweep (H / C / V per region-count class)",
      Seq("dataset", "tau_f", "regions", "#files", "H", "C", "V"),
      for ((ds, sweep) <- sweeps; (tau, rs) <- sweep; r <- rs)
        yield Seq(ds.toUpperCase, f"$tau%.2f", r.regions, s"${r.files}", f"${r.h}%.2f", f"${r.c}%.2f", f"${r.v}%.2f"))

    val table3 = sweeps.map { case (ds, sweep) => ds -> sweep.find(_._1 == 0.99).get._2 }.toMap
    val rows = for ((ds, _) <- sweeps; r <- table3(ds)) yield {
      val (pN, pH, pC, pV) = paper((ds, r.regions))
      Seq(ds.toUpperCase, r.regions, s"$pN", s"${r.files}",
        f"$pH%.2f", f"${r.h}%.2f", f"$pC%.2f", f"${r.c}%.2f", f"$pV%.2f", f"${r.v}%.2f")
    }
    BenchSupport.printTable("Paper Table 3 — template inference at varying number of regions (tau_f = 0.99)",
      Seq("dataset", "regions", "#files paper", "#files ours",
          "H paper", "H ours", "C paper", "C ours", "V paper", "V ours"),
      rows)

    // the sweep's 0.99 rows equal those of an inference run at 0.99
    for ((ds, corpus, _) <- BenchSupport.datasets) {
      val files = Corpora.excludeOutliers(corpus)
      val regions = Strategies.detect(spark, "Static Radius", ds, files, Vector.empty)
      val direct = TemplateInference.infer(spark, Strategies.layouts(files, regions),
        TemplateInference.Params(tauLayout = 0.99))
      assert(Table3Job.rows(files, direct.templateOf) == table3(ds), s"$ds: sweep at 0.99 vs infer at 0.99")
    }
    // every score of the sweep is a fraction, also where a class falls
    // into one template (H = 0)
    for ((ds, sweep) <- sweeps; (tau, rs) <- sweep; r <- rs; (name, x) <- Seq("H" -> r.h, "C" -> r.c, "V" -> r.v))
      assert(x >= 0.0 && x <= 1.0, s"$ds/${r.regions} at $tau: $name = $x")
    // raising τ_f only splits templates, so homogeneity never falls along
    // the sweep, in any class
    for ((ds, sweep) <- sweeps; Seq((t0, r0), (t1, r1)) <- sweep.sliding(2); (a, b) <- r0.zip(r1)) {
      assert(a.regions == b.regions)
      assert(b.h >= a.h - 1e-12, s"$ds/${a.regions}: H falls from $t0 to $t1 ($a, $b)")
    }
    // fragmentation at high τ_f (paper Figure 8): in every class C is
    // lowest at τ_f = 1.0, and on Fuste it drops there from 0.99
    for ((ds, sweep) <- sweeps; k <- sweep.head._2.indices) {
      val c = sweep.map { case (tau, rs) => tau -> rs(k).c }.toMap
      assert(c.values.forall(c(1.0) <= _ + 1e-12), s"$ds/${sweep.head._2(k).regions}: C is not lowest at 1.0: $c")
      if (ds == "fuste") assert(c(1.0) < c(0.99), s"fuste/${sweep.head._2(k).regions}: C holds at 1.0: $c")
    }

    val byKey = rows.map(r => (r(0).toLowerCase, r(1)) -> r).toMap
    // file-count marginals match the paper by construction (±1 from the
    // outlier-exclusion bookkeeping)
    for (((ds, cls), row) <- byKey) {
      val (pN, _, _, _) = paper((ds, cls))
      assert(math.abs(row(3).toInt - pN) <= 2, s"$ds/$cls file count ${row(3)} vs $pN")
    }
    // shape assertions: homogeneity high everywhere; scores improve with
    // more regions per file; fuste completeness lags deco completeness
    for (((_, _), row) <- byKey) assert(row(5).toDouble >= 0.85, s"H low: $row")
    for (ds <- Seq("deco", "fuste")) {
      val v1 = byKey((ds, "1"))(9).toDouble
      val v6 = byKey((ds, ">= 6"))(9).toDouble
      assert(v6 >= v1 - 0.05, s"$ds: many-region files should score best (v1=$v1 v6=$v6)")
    }
    val cDeco = byKey(("deco", "[2, 5]"))(7).toDouble
    val cFuste = byKey(("fuste", "[2, 5]"))(7).toDouble
    assert(cFuste <= cDeco + 0.05, "fuste completeness should not exceed deco (template fragmentation)")
  }
}
