package repro.core

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path, Paths}
import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import repro.{SparkJobs, SparkSpec}
import scala.jdk.CollectionConverters._

/** `Jobs`: one Spark job of one task per slice, results in slice order,
  * and the striping of items over slices. A guard keeps every job of
  * `src/main` on it.
  */
class JobsSpec extends SparkSpec {

  test("run returns each slice's result in slice order, from one job of one task per slice") {
    val cores = spark.sparkContext.defaultParallelism
    for (n <- Seq(1, 3, cores, 2 * cores + 1)) {
      val slices = Array.tabulate(n)(t => Array.tabulate(t % 3)(k => s"$t.$k"))
      var got = Array.empty[Vector[String]]
      val jobs = SparkJobs.stageTasks(spark) { got = Jobs.run(spark.sparkContext, slices)(_.toVector) }
      assert(jobs == Vector(Seq(n)))
      assert(got.toSeq == slices.toSeq.map(_.toVector), s"$n slices")
    }
  }

  test("run takes empty slices") {
    val got = Jobs.run(spark.sparkContext, Array.fill(3)(Array.empty[Int]))(_.length)
    assert(got.toSeq == Seq(0, 0, 0))
  }

  test("run rejects zero slices, and starts no job") {
    val jobs = SparkJobs.stageTasks(spark) {
      intercept[IllegalArgumentException](Jobs.run(spark.sparkContext, Array.empty[Array[Int]])(_.length))
    }
    assert(jobs.isEmpty)
  }

  test("property: stripe puts item i in slice i mod n, in order, slice sizes within one") {
    val params = org.scalacheck.Test.Parameters.default
      .withMinSuccessfulTests(500).withInitialSeed(Seed(23L))
    val prop = Prop.forAllNoShrink(Gen.choose(0, 60), Gen.choose(-1, 20)) { (length, slices) =>
      val items = Vector.tabulate(length)(i => s"item$i")
      val striped = Jobs.stripe(items, slices)
      val n = math.max(1, math.min(length, slices))
      val sizes = striped.map(_.length)
      (striped.length == n) :| s"${striped.length} slices, want $n" &&
        (striped.flatten.sorted.toVector == items.sorted) :| "each item in exactly one slice" &&
        striped.indices.forall(t => striped(t).toVector == (t until length by n).map(items)) :| "slice t holds t, t + n, …" &&
        (sizes.max - sizes.min <= 1) :| s"sizes ${sizes.mkString(",")}"
    }
    val res = org.scalacheck.Test.check(params, prop)
    assert(res.passed, org.scalacheck.util.Pretty.pretty(res))
  }

  test("every Spark job of src/main goes through Jobs.run") {
    // Only Jobs.scala may create an RDD or submit a job; any other file
    // that touches Spark may run no RDD or Dataset action.
    val root = Paths.get("src", "main", "scala")
    val helper = root.resolve(Paths.get("repro", "core", "Jobs.scala"))
    val creates = Seq("parallelize(", "makeRDD(", "runJob(", "textFile(", "emptyRDD", ".rdd")
    val actions = Seq(".collect()", ".count()", ".foreach", ".reduce", ".take(", ".first()", ".show(")
    val files = Files.walk(root).iterator.asScala.filter(_.toString.endsWith(".scala")).toVector
    assert(files.contains(helper), s"$helper is missing")
    def offences(f: Path): Seq[String] = {
      val text = new String(Files.readAllBytes(f), UTF_8)
      val spark = text.contains("org.apache.spark")
      for ((line, i) <- text.linesIterator.toSeq.zipWithIndex;
           word <- creates ++ (if (spark) actions else Nil) if line.contains(word))
        yield s"$f:${i + 1}: $word"
    }
    val found = files.filter(_ != helper).flatMap(offences)
    assert(found.isEmpty, found.mkString("jobs outside Jobs.run:\n", "\n", ""))
  }
}
