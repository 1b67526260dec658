package repro.eval

import java.io.{DataOutputStream, OutputStream}
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Paths}
import java.security.{DigestOutputStream, MessageDigest}
import repro.SparkSpec
import repro.core.TemplateInference
import repro.corpus.Corpora

/** Output digest of all 14 Table-4 cells: for each corpus and strategy, at
  * run seed 0 and τ_f = 0.99 with the outliers excluded (as Table 4 runs
  * them), a SHA-256 of every file's regions (box, elements, type counts,
  * cell count), of `infer`'s edges with their scores as raw bits, and of
  * the partition (each file's index of the first file of its template).
  * They must equal `src/test/resources/digests.tsv`.
  *
  * A change that moves an output must say so and regenerate the file: the
  * suite writes the digests it computed to `target/digests.tsv`.
  */
class DigestSpec extends SparkSpec {

  /** The first 16 hex digits of the SHA-256 of what `write` writes. */
  private def sha(write: DataOutputStream => Unit): String = {
    val md = MessageDigest.getInstance("SHA-256")
    val out = new DataOutputStream(new DigestOutputStream(OutputStream.nullOutputStream(), md))
    write(out); out.close()
    md.digest().take(8).map(b => f"${b & 0xff}%02x").mkString
  }

  test("every Table-4 cell reproduces its committed output digest") {
    val deco = Corpora.deco(spark); val fuste = Corpora.fuste(spark)
    val rows = for {
      (dataset, corpus, other) <- Vector(("deco", deco, fuste), ("fuste", fuste, deco))
      strategy <- Strategies.All
    } yield {
      val files = Corpora.excludeOutliers(corpus)
      val regions = Strategies.detect(spark, strategy, dataset, files, other, runSeed = 0)
      val result = TemplateInference.infer(spark, Strategies.layouts(files, regions),
        TemplateInference.Params(tauLayout = 0.99))
      val regionsSha = sha { out =>
        for (f <- files) {
          val rs = regions(f.fileId)
          out.writeUTF(f.fileId); out.writeInt(rs.size)
          for (r <- rs) {
            require(r.fileId == f.fileId)
            for (b <- r.box +: r.elements) { out.writeInt(b.x0); out.writeInt(b.y0); out.writeInt(b.x1); out.writeInt(b.y1) }
            out.writeInt(r.elements.size)
            r.counts.foreach(out.writeInt)
            out.writeInt(r.cellCount)
          }
        }
      }
      val edgesSha = sha { out =>
        for ((a, b, s) <- result.edges) {
          out.writeUTF(a); out.writeUTF(b); out.writeLong(java.lang.Double.doubleToRawLongBits(s))
        }
      }
      val first = scala.collection.mutable.Map.empty[Int, Int]
      val partition = files.zipWithIndex.map { case (f, i) => first.getOrElseUpdate(result.templateOf(f.fileId), i) }
      val partitionSha = sha(out => partition.foreach(out.writeInt))
      Vector(dataset, strategy, files.size, regions.valuesIterator.map(_.size).sum, result.edges.size,
        first.size, regionsSha, edgesSha, partitionSha).mkString("\t")
    }
    val header = "corpus\tstrategy\tfiles\tregions\tedges\ttemplates\tregions_sha\tedges_sha\tpartition_sha"
    val got = (header +: rows).mkString("", "\n", "\n")
    Files.createDirectories(Paths.get("target"))
    Files.write(Paths.get("target", "digests.tsv"), got.getBytes(UTF_8))
    val resource = getClass.getResourceAsStream("/digests.tsv")
    assert(resource != null, "src/test/resources/digests.tsv is missing; target/digests.tsv holds this run's")
    val want = try new String(resource.readAllBytes(), UTF_8) finally resource.close()
    assert(got == want, s"digests differ from src/test/resources/digests.tsv:\n$got")
  }
}
