package repro.core

import org.apache.spark.sql.SparkSession
import scala.collection.mutable

/** Template inference (paper §4.4, Algorithm 1), parallelized on Spark.
  *
  * The paper processes files iteratively against a growing region index but
  * notes the result is order-independent: at the last iteration every
  * region has been compared with every other, and so have all layouts
  * containing matching regions. We implement that fixed point directly as a
  * set-based Spark pipeline:
  *
  *  0. files with identical layouts (equal region boxes and type counts, in
  *     region order) form one layout class, and steps 1–2 run on one
  *     representative per class: scoring reads nothing else, so every file
  *     pair of two classes has the class pair's score;
  *  1. all-pairs region similarity (the closed-form fingerprint index of
  *     a broadcast [[LayoutGraph.Table]] of the representatives) finds the
  *     class pairs with a region pair of similarity ≥ τ_r — candidate
  *     class pairs, including (X, X) when class X holds 2+ files — and each
  *     candidate gets its similarity-flooding layout comparison where it is
  *     found, in one parallel Spark map; the comparison stops early when
  *     its bound cascade (node count, then flooding bounds) rules out
  *     sim ≥ τ_f, and the map returns only the pairs ≥ τ_f and its count
  *     of candidate file pairs;
  *  2. templates are the connected components of the file graph, found on
  *     the driver at the class level: the class pairs with layout
  *     similarity ≥ τ_f join their classes in a union-find over layouts;
  *     the files of a class with any such pair, (X, X) or (X, Y), take the
  *     template of its component, and each file of a class with none is its
  *     own template. The file graph's edges, every file pair of a class
  *     pair ≥ τ_f, are expanded only when `Result.edges` is read.
  *
  * A τ_f sweep runs `infer` once at its lowest τ_f and reads the templates
  * at each τ_f with `Result.templatesAt`.
  */
object TemplateInference {

  /** Inference hyperparameters: τ_r = 0.75 (§4.4), τ_f subject to sweep
    * (Table 3 uses 0.99).
    */
  final case class Params(tauRegion: Double = 0.75, tauLayout: Double = 0.99,
                          flooding: SimilarityFlooding.Params = SimilarityFlooding.Params())

  /** Result: template id per file and the number of candidate file pairs
    * before any pruning. The layout-similarity edges that produced the
    * templates are held as class edges: `ids` are the file ids sorted,
    * `rank(i)` is the index in `ids` of the i-th input layout, `classes`
    * lists the indices into `ids` of each layout class, and
    * `classEdges(n)`, packed class-index pairs (X, Y), X ≤ Y, scored
    * `scores(n)` ≥ `tauLayout`. Nothing of the layouts themselves is kept.
    */
  final class Result private[TemplateInference] (val candidatePairs: Long, tauLayout: Double, rank: Array[Int],
                                                 ids: Array[String], classes: Array[Array[Int]],
                                                 classEdges: Array[Long], scores: Array[Double]) {

    /** The templates at τ_f = `tau` ≥ the τ_f of `infer`: step 2 over the
      * class edges scored ≥ `tau`, in O(files + class edges), numbered in
      * the order of their first layout, as [[templatesFromEdges]] numbers
      * them.
      */
    def templatesAt(tau: Double): Map[String, Int] = {
      require(tau >= tauLayout, s"τ_f $tau is below $tauLayout, the τ_f of this inference")
      val sets = new UnionFind(ids.length)
      val joined = new Array[Boolean](classes.length)
      for (n <- classEdges.indices if scores(n) >= tau) {
        val x = first(classEdges(n)); val y = second(classEdges(n))
        sets.union(classes(x)(0), classes(y)(0)); joined(x) = true; joined(y) = true
      }
      for (x <- classes.indices if joined(x); i <- classes(x)) sets.union(i, classes(x)(0))
      (for ((set, t) <- sets.sets(rank).zipWithIndex; i <- set) yield ids(i) -> t).toMap
    }

    /** The templates at the τ_f of `infer`. */
    val templateOf: Map[String, Int] = templatesAt(tauLayout)

    /** The edges of the file graph: every file pair (a, b), a < b, of a
      * class edge, with the class edge's score, sorted by file id, first
      * file then second. Expanded from the class edges on first read.
      */
    lazy val edges: Vector[(String, String, Double)] = {
      val scoreOf = mutable.LongMap.empty[Double]
      for (n <- classEdges.indices) scoreOf(classEdges(n)) = scores(n)
      val classOf = new Array[Int](ids.length)
      for ((c, x) <- classes.zipWithIndex; i <- c) classOf(i) = x
      val keys = classEdges.iterator.flatMap(filePairs(classes, _)).toArray
      java.util.Arrays.sort(keys)
      Vector.tabulate(keys.length) { n =>
        val a = first(keys(n)); val b = second(keys(n))
        val x = classOf(a); val y = classOf(b)
        (ids(a), ids(b), scoreOf(pack(math.min(x, y), math.max(x, y))))
      }
    }
  }

  /** Candidate file pairs (a, b), a < b, from region-fingerprint matches
    * (step 1): the files with some region pair of similarity ≥ `tauRegion`.
    */
  def candidatePairs(spark: SparkSession, regions: Vector[Region], tauRegion: Double): Vector[(String, String)] = {
    val files = regions.groupBy(_.fileId).toArray.sortBy(_._1)
    val (classes, shipped) = payload(files.map(_._2))
    val (cands, _, _) = scan(spark, shipped, Params(tauRegion), scored = false, spark.sparkContext.defaultParallelism)
    cands.flatMap(filePairs(classes, _)).sorted.iterator
      .map(k => (files(first(k))._1, files(second(k))._1)).toVector
  }

  /** A file- or class-index pair (a, b), a ≤ b, packed into one Long;
    * packed pairs sort by a, then b.
    */
  private def pack(a: Int, b: Int): Long = (a.toLong << 32) | b
  private def first(k: Long): Int = (k >>> 32).toInt
  private def second(k: Long): Int = k.toInt

  /** Layout classes of the files whose regions are `files(0)`, `files(1)`,
    * …: the files whose regions have equal boxes and equal type counts, in
    * region order — everything scoring reads of a layout. Each class lists
    * its file indices in increasing order, and classes are numbered by
    * their first file.
    */
  private def layoutClasses(files: Array[Vector[Region]]): Array[Array[Int]] =
    files.indices.groupBy(i => files(i).map(r => (r.box, r.counts.toSeq)))
      .values.map(_.toArray).toArray.sortBy(_(0))

  /** The file pairs, packed, that class pair `k` (X ≤ Y) stands for: every
    * pair of a file of X and a file of Y, or every pair of files of X when
    * X = Y.
    */
  private def filePairs(classes: Array[Array[Int]], k: Long): Iterator[Long] = {
    val xs = classes(first(k)); val ys = classes(second(k))
    if (first(k) == second(k))
      xs.indices.iterator.flatMap(i => (i + 1 until xs.length).iterator.map(j => pack(xs(i), xs(j))))
    else for (a <- xs.iterator; b <- ys.iterator) yield if (a < b) pack(a, b) else pack(b, a)
  }

  /** The layout classes of the files whose regions are `files(0)`,
    * `files(1)`, … and what the scan broadcasts of them: the table of one
    * representative per class (its first file) and the class sizes.
    */
  private[core] def payload(files: Array[Vector[Region]]): (Array[Array[Int]], (LayoutGraph.Table, Array[Int])) = {
    val classes = layoutClasses(files)
    (classes, (new LayoutGraph.Table(classes.map(c => files(c(0)))), classes.map(_.length)))
  }

  /** The candidate pairs of the layout classes of `payload`, as packed
    * class-index pairs (X, Y), X ≤ Y, with (X, X) only when X holds 2+
    * files, and the number of candidate file pairs they stand for. With
    * `scored`, only the pairs whose
    * `SimilarityFlooding.similarity(table, X, Y, p.flooding, p.tauLayout)`
    * is ≥ τ_f are returned, beside that score; without, every pair is
    * returned, unscored (NaN).
    *
    * The payload is broadcast once, as primitive arrays only, and
    * destroyed once the results are collected. Row X compares class X with
    * every class Y ≥ X until the first region pair ≥ τ_r, so each candidate
    * is found once and scored where it is found; nothing is shuffled, and a
    * task returns its kept pairs and its count of candidate file pairs.
    * The driver deals the rows to `tasks` tasks, at most one per row, by
    * their [[rowCosts]], heaviest first ([[deal]]), and runs one task per
    * dealt list of rows ([[Jobs.run]]). `infer` runs one task per core, as
    * a task's overhead is most of a small job's wall: on 4 cores, with the
    * job submitted as a `parallelize` map, an empty job took 12–14 ms with
    * 4 tasks and 22 ms with 16, and fuste-dynamic's scan job 15 ms with 4
    * tasks and 20 ms with 16.
    * Dealing by cost, not striping, keeps Deco CC's few heavy rows apart:
    * striped over 4 tasks, its `infer` took 5.7 s, against 5.1–5.2 s dealt
    * or striped over 16 (DESIGN §7).
    */
  private def scan(spark: SparkSession, payload: (LayoutGraph.Table, Array[Int]), p: Params,
                   scored: Boolean, tasks: Int): (Array[Long], Array[Double], Long) = {
    val (table, classSizes) = payload
    if (classSizes.isEmpty) return (Array.empty, Array.empty, 0L)
    val rows = deal(rowCosts(Array.tabulate(classSizes.length)(table.size), classSizes, p.tauLayout),
      math.min(tasks, classSizes.length))
    val sc = spark.sparkContext
    val bc = sc.broadcast(payload)
    val found = Jobs.run(sc, rows) { owned =>
      val (table, sizes) = bc.value
      val start = table.start; val index = table.index
      def matches(a: Int, b: Int): Boolean = {
        var i = start(a)
        while (i < start(a + 1)) {
          var j = start(b)
          while (j < start(b + 1)) {
            if (index.atLeast(i, j, p.tauRegion)) return true
            j += 1
          }
          i += 1
        }
        false
      }
      val keys = Array.newBuilder[Long]; val values = Array.newBuilder[Double]
      var candidateFilePairs = 0L
      for (a <- owned) {
        var b = if (sizes(a) > 1) a else a + 1
        while (b < sizes.length) {
          if (matches(a, b)) {
            val n = sizes(a).toLong
            candidateFilePairs += (if (a == b) n * (n - 1) / 2 else n * sizes(b))
            val s = if (scored) SimilarityFlooding.similarity(table, a, b, p.flooding, p.tauLayout) else Double.NaN
            if (!scored || s >= p.tauLayout) { keys += pack(a, b); values += s }
          }
          b += 1
        }
      }
      (keys.result(), values.result(), candidateFilePairs)
    }
    bc.destroy()
    (found.flatMap(_._1), found.flatMap(_._2), found.iterator.map(_._3).sum)
  }

  /** The estimated cost of each row X of the scan, from node counts only:
    * one unit per class Y the row compares X with (Y ≥ X when X holds 2+
    * files, else Y > X), plus u²·v² per such Y that passes the node-count
    * bound at `tau`, u and v being the node counts of X and Y: flooding's
    * work per iteration. The rows are taken last to first, over a
    * histogram of the node counts of the classes each one compares with,
    * and a row reads only the node counts that pass the bound with its own.
    */
  private[core] def rowCosts(nodes: Array[Int], sizes: Array[Int], tau: Double): Array[Long] = {
    val compared = new Array[Long](if (nodes.isEmpty) 0 else nodes.max + 1)
    val costs = new Array[Long](nodes.length)
    for (x <- nodes.indices.reverse) {
      val u = nodes(x)
      val self = sizes(x) > 1
      if (self) compared(u) += 1
      var floods = 0L // Σ v² over the Ys that pass the bound
      var v = u
      while (v >= 0 && LayoutGraph.sizeBound(u, v) >= tau) { floods += compared(v) * v * v; v -= 1 }
      v = u + 1
      while (v < compared.length && LayoutGraph.sizeBound(u, v) >= tau) { floods += compared(v) * v * v; v += 1 }
      costs(x) = nodes.length - 1 - x + (if (self) 1 else 0) + u.toLong * u * floods
      if (!self) compared(u) += 1
    }
    costs
  }

  /** Rows 0 until `costs.length` dealt to `tasks` tasks by greedy
    * longest-processing-time-first (Graham, 1969): the rows by decreasing
    * cost, ties by index, each to the task with the least cost so far, the
    * first such task on ties. Each task lists its rows in increasing order;
    * a task may get none.
    */
  private[core] def deal(costs: Array[Long], tasks: Int): Array[Array[Int]] = {
    require(tasks > 0, s"$tasks tasks")
    val load = new Array[Long](tasks)
    val owned = Array.fill(tasks)(Array.newBuilder[Int])
    for (x <- costs.indices.sortBy(-costs(_))) {
      var t = 0
      for (s <- 1 until tasks) if (load(s) < load(t)) t = s
      load(t) += costs(x); owned(t) += x
    }
    owned.map(_.result().sorted)
  }

  /** Full inference over per-file layout graphs (steps 1–2), on one
    * representative per layout class. `candidatePairs` of the result
    * counts candidate file pairs before any pruning; its `templatesAt(τ)`
    * equals `templatesFromEdges` over its `edges` at τ, template ids
    * included. File ids must be distinct.
    */
  def infer(spark: SparkSession, layouts: Vector[LayoutGraph], p: Params = Params()): Result =
    infer(spark, layouts, p, spark.sparkContext.defaultParallelism)

  /** [[infer]] with its scan dealt to `tasks` tasks. */
  private[core] def infer(spark: SparkSession, layouts: Vector[LayoutGraph], p: Params, tasks: Int): Result = {
    val order = layouts.indices.sortBy(layouts(_).fileId).toArray
    val ids = order.map(layouts(_).fileId)
    require(ids.indices.forall(i => i == 0 || ids(i - 1) != ids(i)), "file ids must be distinct")
    val rank = new Array[Int](order.length)
    for (i <- order.indices) rank(order(i)) = i
    val (classes, shipped) = payload(order.map(layouts(_).regions))
    val (classEdges, scores, candidateFilePairs) = scan(spark, shipped, p, scored = true, tasks)
    new Result(candidateFilePairs, p.tauLayout, rank, ids, classes, classEdges, scores)
  }

  /** Groups files into templates given precomputed edges and a threshold:
    * the connected components of the file graph, numbered in the order of
    * their first file.
    */
  def templatesFromEdges(files: Vector[String], edges: Vector[(String, String, Double)],
                         tauLayout: Double): Map[String, Int] = {
    val ids = files.distinct
    val index = ids.zipWithIndex.toMap
    val sets = new UnionFind(ids.size)
    for ((a, b, s) <- edges if s >= tauLayout) sets.union(index(a), index(b))
    (for ((set, t) <- sets.sets(ids.indices).zipWithIndex; i <- set) yield ids(i) -> t).toMap
  }
}
