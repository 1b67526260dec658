package repro.baselines.genetic

import scala.util.Random

/** A from-scratch random forest (bagged CART trees, Gini impurity) used as
  * the cell classifier of the genetic-based baseline (Koci et al. train a
  * random forest on cell features to label each cell's role). Spark ML's
  * forest would grow other trees, changing the Genetic regions recorded in
  * `digests.tsv`, and run Spark jobs for every cross-validation fold.
  */
object DecisionForest {

  /** A labeled training instance: dense feature vector and class label. */
  final case class Instance(features: Array[Double], label: Int)

  sealed trait Node
  final case class Leaf(label: Int) extends Node
  final case class Split(feature: Int, threshold: Double, left: Node, right: Node) extends Node

  /** Forest shape: trees per forest, tree depth, instances per leaf. */
  private val Trees = 12
  private val MaxDepth = 10
  private val MinLeaf = 4

  final case class Forest(roots: Vector[Node], nClasses: Int) {
    def predict(features: Array[Double]): Int = {
      val votes = new Array[Int](nClasses)
      for (root <- roots) {
        var n = root
        var done = false
        while (!done) n match {
          case Leaf(l)                => votes(l) += 1; done = true
          case Split(f, t, lft, rgt)  => n = if (features(f) <= t) lft else rgt
        }
      }
      votes.indices.maxBy(votes)
    }
  }

  private def majority(insts: Seq[Instance], nClasses: Int): Int = {
    val c = new Array[Int](nClasses)
    insts.foreach(i => c(i.label) += 1)
    c.indices.maxBy(c)
  }

  private def gini(counts: Array[Int], total: Int): Double = {
    if (total == 0) 0.0
    else 1.0 - counts.map { c => val p = c.toDouble / total; p * p }.sum
  }

  private def buildTree(insts: IndexedSeq[Instance], depth: Int,
                        nClasses: Int, nFeatures: Int, rnd: Random): Node = {
    if (depth >= MaxDepth || insts.length < 2 * MinLeaf ||
        insts.forall(_.label == insts.head.label))
      return Leaf(majority(insts, nClasses))

    // feature subsampling: sqrt(d) candidate features per split
    val k = math.max(1, math.round(math.sqrt(nFeatures.toDouble)).toInt)
    val feats = rnd.shuffle((0 until nFeatures).toVector).take(k)
    var bestGain = 0.0
    var bestF = -1; var bestT = 0.0
    val total = insts.length
    val parentCounts = new Array[Int](nClasses)
    insts.foreach(i => parentCounts(i.label) += 1)
    val parentGini = gini(parentCounts, total)

    for (f <- feats) {
      val sorted = insts.sortBy(_.features(f))
      val leftCounts = new Array[Int](nClasses)
      var i = 0
      while (i < total - 1) {
        leftCounts(sorted(i).label) += 1
        val v = sorted(i).features(f); val nv = sorted(i + 1).features(f)
        if (v != nv && i + 1 >= MinLeaf && total - i - 1 >= MinLeaf) {
          val rightCounts = parentCounts.indices.map(c => parentCounts(c) - leftCounts(c)).toArray
          val g = parentGini -
            ((i + 1).toDouble / total) * gini(leftCounts, i + 1) -
            ((total - i - 1).toDouble / total) * gini(rightCounts, total - i - 1)
          if (g > bestGain) { bestGain = g; bestF = f; bestT = (v + nv) / 2.0 }
        }
        i += 1
      }
    }
    if (bestF < 0) return Leaf(majority(insts, nClasses))
    val (l, r) = insts.partition(_.features(bestF) <= bestT)
    Split(bestF, bestT,
      buildTree(l, depth + 1, nClasses, nFeatures, rnd),
      buildTree(r, depth + 1, nClasses, nFeatures, rnd))
  }

  /** Trains a forest with bootstrap sampling per tree, drawn from `seed`. */
  def train(data: IndexedSeq[Instance], nClasses: Int, seed: Long): Forest = {
    require(data.nonEmpty, "empty training set")
    val nFeatures = data.head.features.length
    val roots = Vector.tabulate(Trees) { t =>
      val treeRnd = new Random(seed * 31 + t)
      val boot = IndexedSeq.fill(data.length)(data(treeRnd.nextInt(data.length)))
      buildTree(boot, 0, nClasses, nFeatures, treeRnd)
    }
    Forest(roots, nClasses)
  }
}
