package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.genetic.DecisionForest
import repro.baselines.genetic.DecisionForest._

/** From-scratch random forest used by the genetic baseline. */
class DecisionForestSpec extends AnyFunSuite {

  private def linearData(n: Int, seed: Long): IndexedSeq[Instance] = {
    val rnd = new scala.util.Random(seed)
    IndexedSeq.fill(n) {
      val x = rnd.nextDouble() * 10; val y = rnd.nextDouble() * 10
      Instance(Array(x, y), if (x > 5) 1 else 0)
    }
  }

  test("training on an empty set is rejected") {
    intercept[IllegalArgumentException](DecisionForest.train(IndexedSeq.empty, 2, 7))
  }

  test("single-class data predicts that class everywhere") {
    val data = IndexedSeq.fill(50)(Instance(Array(1.0, 2.0), 1))
    val f = DecisionForest.train(data, 2, 7)
    assert(f.predict(Array(0.0, 0.0)) == 1)
    assert(f.predict(Array(9.0, 9.0)) == 1)
  }

  test("learns an axis-aligned split") {
    val f = DecisionForest.train(linearData(400, 1), 2, 7)
    assert(f.predict(Array(9.0, 5.0)) == 1)
    assert(f.predict(Array(1.0, 5.0)) == 0)
  }

  test("training accuracy is high on separable data") {
    val data = linearData(400, 2)
    val f = DecisionForest.train(data, 2, 7)
    val acc = data.count(i => f.predict(i.features) == i.label).toDouble / data.size
    assert(acc > 0.95, s"acc $acc")
  }

  test("held-out accuracy beats chance on noisy data") {
    val rnd = new scala.util.Random(3)
    def gen(n: Int) = IndexedSeq.fill(n) {
      val x = rnd.nextDouble(); val label = if (x > 0.5) 1 else 0
      val flipped = if (rnd.nextDouble() < 0.1) 1 - label else label
      Instance(Array(x, rnd.nextDouble()), flipped)
    }
    val f = DecisionForest.train(gen(500), 2, 7)
    val test = gen(200)
    val acc = test.count(i => f.predict(i.features) == i.label).toDouble / test.size
    assert(acc > 0.7, s"acc $acc")
  }

  test("three-class problems are supported") {
    val rnd = new scala.util.Random(4)
    val data = IndexedSeq.fill(600) {
      val x = rnd.nextDouble() * 3
      Instance(Array(x), x.toInt)
    }
    val f = DecisionForest.train(data, 3, 7)
    assert(f.predict(Array(0.2)) == 0)
    assert(f.predict(Array(1.5)) == 1)
    assert(f.predict(Array(2.8)) == 2)
  }

  test("training is deterministic in the seed") {
    val data = linearData(200, 5)
    val a = DecisionForest.train(data, 2, 9)
    val b = DecisionForest.train(data, 2, 9)
    val probe = Array(4.9, 2.0)
    assert(a.predict(probe) == b.predict(probe))
    assert(a.roots == b.roots)
  }
}
