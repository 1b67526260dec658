package repro.core

import org.apache.spark.{SparkContext, TaskContext}
import scala.reflect.ClassTag

/** How the pipeline runs a Spark job: one task per slice of its input, each
  * a function of its whole slice. Every job of `src/main` goes through
  * [[run]] (detection, the inference scan and corpus generation).
  *
  * The job is submitted with `SparkContext.runJob` and a named task class,
  * not as `parallelize(…).map(…).collect()`: Spark's closure cleaner parses
  * the class file of every Scala lambda handed to it (the map's, and the
  * ones `collect` and `runJob(rdd, f)` wrap around it), which cost a small
  * job more driver time than its tasks (DESIGN §7). A named class is only
  * checked to be serializable. So nothing inspects what `f` captures: it
  * must close over what its task needs (broadcast handles, parameters),
  * never an outer instance, and hold no non-local `return`.
  */
object Jobs {

  /** `f` of each of `slices`, in one Spark job of one task per slice, in
    * slice order.
    */
  def run[A: ClassTag, B: ClassTag](sc: SparkContext, slices: Array[Array[A]])(f: Array[A] => B): Array[B] = {
    require(slices.nonEmpty, "a job needs at least one slice")
    sc.runJob(sc.parallelize(slices.toSeq, slices.length), new Task(f), slices.indices)
  }

  /** `items` striped over max(1, min(|items|, `slices`)) slices: slice t
    * holds items t, t + n, … in order, n being the number of slices, so
    * slice sizes differ by at most one and costs that drift along `items`
    * spread evenly.
    */
  def stripe[A: ClassTag](items: IndexedSeq[A], slices: Int): Array[Array[A]] = {
    val n = math.max(1, math.min(items.length, slices))
    Array.tabulate(n)(t => Array.tabulate((items.length - t + n - 1) / n)(k => items(t + k * n)))
  }

  /** The task of [[run]]: `f` of the task's one slice. */
  private final class Task[A, B](f: Array[A] => B) extends ((TaskContext, Iterator[Array[A]]) => B) with Serializable {
    def apply(context: TaskContext, slice: Iterator[Array[A]]): B = f(slice.next())
  }
}
