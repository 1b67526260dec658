package perfbench

import java.io.{File, PrintWriter}
import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicInteger
import scala.jdk.CollectionConverters._

/** In-memory span recorder for the traced run.
  *
  * A span is (id, parent, name, start, end, run) with nanosecond times from
  * `System.nanoTime`. Spans are opened and closed by benchmark code around
  * calls into the program's public functions; the program itself is not
  * instrumented. Spans are kept in memory and written out by [[writeJsonl]]
  * when the run ends. Several threads may record at once: each thread
  * nests its own spans, and [[under]] makes a worker's spans children of a
  * span opened by another thread.
  */
final class Trace(val runId: String) {
  final case class Span(id: Int, parent: Int, name: String, start: Long, end: Long)

  private val spans = new ConcurrentLinkedQueue[Span]()
  private val nextId = new AtomicInteger
  private val current = new ThreadLocal[Int] { override def initialValue(): Int = -1 }

  /** Runs `body` inside a span named `name`, child of this thread's innermost open span. */
  def span[A](name: String)(body: => A): A = {
    val id = nextId.getAndIncrement()
    val parent = current.get
    current.set(id)
    val t0 = System.nanoTime()
    try body
    finally {
      spans.add(Span(id, parent, name, t0, System.nanoTime()))
      current.set(parent)
    }
  }

  /** Id of this thread's innermost open span, or -1. */
  def currentId: Int = current.get

  /** Runs `body` with `parent` as this thread's innermost open span. */
  def under[A](parent: Int)(body: => A): A = {
    val saved = current.get
    current.set(parent)
    try body finally current.set(saved)
  }

  /** Spans named `name`. */
  def named(name: String): Vector[Span] = spans.iterator.asScala.filter(_.name == name).toVector

  /** Total duration (s) of the spans named `name`. */
  def totalS(name: String): Double = named(name).map(s => s.end - s.start).sum / 1e9

  /** Total self time (s) of the spans named `name`: each span's duration
    * minus the time its direct children cover. Meant for spans whose
    * children run on their own thread, one after another.
    */
  def selfS(name: String): Double = {
    val own = named(name)
    val ids = own.map(_.id).toSet
    val childNs = spans.iterator.asScala.filter(s => ids(s.parent)).map(s => s.end - s.start).sum
    (own.map(s => s.end - s.start).sum - childNs) / 1e9
  }

  /** Writes one JSON object per span, in completion order. */
  def writeJsonl(file: File): Unit = {
    file.getParentFile.mkdirs()
    val out = new PrintWriter(file, "UTF-8")
    try spans.iterator.asScala.foreach { s =>
      out.println(s"""{"run":"$runId","id":${s.id},"parent":${s.parent},"name":"${s.name}","start_ns":${s.start},"end_ns":${s.end}}""")
    } finally out.close()
  }
}
