package repro

import java.util.concurrent.{ConcurrentLinkedQueue, CountDownLatch, TimeUnit}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
import scala.jdk.CollectionConverters._

/** The Spark jobs a block of code runs, as a `SparkListener` sees them. */
object SparkJobs {

  private val Key = "repro.sparkJobs"

  /** Runs `body` and returns, for each job it started on the calling
    * thread, in order, the task counts of the job's stages. Listener events
    * arrive asynchronously but in order, so once a marker job run after
    * `body` has been seen, every job of `body` has been too.
    */
  def stageTasks(spark: SparkSession)(body: => Any): Vector[Seq[Int]] = {
    val sc = spark.sparkContext
    val tag = java.util.UUID.randomUUID.toString; val marker = s"$tag-end"
    val jobs = new ConcurrentLinkedQueue[Seq[Int]]
    val ended = new CountDownLatch(1)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).map(_.getProperty(Key)).orNull match {
          case `tag`    => jobs.add(e.stageInfos.map(_.numTasks))
          case `marker` => ended.countDown()
          case _        =>
        }
    }
    sc.addSparkListener(listener)
    try {
      sc.setLocalProperty(Key, tag)
      try body finally sc.setLocalProperty(Key, null)
      sc.setLocalProperty(Key, marker)
      try sc.parallelize(Seq(0), 1).count() finally sc.setLocalProperty(Key, null)
      require(ended.await(60, TimeUnit.SECONDS), "the marker job's start was never seen")
    } finally sc.removeSparkListener(listener)
    jobs.asScala.toVector
  }
}
