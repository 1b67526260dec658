package repro.core

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream, OutputStream}
import org.apache.spark.SparkConf
import org.apache.spark.serializer.JavaSerializer

/** Java-serialization round trips and payload inspection for the tests of
  * what Spark tasks receive and return: type images, and regions in their
  * packed form.
  */
object Serial {

  private val sparkSer = new JavaSerializer(new SparkConf(false)).newInstance()

  /** A copy of `o` through Spark's `JavaSerializer`. */
  def viaSpark[A <: AnyRef](o: A): A = sparkSer.deserialize[AnyRef](sparkSer.serialize[AnyRef](o)).asInstanceOf[A]

  /** A copy of `o` through a plain `ObjectOutputStream`. */
  def viaStream[A <: AnyRef](o: A): A = {
    val bytes = new ByteArrayOutputStream
    val out = new ObjectOutputStream(bytes)
    out.writeObject(o); out.close()
    new ObjectInputStream(new ByteArrayInputStream(bytes.toByteArray)).readObject().asInstanceOf[A]
  }

  /** Every object an `ObjectOutputStream` writes for `o`, after any
    * `writeReplace`.
    */
  def written(o: AnyRef): Vector[AnyRef] = {
    val seen = Vector.newBuilder[AnyRef]
    val out = new ObjectOutputStream(OutputStream.nullOutputStream()) {
      enableReplaceObject(true)
      override def replaceObject(x: AnyRef): AnyRef = { seen += x; x }
    }
    out.writeObject(o); out.close()
    seen.result()
  }
}
