package repro.core

import scala.collection.immutable.VectorBuilder
import scala.collection.mutable.ArrayBuffer

/** Disjoint sets over 0 until n with path compression (Tarjan, JACM 1975):
  * the connected components of the runs of `Segmentation.components`
  * (§4.1, and the baselines' labelled cells), of the ε-graph of elements
  * (§4.2), of the file graph (Algorithm 1, over layouts) and of the genetic
  * baseline's kept edges.
  */
final class UnionFind(n: Int) {
  private val parent = Array.range(0, n)

  /** The root of i's set; compresses the path from i. */
  def find(i: Int): Int = {
    var r = i
    while (parent(r) != r) r = parent(r)
    var c = i
    while (parent(c) != r) { val next = parent(c); parent(c) = r; c = next }
    r
  }

  /** Merges the sets of i and j, linking root(i) under root(j); false if
    * they were one set already.
    */
  def union(i: Int, j: Int): Boolean = {
    val ri = find(i); val rj = find(j)
    if (ri != rj) parent(ri) = rj
    ri != rj
  }

  /** The sets of `members` only, each in the order given and the sets in
    * the order of their first member: for increasing members, the sets are
    * ordered by smallest member with members increasing.
    */
  def sets(members: IterableOnce[Int]): Vector[Vector[Int]] = {
    val slot = new Array[Int](n) // 1 + the index in `out` of each root's set
    val out = ArrayBuffer.empty[VectorBuilder[Int]]
    for (m <- members.iterator) {
      val r = find(m)
      if (slot(r) == 0) { out += new VectorBuilder[Int]; slot(r) = out.length }
      out(slot(r) - 1) += m
    }
    out.iterator.map(_.result()).toVector
  }
}
