package repro.graph

import scala.collection.immutable.ArraySeq

/** A graph database `D = {G_1..G_n}` with a global edge-id space.
  *
  * Global edge id = `edgeOffset(graphIdx) + localEdgeId`; cover sets
  * (Definition 2/3) are sets of global edge ids, so coverage arithmetic is
  * flat integer-set arithmetic regardless of which graph an edge lives in.
  */
final class GraphDb(graphSeq: IndexedSeq[LabeledGraph]) extends Serializable {

  /** The graphs, array-backed: the enumerator reads one per embedding. */
  val graphs: IndexedSeq[LabeledGraph] = ArraySeq.from(graphSeq)

  val numGraphs: Int = graphs.length

  val edgeOffset: Array[Int] = {
    val o = new Array[Int](numGraphs + 1)
    var i = 0
    while (i < numGraphs) { o(i + 1) = o(i) + graphs(i).numEdges; i += 1 }
    o
  }

  /** Total number of edges in the database — the denominator of the
    * coverage rate reported throughout Section 7.
    */
  val totalEdges: Int = edgeOffset(numGraphs)

  /** graphOfEdge(globalEdgeId) = graph index. */
  val graphOfEdge: Array[Int] = {
    val a = new Array[Int](totalEdges)
    var g = 0
    while (g < numGraphs) {
      java.util.Arrays.fill(a, edgeOffset(g), edgeOffset(g + 1), g)
      g += 1
    }
    a
  }

  /** Estimated on-disk dataset footprint, the denominator of Table 3's
    * "Index/Graphs %" row. The paper's repositories ship as SDF-style
    * text (one ~44-byte atom line per vertex, ~22-byte bond line per
    * edge, ~200-byte header/footer per compound), so that is what "size
    * of the underlying dataset" means there; we estimate the same format.
    */
  def sizeBytesEstimate: Long =
    graphs.iterator.map(g => 200L + 44L * g.numVertices + 22L * g.numEdges).sum
}
