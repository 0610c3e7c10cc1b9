package repro.graph

/** An immutable small/medium labeled simple graph (a "data graph" of the
  * database, or a pattern). Undirected, connected by convention (patterns
  * are always connected; generators only emit connected graphs).
  *
  * Vertices are `0 until numVertices` with integer labels (atom ids in the
  * molecule generator). Edges are parallel arrays `src/dst/edgeLabels`;
  * edge ids are positions in those arrays. Adjacency is a CSR built once
  * at construction. The constructor rejects, naming the graph and the
  * edge, an endpoint outside the vertex range, a self loop and parallel
  * edges (right-most extension would see only one of them).
  *
  * For vertex-labeled / edge-unlabeled databases the paper (footnote 5)
  * derives an edge label from the endpoint labels; since every DFS-code
  * tuple already carries both endpoint labels, we store label 0 for such
  * databases — the derived label adds no discriminating power.
  */
final class LabeledGraph(
    val id: Long,
    val vertexLabels: Array[Int],
    val src: Array[Int],
    val dst: Array[Int],
    val edgeLabels: Array[Int],
) extends Serializable {

  val numVertices: Int = vertexLabels.length
  val numEdges: Int    = src.length
  require(dst.length == numEdges && edgeLabels.length == numEdges,
    s"parallel edge arrays disagree: ${src.length}/${dst.length}/${edgeLabels.length}")

  // CSR adjacency: vertex v's incident (neighbor, edgeId) pairs live at
  // positions adjStart(v) until adjStart(v+1) of adjVert/adjEdge.
  private[graph] val adjStart: Array[Int] = new Array[Int](numVertices + 1)
  private[graph] val adjVert: Array[Int]  = new Array[Int](numEdges * 2)
  private[graph] val adjEdge: Array[Int]  = new Array[Int](numEdges * 2)
  locally {
    var e = 0
    while (e < numEdges) {
      val u = src(e); val w = dst(e)
      if (u < 0 || u >= numVertices || w < 0 || w >= numVertices)
        throw new IllegalArgumentException(
          s"edge $e ($u, $w) of graph $id has an endpoint outside [0, $numVertices)")
      if (u == w) throw new IllegalArgumentException(s"self loop at edge $e of graph $id")
      e += 1
    }
    LabeledGraph.fillAdjacency(numVertices, numEdges, src, dst, adjStart, adjVert, adjEdge)
    // No parallel edges: each edge is the first between its endpoints.
    e = 0
    while (e < numEdges) {
      val u = math.min(src(e), dst(e)); val w = math.max(src(e), dst(e))
      val first = edgeBetween(u, w)
      if (first != e)
        throw new IllegalArgumentException(s"parallel edges $first and $e between vertices $u and $w of graph $id")
      e += 1
    }
  }

  def vertexLabel(v: Int): Int = vertexLabels(v)
  def edgeLabel(e: Int): Int   = edgeLabels(e)
  def degree(v: Int): Int      = adjStart(v + 1) - adjStart(v)

  /** Visit each incident (neighborVertex, edgeId) of `v`. */
  @inline def foreachNeighbor(v: Int)(f: (Int, Int) => Unit): Unit = {
    var i = adjStart(v)
    val end = adjStart(v + 1)
    while (i < end) { f(adjVert(i), adjEdge(i)); i += 1 }
  }

  /** Edge id between `u` and `v`, or -1 if absent. Scans the smaller
    * adjacency list; degrees are tiny (molecule valence <= 4).
    */
  def edgeBetween(u: Int, v: Int): Int = {
    val a = if (degree(u) <= degree(v)) u else v
    val b = u + v - a
    var i = adjStart(a)
    val end = adjStart(a + 1)
    while (i < end) {
      if (adjVert(i) == b) return adjEdge(i)
      i += 1
    }
    -1
  }

  override def toString: String =
    s"LabeledGraph(id=$id, V=$numVertices, E=$numEdges)"
}

object LabeledGraph {
  /** Fill the CSR adjacency of `n` vertices and the `m` edges
    * `src(e)-dst(e)`: vertex v's incident (neighbor, edge) pairs go to
    * positions `adjStart(v)` until `adjStart(v + 1)` of `adjV`/`adjE`, in
    * ascending edge id, the order right-most extension and the canonical
    * kernel list candidates in. The arrays hold at least `n + 1` and
    * `2 * m` ints; nothing is allocated.
    */
  private[graph] def fillAdjacency(n: Int, m: Int, src: Array[Int], dst: Array[Int],
                                   adjStart: Array[Int], adjV: Array[Int], adjE: Array[Int]): Unit = {
    java.util.Arrays.fill(adjStart, 0, n + 1, 0)
    var e = 0
    while (e < m) { adjStart(src(e) + 1) += 1; adjStart(dst(e) + 1) += 1; e += 1 }
    var v = 0
    while (v < n) { adjStart(v + 1) += adjStart(v); v += 1 }
    e = 0
    while (e < m) {
      // adjStart(v) is the fill cursor of v here, restored below.
      val u = src(e); val w = dst(e)
      adjV(adjStart(u)) = w; adjE(adjStart(u)) = e; adjStart(u) += 1
      adjV(adjStart(w)) = u; adjE(adjStart(w)) = e; adjStart(w) += 1
      e += 1
    }
    v = n
    while (v > 0) { adjStart(v) = adjStart(v - 1); v -= 1 }
    adjStart(0) = 0
  }

  /** Convenience constructor from (u, v, edgeLabel) triples. */
  def apply(id: Long, vlabels: Seq[Int], edges: Seq[(Int, Int, Int)]): LabeledGraph =
    new LabeledGraph(
      id,
      vlabels.toArray,
      edges.map(_._1).toArray,
      edges.map(_._2).toArray,
      edges.map(_._3).toArray,
    )
}
