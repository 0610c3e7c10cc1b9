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
    val deg = new Array[Int](numVertices)
    var e = 0
    while (e < numEdges) {
      val u = src(e); val w = dst(e)
      if (u < 0 || u >= numVertices || w < 0 || w >= numVertices)
        throw new IllegalArgumentException(
          s"edge $e ($u, $w) of graph $id has an endpoint outside [0, $numVertices)")
      if (u == w) throw new IllegalArgumentException(s"self loop at edge $e of graph $id")
      deg(u) += 1; deg(w) += 1
      e += 1
    }
    var v = 0
    while (v < numVertices) { adjStart(v + 1) = adjStart(v) + deg(v); v += 1 }
    val fill = java.util.Arrays.copyOf(adjStart, numVertices)
    e = 0
    while (e < numEdges) {
      val u = src(e); val w = dst(e)
      adjVert(fill(u)) = w; adjEdge(fill(u)) = e; fill(u) += 1
      adjVert(fill(w)) = u; adjEdge(fill(w)) = e; fill(w) += 1
      e += 1
    }
    // No parallel edges: each vertex meets a neighbor once. `deg` and
    // `fill` are reused as the vertex last met from and the edge it was met
    // by.
    java.util.Arrays.fill(deg, -1)
    v = 0
    while (v < numVertices) {
      var a = adjStart(v)
      while (a < adjStart(v + 1)) {
        val w = adjVert(a)
        if (deg(w) == v)
          throw new IllegalArgumentException(
            s"parallel edges ${fill(w)} and ${adjEdge(a)} between vertices $v and $w of graph $id")
        deg(w) = v; fill(w) = adjEdge(a)
        a += 1
      }
      v += 1
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
