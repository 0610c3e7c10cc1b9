package repro.iso

import scala.collection.mutable
import repro.graph.LabeledGraph

/** Subgraph isomorphism (Definition 1): all label-preserving injective
  * embeddings of a connected `pattern` into `target`, VF2-style
  * backtracking over a connectivity-ordered pattern-vertex sequence.
  */
object SubIso {

  /** Pattern-vertex visit order: vertex 0 first, then always a vertex
    * adjacent to the already-ordered prefix (the pattern is connected),
    * preferring high degree for early pruning.
    */
  private def searchOrder(p: LabeledGraph): Array[Int] = {
    val n = p.numVertices
    val order = new Array[Int](n)
    val placed = new Array[Boolean](n)
    order(0) = 0; placed(0) = true
    var i = 1
    while (i < n) {
      var best = -1
      var bestDeg = -1
      var v = 0
      while (v < n) {
        if (!placed(v)) {
          var adjacent = false
          p.foreachNeighbor(v)((w, _) => if (placed(w)) adjacent = true)
          if (adjacent && p.degree(v) > bestDeg) { best = v; bestDeg = p.degree(v) }
        }
        v += 1
      }
      require(best >= 0, "pattern is not connected")
      order(i) = best; placed(best) = true
      i += 1
    }
    order
  }

  /** Visit every embedding as a pattern->target vertex map; `visit`
    * returns false to stop the search (used by `exists`).
    */
  def foreachEmbedding(pattern: LabeledGraph, target: LabeledGraph)(
      visit: Array[Int] => Boolean): Unit = {
    if (pattern.numVertices > target.numVertices || pattern.numEdges > target.numEdges) return
    val order = searchOrder(pattern)
    val vmap = new Array[Int](pattern.numVertices)
    java.util.Arrays.fill(vmap, -1)
    val used = new Array[Boolean](target.numVertices)
    var stopped = false

    def place(idx: Int): Unit = {
      if (stopped) return
      if (idx == order.length) {
        if (!visit(vmap.clone())) stopped = true
        return
      }
      val pv = order(idx)
      // Candidates: target neighbors of an already-mapped pattern neighbor
      // (idx >= 1 always has one by construction of the order).
      var anchor = -1
      var anchorEdgeLabel = 0
      pattern.foreachNeighbor(pv) { (w, e) =>
        if (anchor < 0 && vmap(w) >= 0) { anchor = w; anchorEdgeLabel = pattern.edgeLabel(e) }
      }
      val candidates = mutable.ArrayBuffer.empty[Int]
      if (anchor < 0) {
        var t = 0
        while (t < target.numVertices) { candidates += t; t += 1 }
      } else {
        target.foreachNeighbor(vmap(anchor)) { (t, te) =>
          if (target.edgeLabel(te) == anchorEdgeLabel) candidates += t
        }
      }
      var ci = 0
      while (ci < candidates.length && !stopped) {
        val t = candidates(ci)
        if (!used(t) && target.vertexLabel(t) == pattern.vertexLabel(pv) &&
            target.degree(t) >= pattern.degree(pv) && consistent(pv, t)) {
          vmap(pv) = t; used(t) = true
          place(idx + 1)
          vmap(pv) = -1; used(t) = false
        }
        ci += 1
      }
    }

    def consistent(pv: Int, t: Int): Boolean = {
      var ok = true
      pattern.foreachNeighbor(pv) { (w, e) =>
        if (ok && vmap(w) >= 0) {
          val te = target.edgeBetween(t, vmap(w))
          if (te < 0 || target.edgeLabel(te) != pattern.edgeLabel(e)) ok = false
        }
      }
      ok
    }

    place(0)
  }

  def exists(pattern: LabeledGraph, target: LabeledGraph): Boolean = {
    var found = false
    foreachEmbedding(pattern, target) { _ => found = true; false }
    found
  }

  /** Cover set of `pattern` over `target` (Definition 2): the distinct
    * target edge ids imaged by any embedding, ascending.
    */
  def coverSet(pattern: LabeledGraph, target: LabeledGraph): Array[Int] = {
    val covered = new Array[Boolean](target.numEdges)
    foreachEmbedding(pattern, target) { vmap =>
      var e = 0
      while (e < pattern.numEdges) {
        val te = target.edgeBetween(vmap(pattern.src(e)), vmap(pattern.dst(e)))
        covered(te) = true
        e += 1
      }
      true
    }
    val out = mutable.ArrayBuffer.empty[Int]
    var e = 0
    while (e < covered.length) { if (covered(e)) out += e; e += 1 }
    out.toArray
  }
}
