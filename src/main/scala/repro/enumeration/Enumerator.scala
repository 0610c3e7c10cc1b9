package repro.enumeration

import scala.collection.mutable
import repro.graph._

/** One embedding of a pattern into database graph `graphIdx`:
  * `vmap(p)` = data vertex imaging pattern vertex p, `eids(t)` = data edge
  * id imaging the t-th code edge.
  */
final case class Emb(graphIdx: Int, vmap: Array[Int], eids: Array[Int])

/** A node of the gSpan search space (Figure 5 of the paper): a pattern in
  * canonical (minimum) DFS code form together with every embedding into
  * the database, grouped by graph in ascending `graphIdx` order (the order
  * the enumerator produces them in). Cover sets (Definition 2) fall out of
  * the embeddings.
  */
final class PatternNode(
    val code: Vector[CodeEdge],
    val rmPath: List[Int],
    val nVerts: Int,
    val embeddings: Array[Emb],
) {
  require((1 until embeddings.length).forall(i => embeddings(i - 1).graphIdx <= embeddings(i).graphIdx),
    "embeddings must be ordered by graphIdx")

  def numEdges: Int = code.length

  lazy val key: String = DfsCode.key(code)

  lazy val graph: LabeledGraph = DfsCode.toGraph(code)

  /** Distinct database graph indices containing this pattern, ascending. */
  lazy val graphIds: Array[Int] = {
    val out = new Array[Int](embeddings.length)
    var n = 0
    embeddings.foreach { e =>
      if (n == 0 || out(n - 1) != e.graphIdx) { out(n) = e.graphIdx; n += 1 }
    }
    java.util.Arrays.copyOf(out, n)
  }

  def support: Int = graphIds.length

  private var coverCache: Array[Int] = _

  /** Cover set over the whole database as sorted distinct global edge ids:
    * `Cov(p, D) = union over embeddings of their edge images`. Built one
    * graph at a time: its embeddings' local edge ids are marked in a
    * bitset, which is then read out in ascending order and cleared.
    */
  def coverGlobal(db: GraphDb): Array[Int] = {
    if (coverCache == null) {
      var total = 0
      embeddings.foreach(total += _.eids.length)
      val out = new Array[Int](math.min(total, db.totalEdges))
      var n = 0
      var marks = new Array[Long](1)
      var i = 0
      while (i < embeddings.length) {
        val gi = embeddings(i).graphIdx
        val off = db.edgeOffset(gi)
        val words = (db.edgeOffset(gi + 1) - off + 63) >>> 6
        if (marks.length < words) marks = new Array[Long](words)
        while (i < embeddings.length && embeddings(i).graphIdx == gi) {
          val eids = embeddings(i).eids
          var t = 0
          while (t < eids.length) { marks(eids(t) >>> 6) |= 1L << eids(t); t += 1 }
          i += 1
        }
        var w = 0
        while (w < words) {
          var bits = marks(w)
          marks(w) = 0L
          while (bits != 0L) {
            out(n) = off + (w << 6) + java.lang.Long.numberOfTrailingZeros(bits)
            n += 1
            bits &= bits - 1
          }
          w += 1
        }
      }
      coverCache = if (n == out.length) out else java.util.Arrays.copyOf(out, n)
    }
    coverCache
  }

  def coverage(db: GraphDb): Int = coverGlobal(db).length
}

/** Thrown when an enumeration-driven algorithm exceeds its deadline; the
  * harness reports the run as INF like the paper's 10000 s limit.
  */
final class TedTimeout(val elapsedMillis: Long) extends RuntimeException(s"deadline exceeded after $elapsedMillis ms")

/** Database-wide subgraph enumeration by right-most extension with
  * canonical-code duplicate pruning — the substrate of ALL_g/ALL_t (gSpan
  * without support pruning) and FSG_g/FSG_t (with `minSupport`).
  *
  * @param minSupport minimum number of distinct graphs containing a
  *                   pattern (1 = enumerate everything); anti-monotone,
  *                   so pruning below it is exact.
  */
final class Enumerator(
    val db: GraphDb,
    val eMax: Int,
    val minSupport: Int = 1,
    val deadlineNanos: Long = Long.MaxValue,
) {
  private val startNanos = System.nanoTime()

  def checkDeadline(): Unit =
    if (System.nanoTime() > deadlineNanos)
      throw new TedTimeout((System.nanoTime() - startNanos) / 1000000L)

  /** All 1-edge patterns, in canonical-tuple order. */
  def roots: IndexedSeq[PatternNode] = {
    val byTuple = mutable.Map.empty[CodeEdge, mutable.ArrayBuffer[Emb]]
    var gi = 0
    while (gi < db.numGraphs) {
      val g = db.graphs(gi)
      var e = 0
      while (e < g.numEdges) {
        var o = 0
        while (o < 2) {
          val u = if (o == 0) g.src(e) else g.dst(e)
          val v = if (o == 0) g.dst(e) else g.src(e)
          val lu = g.vertexLabel(u); val lv = g.vertexLabel(v)
          if (lu <= lv) {
            val ce = CodeEdge(0, 1, lu, g.edgeLabel(e), lv)
            byTuple.getOrElseUpdate(ce, mutable.ArrayBuffer.empty) +=
              Emb(gi, Array(u, v), Array(e))
          }
          o += 1
        }
        e += 1
      }
      gi += 1
    }
    byTuple.toIndexedSeq
      .sortBy(_._1)(CodeEdge.ordering)
      .map { case (ce, embs) => new PatternNode(Vector(ce), List(1, 0), 2, embs.toArray) }
      .filter(_.support >= minSupport)
  }

  /** Canonical children of `p`: every right-most extension grouped across
    * embeddings, kept iff its code is minimal (gSpan dedup) and its
    * support clears `minSupport`. Does not check `eMax` — callers stop
    * descending at `numEdges == eMax`.
    */
  def children(p: PatternNode): IndexedSeq[PatternNode] = {
    checkDeadline()
    val byExt = mutable.Map.empty[CodeEdge, mutable.ArrayBuffer[Emb]]
    p.embeddings.foreach { emb =>
      val g = db.graphs(emb.graphIdx)
      RightMost.foreachExtension(g, p.rmPath, p.nVerts, emb.vmap, emb.eids) { (ce, w, eid) =>
        val nv = if (w >= 0) emb.vmap :+ w else emb.vmap
        byExt.getOrElseUpdate(ce, mutable.ArrayBuffer.empty) +=
          Emb(emb.graphIdx, nv, emb.eids :+ eid)
      }
    }
    byExt.toIndexedSeq
      .sortBy(_._1)(CodeEdge.ordering)
      .flatMap { case (ce, embs) =>
        val code = p.code :+ ce
        if (!CanonicalCode.isMin(code)) None
        else {
          val rm = if (ce.isForward) DfsCode.extendRmPath(p.rmPath, ce) else p.rmPath
          val nv = if (ce.isForward) p.nVerts + 1 else p.nVerts
          val node = new PatternNode(code, rm, nv, embs.toArray)
          if (node.support >= minSupport) Some(node) else None
        }
      }
  }

  /** Depth-first traversal of the whole (support-pruned) search space up
    * to `eMax` edges. `visit` returns false to prune the subtree below a
    * node (used by TED_PRM).
    */
  def traverse(visit: PatternNode => Boolean): Unit =
    roots.foreach(r => traverseFrom(r, visit))

  private def traverseFrom(node: PatternNode, visit: PatternNode => Boolean): Unit = {
    checkDeadline()
    if (visit(node) && node.numEdges < eMax)
      children(node).foreach(c => traverseFrom(c, visit))
  }

  /** Collect every pattern (the memory-hungry baseline path). */
  def collectAll(): IndexedSeq[PatternNode] = {
    val buf = mutable.ArrayBuffer.empty[PatternNode]
    traverse { n => buf += n; true }
    buf.toIndexedSeq
  }
}
