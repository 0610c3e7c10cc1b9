package repro.enumeration

import scala.collection.immutable.ArraySeq
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
  *
  * A node the enumerator makes as a child holds its parent's embeddings
  * and one extension record per embedding instead: the parent embedding's
  * index, the new data vertex (-1 for a backward edge) and the new data
  * edge. `graphIds` and `coverGlobal` read the records; `embeddings` builds
  * the embeddings on first use and then drops the parent's.
  */
final class PatternNode private[enumeration] (
    val code: Vector[CodeEdge],
    val rmPath: List[Int],
    val nVerts: Int,
    private var built: Array[Emb],
    private var parent: Array[Emb],
    private var ext: Array[Int],
) {

  private[enumeration] def this(code: Vector[CodeEdge], rmPath: List[Int], nVerts: Int, embeddings: Array[Emb]) = {
    this(code, rmPath, nVerts, embeddings, null, null)
    require((1 until embeddings.length).forall(i => embeddings(i - 1).graphIdx <= embeddings(i).graphIdx),
      "embeddings must be ordered by graphIdx")
  }

  def numEdges: Int = code.length

  lazy val key: String = DfsCode.key(code)

  /** The embeddings, built from the parent's on first use. */
  def embeddings: Array[Emb] = {
    if (built == null) {
      val n = ext.length / 3
      val out = new Array[Emb](n)
      var k = 0
      while (k < n) {
        val pe = parent(ext(3 * k))
        val w = ext(3 * k + 1)
        val vmap =
          if (w < 0) pe.vmap
          else { val a = java.util.Arrays.copyOf(pe.vmap, nVerts); a(nVerts - 1) = w; a }
        val eids = java.util.Arrays.copyOf(pe.eids, numEdges)
        eids(numEdges - 1) = ext(3 * k + 2)
        out(k) = Emb(pe.graphIdx, vmap, eids)
        k += 1
      }
      built = out
      parent = null
      ext = null
    }
    built
  }

  private def numEmbeddings: Int = if (built != null) built.length else ext.length / 3

  /** Embedding `k`, or before `embeddings` is built, the parent embedding
    * it extends.
    */
  @inline private def embOrParent(k: Int): Emb = if (built != null) built(k) else parent(ext(3 * k))

  /** Distinct database graph indices containing this pattern, ascending. */
  lazy val graphIds: Array[Int] = {
    val n = numEmbeddings
    val out = new Array[Int](n)
    var m = 0
    var k = 0
    while (k < n) {
      val gi = embOrParent(k).graphIdx
      if (m == 0 || out(m - 1) != gi) { out(m) = gi; m += 1 }
      k += 1
    }
    java.util.Arrays.copyOf(out, m)
  }

  def support: Int = graphIds.length

  private var coverCache: Array[Int] = _

  /** Cover set over the whole database as sorted distinct global edge ids:
    * `Cov(p, D) = union over embeddings of their edge images`. Built one
    * graph at a time: its embeddings' local edge ids are marked in a
    * bitset, which is then read out in ascending order and cleared. Both
    * the bitset and the output buffer are the calling thread's scratch;
    * the result is an exact-length copy.
    */
  def coverGlobal(db: GraphDb): Array[Int] = {
    if (coverCache == null) {
      val n = numEmbeddings
      // Before `embeddings` is built, embedding k is a parent embedding
      // plus edge ext(3k + 2).
      val ext = if (built == null) this.ext else null
      val scratch = PatternNode.coverScratch.get
      val out = scratch.out(math.min(n.toLong * numEdges, db.totalEdges.toLong).toInt)
      var m = 0
      var marks = scratch.marks
      var k = 0
      while (k < n) {
        val gi = embOrParent(k).graphIdx
        val off = db.edgeOffset(gi)
        val words = (db.edgeOffset(gi + 1) - off + 63) >>> 6
        if (marks.length < words) { marks = new Array[Long](words); scratch.marks = marks }
        while (k < n && embOrParent(k).graphIdx == gi) {
          val eids = embOrParent(k).eids
          var t = 0
          while (t < eids.length) { marks(eids(t) >>> 6) |= 1L << eids(t); t += 1 }
          if (ext != null) { val e = ext(3 * k + 2); marks(e >>> 6) |= 1L << e }
          k += 1
        }
        var w = 0
        while (w < words) {
          var bits = marks(w)
          marks(w) = 0L
          while (bits != 0L) {
            out(m) = off + (w << 6) + java.lang.Long.numberOfTrailingZeros(bits)
            m += 1
            bits &= bits - 1
          }
          w += 1
        }
      }
      coverCache = java.util.Arrays.copyOf(out, m)
    }
    coverCache
  }

  def coverage(db: GraphDb): Int = coverGlobal(db).length
}

private object PatternNode {
  /** `coverGlobal`'s buffers, reused across calls. One per thread: Spark
    * task threads build covers concurrently.
    */
  final class CoverScratch {
    /** Edge marks of one graph, all zero between uses. */
    var marks = new Array[Long](1)
    private var buf = new Array[Int](64)

    /** The output buffer, grown to at least `n` ints. */
    def out(n: Int): Array[Int] = {
      if (buf.length < n) buf = new Array[Int](math.max(n, 2 * buf.length))
      buf
    }
  }

  val coverScratch: ThreadLocal[CoverScratch] = ThreadLocal.withInitial(() => new CoverScratch)
}

/** Thrown when an enumeration-driven algorithm exceeds its deadline; the
  * harness reports the run as INF like the paper's 10000 s limit.
  */
final class TedTimeout(val elapsedMillis: Long) extends RuntimeException(s"deadline exceeded after $elapsedMillis ms")

/** Database-wide subgraph enumeration by right-most extension with
  * canonical-code duplicate pruning — the substrate of ALL_g/ALL_t (gSpan
  * without support pruning) and FSG_g/FSG_t (with `minSupport`). Not
  * thread-safe: `children` reuses one extension table and takes the lists
  * `childrenKept` left.
  *
  * @param minSupport minimum number of distinct graphs containing a
  *                   pattern (1 = enumerate everything); anti-monotone,
  *                   so pruning below it is exact.
  * @param timeoutMillis time allowed from construction before the search
  *                      throws [[TedTimeout]] (`Long.MaxValue` = none).
  */
final class Enumerator(
    val db: GraphDb,
    val eMax: Int,
    val minSupport: Int = 1,
    timeoutMillis: Long = Long.MaxValue,
) {
  require(eMax >= 1, s"eMax must be at least 1, got $eMax")
  require(minSupport >= 1, s"minSupport must be at least 1, got $minSupport")
  private val startNanos = System.nanoTime()
  /** `startNanos + timeoutMillis` in ns, saturating at `Long.MaxValue`. */
  private val deadlineNanos: Long = {
    val ms = math.max(0L, timeoutMillis)
    val d = if (ms > Long.MaxValue / 1000000L) Long.MaxValue else startNanos + ms * 1000000L
    if (d < startNanos) Long.MaxValue else d
  }
  private val table = new ExtensionTable
  // The children `children` keeps, before the exact-sized copy it returns;
  // cleared after the copy, so that it holds no node alive.
  private var kidBuf = new Array[PatternNode](16)
  private val handedOff = new java.util.IdentityHashMap[PatternNode, IndexedSeq[PatternNode]]

  private def checkDeadline(): Unit =
    if (System.nanoTime() > deadlineNanos)
      throw new TedTimeout((System.nanoTime() - startNanos) / 1000000L)

  /** All 1-edge patterns, in canonical-tuple order; built once. */
  lazy val roots: IndexedSeq[PatternNode] = buildRoots()

  /** The roots' grouping loop, in an ordinary method rather than the lazy
    * val's initializer, where the JIT compiles it poorly. Each record is
    * (graph, first endpoint, edge).
    */
  private def buildRoots(): IndexedSeq[PatternNode] = {
    val t = table
    t.clear()
    var gi = 0
    while (gi < db.numGraphs) {
      val g = db.graphs(gi)
      t.source = gi
      var e = 0
      while (e < g.numEdges) {
        val lu = g.vertexLabel(g.src(e)); val lv = g.vertexLabel(g.dst(e))
        if (lu <= lv) t.extension(0, 1, lu, g.edgeLabel(e), lv, g.src(e), e)
        if (lv <= lu) t.extension(0, 1, lv, g.edgeLabel(e), lu, g.dst(e), e)
        e += 1
      }
      gi += 1
    }
    val order = t.sortedGroups()
    Iterator.range(0, t.numGroups).map { a =>
      val grp = order(a)
      val rec = t.records(grp)
      val embs = Array.tabulate(rec.length / 3) { k =>
        val gi = rec(3 * k); val u = rec(3 * k + 1); val e = rec(3 * k + 2)
        val g = db.graphs(gi)
        Emb(gi, Array(u, g.src(e) + g.dst(e) - u), Array(e))
      }
      new PatternNode(Vector(t.codeEdge(grp)), List(1, 0), 2, embs)
    }.filter(_.support >= minSupport).toIndexedSeq
  }

  /** `children(p)`, also kept for the next `children` call on the same
    * node object, which returns this list and releases it. IPS expands
    * the roots and the nodes it climbs through with this, so the walk that
    * follows reuses those lists and the covers cached on them.
    */
  private[repro] def childrenKept(p: PatternNode): IndexedSeq[PatternNode] = {
    val kids = children(p)
    handedOff.put(p, kids)
    kids
  }

  /** Canonical children of `p`: every right-most extension grouped across
    * embeddings, kept iff its support clears `minSupport` and its code is
    * minimal (gSpan dedup). Both checks run on the grouped extension
    * records, the minimality check on the group's tuple as `Int`s, so a
    * rejected extension allocates nothing. A kept child copies only its
    * records and builds its embeddings when they are read. Does not check
    * `eMax` — callers stop descending at `numEdges == eMax`.
    */
  def children(p: PatternNode): IndexedSeq[PatternNode] = {
    checkDeadline()
    if (!handedOff.isEmpty) {
      val kept = handedOff.remove(p)
      if (kept != null) return kept
    }
    val embs = p.embeddings
    val t = table
    t.clear()
    var k = 0
    while (k < embs.length) {
      val emb = embs(k)
      t.source = k
      RightMost.extend(db.graphs(emb.graphIdx), p.rmPath, p.nVerts, emb.vmap, emb.eids, t)
      k += 1
    }
    val order = t.sortedGroups()
    if (kidBuf.length < t.numGroups) kidBuf = new Array[PatternNode](math.max(t.numGroups, 2 * kidBuf.length))
    var n = 0
    var a = 0
    while (a < t.numGroups) {
      val grp = order(a)
      if ((minSupport <= 1 || t.support(grp, embs) >= minSupport) && t.isMin(grp, p.code, p.rmPath)) {
        val ce = t.codeEdge(grp)
        val rm = if (ce.isForward) DfsCode.extendRmPath(p.rmPath, ce) else p.rmPath
        val nv = if (ce.isForward) p.nVerts + 1 else p.nVerts
        kidBuf(n) = new PatternNode(p.code :+ ce, rm, nv, null, embs, t.records(grp))
        n += 1
      }
      a += 1
    }
    val out = new Array[PatternNode](n)
    System.arraycopy(kidBuf, 0, out, 0, n)
    java.util.Arrays.fill(kidBuf.asInstanceOf[Array[AnyRef]], 0, n, null)
    ArraySeq.unsafeWrapArray(out)
  }

  /** The depth-first walk of the search space that every method runs:
    * `visit` a node; below `eMax` edges, test all its children with
    * `keep(node, child)`, then walk those kept. No node outlives its
    * subtree unless `visit` keeps it. `children` checks the deadline.
    */
  def walk(visit: PatternNode => Unit,
           keep: Option[(PatternNode, PatternNode) => Boolean] = None): Unit =
    roots.foreach(walkFrom(_, visit, keep))

  private def walkFrom(node: PatternNode, visit: PatternNode => Unit,
                       keep: Option[(PatternNode, PatternNode) => Boolean]): Unit = {
    visit(node)
    if (node.numEdges < eMax) {
      val kids = if (keep.isEmpty) children(node) else children(node).filter(keep.get(node, _))
      var i = 0
      while (i < kids.length) { walkFrom(kids(i), visit, keep); i += 1 }
    }
  }
}

/** Extension records grouped by extension tuple, reused across calls, so
  * that nothing is allocated per extension once its buffers have grown.
  *
  * A record is four ints of `recs`: the source index it was tagged with
  * (the parent embedding, or the graph for roots), the new data vertex
  * (-1 for a backward extension), the data edge and the group's next
  * record. A group holds its tuple (five ints of `tuples`) and its records
  * chained in arrival order. Groups are found through an open-addressing
  * table of group index + 1 keyed by the whole tuple, so labels keep their
  * full `Int` range.
  */
private final class ExtensionTable extends RightMost.Sink {
  /** The source index the next records are tagged with. */
  var source = 0

  private var nGroups = 0
  private var tuples = new Array[Int](5 * 16)
  private var heads, tails, sizes, slotOf = new Array[Int](16)
  private var slots = new Array[Int](32)

  private var nRecs = 0
  private var recs = new Array[Int](4 * 256)

  private var order = new Array[Int](16)

  def clear(): Unit = {
    var g = 0
    while (g < nGroups) { slots(slotOf(g)) = 0; g += 1 }
    nGroups = 0
    nRecs = 0
  }

  def extension(i: Int, j: Int, li: Int, le: Int, lj: Int, w: Int, e: Int): Unit = {
    val g = group(i, j, li, le, lj)
    if (4 * nRecs + 4 > recs.length) recs = java.util.Arrays.copyOf(recs, 2 * recs.length)
    val o = 4 * nRecs
    recs(o) = source; recs(o + 1) = w; recs(o + 2) = e; recs(o + 3) = -1
    if (tails(g) < 0) heads(g) = nRecs else recs(4 * tails(g) + 3) = nRecs
    tails(g) = nRecs
    sizes(g) += 1
    nRecs += 1
  }

  private def hash(i: Int, j: Int, li: Int, le: Int, lj: Int): Int = {
    var h = i
    h = h * 0x9E3779B1 + j
    h = h * 0x9E3779B1 + li
    h = h * 0x9E3779B1 + le
    h = h * 0x9E3779B1 + lj
    h ^ (h >>> 15)
  }

  /** The index of the group with this tuple, added if new. */
  private def group(i: Int, j: Int, li: Int, le: Int, lj: Int): Int = {
    val mask = slots.length - 1
    var s = hash(i, j, li, le, lj) & mask
    while (slots(s) != 0) {
      val g = slots(s) - 1
      val o = 5 * g
      if (tuples(o) == i && tuples(o + 1) == j && tuples(o + 2) == li &&
          tuples(o + 3) == le && tuples(o + 4) == lj) return g
      s = (s + 1) & mask
    }
    val g = nGroups
    if (g == heads.length) {
      val n = 2 * g
      tuples = java.util.Arrays.copyOf(tuples, 5 * n)
      heads = java.util.Arrays.copyOf(heads, n); tails = java.util.Arrays.copyOf(tails, n)
      sizes = java.util.Arrays.copyOf(sizes, n); slotOf = java.util.Arrays.copyOf(slotOf, n)
    }
    val o = 5 * g
    tuples(o) = i; tuples(o + 1) = j; tuples(o + 2) = li; tuples(o + 3) = le; tuples(o + 4) = lj
    heads(g) = -1; tails(g) = -1; sizes(g) = 0
    slots(s) = g + 1; slotOf(g) = s
    nGroups += 1
    if (2 * nGroups > slots.length) rehash()
    g
  }

  private def rehash(): Unit = {
    slots = new Array[Int](2 * slots.length)
    val mask = slots.length - 1
    var g = 0
    while (g < nGroups) {
      val o = 5 * g
      var s = hash(tuples(o), tuples(o + 1), tuples(o + 2), tuples(o + 3), tuples(o + 4)) & mask
      while (slots(s) != 0) s = (s + 1) & mask
      slots(s) = g + 1; slotOf(g) = s
      g += 1
    }
  }

  def numGroups: Int = nGroups

  /** Group indices in `CodeEdge.ordering` of their tuples: the first
    * `numGroups` entries of an array reused by the next call.
    */
  def sortedGroups(): Array[Int] = {
    if (order.length < nGroups) order = new Array[Int](heads.length)
    var g = 0
    while (g < nGroups) { order(g) = g; g += 1 }
    var a = 1
    while (a < nGroups) {
      val g = order(a)
      var b = a - 1
      while (b >= 0 && compare(order(b), g) > 0) { order(b + 1) = order(b); b -= 1 }
      order(b + 1) = g
      a += 1
    }
    order
  }

  private def compare(g: Int, h: Int): Int = {
    val x = 5 * g; val y = 5 * h
    CodeEdge.compare(tuples(x), tuples(x + 1), tuples(x + 2), tuples(x + 3), tuples(x + 4),
      tuples(y), tuples(y + 1), tuples(y + 2), tuples(y + 3), tuples(y + 4))
  }

  /** Is `prefix` extended by group `g`'s tuple a minimal DFS code?
    * `rmPath` is the prefix's right-most path.
    */
  def isMin(g: Int, prefix: Vector[CodeEdge], rmPath: List[Int]): Boolean = {
    val o = 5 * g
    CanonicalCode.isMin(prefix, rmPath, tuples(o), tuples(o + 1), tuples(o + 2), tuples(o + 3), tuples(o + 4))
  }

  def codeEdge(g: Int): CodeEdge = {
    val o = 5 * g
    CodeEdge(tuples(o), tuples(o + 1), tuples(o + 2), tuples(o + 3), tuples(o + 4))
  }

  /** Distinct graphs among group `g`'s records, whose sources index
    * `embs` (ordered by graph).
    */
  def support(g: Int, embs: Array[Emb]): Int = {
    var n = 0
    var last = -1
    var r = heads(g)
    while (r >= 0) {
      val gi = embs(recs(4 * r)).graphIdx
      if (gi != last) { n += 1; last = gi }
      r = recs(4 * r + 3)
    }
    n
  }

  /** Group `g`'s records as (source, vertex, edge) triples. */
  def records(g: Int): Array[Int] = {
    val out = new Array[Int](3 * sizes(g))
    var k = 0
    var r = heads(g)
    while (r >= 0) {
      val o = 4 * r
      out(k) = recs(o); out(k + 1) = recs(o + 1); out(k + 2) = recs(o + 2)
      k += 3
      r = recs(o + 3)
    }
    out
  }
}
