package repro.enumeration

import java.util.concurrent.{CountDownLatch, ForkJoinPool}
import java.util.concurrent.atomic.{AtomicInteger, AtomicReference}
import scala.collection.immutable.ArraySeq
import repro.graph._

/** One embedding of a pattern into database graph `graphIdx`:
  * `vmap(p)` = data vertex imaging pattern vertex p, `eids(t)` = data edge
  * id imaging the t-th code edge. Only the view [[PatternNode.embeddings]]
  * and tests build these; the enumerator keeps embeddings as flat rows.
  */
final case class Emb(graphIdx: Int, vmap: Array[Int], eids: Array[Int])

/** A node of the gSpan search space (Figure 5 of the paper): a pattern in
  * canonical (minimum) DFS code form together with every embedding into
  * the database, grouped by graph in ascending graph order (the order the
  * enumerator produces them in). Cover sets (Definition 2) fall out of the
  * embeddings.
  *
  * Embedding k is a row of three `Int` arrays: its graph `graphs(k)`, its
  * vertex map at `vmaps(k * nVerts)` and its edge ids at
  * `eids(k * numEdges)`. No object is made per embedding.
  *
  * A node the enumerator makes as a child holds, until it is built, its
  * parent's three arrays and one extension record per embedding instead:
  * the parent's row, the new data vertex (-1 for a backward edge) and the
  * new data edge. `graphIds` and `coverGlobal` read the records; `build`
  * makes the rows on first use and then drops the parent's arrays.
  */
final class PatternNode private[enumeration] (val code: Vector[CodeEdge], val rmPath: List[Int], val nVerts: Int,
    // The rows, once built.
    private[enumeration] var graphs: Array[Int], private[enumeration] var vmaps: Array[Int], private[enumeration] var eids: Array[Int]) {
  // Until the build: the parent's rows, at strides one edge and, for a
  // forward edge, one vertex below this node's, and the records.
  private var pGraphs, pVmaps, pEids, ext: Array[Int] = _

  /** The child of the built node `parent` by the records `ext`. */
  private[enumeration] def this(code: Vector[CodeEdge], rmPath: List[Int], nVerts: Int, parent: PatternNode, ext: Array[Int]) = {
    this(code, rmPath, nVerts, null, null, null)
    pGraphs = parent.graphs; pVmaps = parent.vmaps; pEids = parent.eids; this.ext = ext
  }

  /** The node of the embeddings `embs`, for tests. */
  private[enumeration] def this(code: Vector[CodeEdge], rmPath: List[Int], nVerts: Int, embs: Array[Emb]) = {
    this(code, rmPath, nVerts, embs.map(_.graphIdx), embs.flatMap(_.vmap), embs.flatMap(_.eids))
    require((1 until graphs.length).forall(k => graphs(k - 1) <= graphs(k)), "embeddings must be ordered by graphIdx")
  }

  def numEdges: Int = code.length

  /** The children list `Enumerator.childrenKept` computed for this node,
    * until `Enumerator.children` takes it.
    */
  private[enumeration] var kept: IndexedSeq[PatternNode] = _

  lazy val key: String = DfsCode.key(code)

  /** Builds the rows from the parent's on first call, in ranges
    * ([[Ranges]]) that fill disjoint slices of them.
    */
  private[enumeration] def build(): Unit = if (ext != null) {
    // The rows fill while the parent's arrays and `ext` still hold what
    // they read.
    val n = ext.length / 3
    graphs = new Array[Int](n); vmaps = new Array[Int](n * nVerts); eids = new Array[Int](n * numEdges)
    try Ranges.run(n, Ranges.Extend, this, PatternNode.buildRange)
    catch { case e: Throwable => graphs = null; vmaps = null; eids = null; throw e }
    pGraphs = null; pVmaps = null; pEids = null; ext = null
  }

  /** Builds rows `[from, until)`: two copies from the parent's row and the
    * record's vertex and edge.
    */
  private def buildRange(from: Int, until: Int): Unit = {
    val graphs = this.graphs
    val vmaps = this.vmaps
    val eids = this.eids
    val ext = this.ext
    val nv = nVerts
    val ne = numEdges
    val pnv = if (code.last.isForward) nv - 1 else nv
    var k = from
    while (k < until) {
      val p = ext(3 * k)
      graphs(k) = pGraphs(p)
      System.arraycopy(pVmaps, p * pnv, vmaps, k * nv, pnv)
      if (pnv < nv) vmaps(k * nv + pnv) = ext(3 * k + 1)
      System.arraycopy(pEids, p * (ne - 1), eids, k * ne, ne - 1)
      eids(k * ne + ne - 1) = ext(3 * k + 2)
      k += 1
    }
  }

  private var view: Array[Emb] = _

  /** The embeddings as [[Emb]]s, copied from the rows on first read and
    * then cached. The search reads the rows, never this view.
    */
  def embeddings: Array[Emb] = {
    if (view == null) {
      build()
      view = Array.tabulate(graphs.length)(k => Emb(graphs(k), java.util.Arrays.copyOfRange(vmaps, k * nVerts, (k + 1) * nVerts),
        java.util.Arrays.copyOfRange(eids, k * numEdges, (k + 1) * numEdges)))
    }
    view
  }

  private def numEmbeddings: Int = if (ext == null) graphs.length else ext.length / 3

  /** The graph of embedding `k`, built or not. */
  @inline private def graphOf(k: Int): Int = if (ext == null) graphs(k) else pGraphs(ext(3 * k))

  /** The first embedding index at or after `k` that starts a graph's run
    * of embeddings (0 and `numEmbeddings` count as starts).
    */
  private def graphStart(k: Int): Int = {
    val n = numEmbeddings
    if (k == 0 || k >= n) return math.min(k, n)
    val g = graphOf(k - 1)
    if (graphOf(k) != g) return k
    // The first index in (k, n] whose graph is past g.
    var lo = k
    var hi = n
    while (hi - lo > 1) {
      val mid = (lo + hi) >>> 1
      if (graphOf(mid) == g) lo = mid else hi = mid
    }
    hi
  }

  /** Distinct database graph indices containing this pattern, ascending.
    * Built in ranges ([[Ranges]]): each writes the distinct graphs of its
    * slice of the embeddings to the same slice of the calling thread's
    * buffer, and the slices are joined in range order, each dropping its
    * first id when it equals the previous one's last.
    */
  lazy val graphIds: Array[Int] = {
    val s = PatternNode.scratch.get
    s.grow(numEmbeddings)
    s.joined(s.run(this, null, numEmbeddings, PatternNode.graphIdsRange))
  }

  /** Writes the distinct graphs of embeddings `[from, until)` to
    * `s.buf` from index `from`.
    */
  private def graphIdsRange(s: PatternNode.Scratch, r: Int, from: Int, until: Int): Unit = {
    val out = s.buf
    var m = from
    var last = -1
    var k = from
    while (k < until) {
      val gi = graphOf(k)
      if (gi != last) { out(m) = gi; m += 1; last = gi }
      k += 1
    }
    s.slice(r, from, m - from)
  }

  def support: Int = graphIds.length

  private var coverCache: Array[Int] = _

  /** Cover set over the whole database as sorted distinct global edge ids:
    * `Cov(p, D) = union over embeddings of their edge images`. Built in
    * ranges ([[Ranges]]) whose ends move forward to the next graph's first
    * embedding, so that no graph spans two ranges. A range takes its
    * graphs one at a time: their embeddings' local edge ids are marked in
    * the bitset of the thread running the range, which is then read out in
    * ascending order and cleared. The range writes its edges to the calling
    * thread's output buffer, from the edge offset of its first graph less
    * that of embedding 0's, a slice no other range reaches. The slices are
    * joined in range order into an exact-length array.
    */
  def coverGlobal(db: GraphDb): Array[Int] = {
    if (coverCache == null) {
      val n = numEmbeddings
      val s = PatternNode.scratch.get
      // The edges of the graphs from embedding 0's to the last one's, which
      // hold every range's output.
      val span = if (n == 0) 0 else db.edgeOffset(graphOf(n - 1) + 1) - db.edgeOffset(graphOf(0))
      s.grow(span)
      coverCache = s.joined(s.run(this, db, n, PatternNode.coverRange))
    }
    coverCache
  }

  /** Writes the cover of the graphs whose embeddings start in
    * `[from, until)` to `s.buf`.
    */
  private def coverRange(s: PatternNode.Scratch, r: Int, from0: Int, until0: Int): Unit = {
    val db = s.db
    val out = s.buf
    val until = graphStart(until0)
    var k = graphStart(from0)
    val start = if (k < until) db.edgeOffset(graphOf(k)) - db.edgeOffset(graphOf(0)) else 0
    // Before the build, embedding k is the parent's row ext(3k) plus edge
    // ext(3k + 2).
    val ext = this.ext
    val rows = if (ext == null) eids else pEids
    val ne = if (ext == null) numEdges else numEdges - 1
    val own = PatternNode.scratch.get
    var marks = own.marks
    var m = start
    while (k < until) {
      val gi = graphOf(k)
      val off = db.edgeOffset(gi)
      val words = (db.edgeOffset(gi + 1) - off + 63) >>> 6
      if (marks.length < words) { marks = new Array[Long](words); own.marks = marks }
      while (k < until && graphOf(k) == gi) {
        var t = (if (ext == null) k else ext(3 * k)) * ne
        val end = t + ne
        while (t < end) { val e = rows(t); marks(e >>> 6) |= 1L << e; t += 1 }
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
    s.slice(r, start, m - start)
  }

  def coverage(db: GraphDb): Int = coverGlobal(db).length
}

private object PatternNode {
  val buildRange: Ranges.Loop[PatternNode] = (p, _, from, until) => p.buildRange(from, until)
  val graphIdsRange: Ranges.Loop[Scratch] = (s, r, from, until) => s.node.graphIdsRange(s, r, from, until)
  val coverRange: Ranges.Loop[Scratch] = (s, r, from, until) => s.node.coverRange(s, r, from, until)

  /** The buffers of `graphIds` and `coverGlobal`, reused across calls. One
    * per thread: Spark task threads build covers at once. `marks` is used
    * by the ranges this thread runs, for any caller; the rest by the ranges
    * of this thread's own calls, wherever they run.
    */
  final class Scratch {
    /** Edge marks of one graph, all zero between uses. */
    var marks = new Array[Long](1)

    /** The output buffer, of the calling thread's calls. */
    var buf = new Array[Int](64)

    /** The node and database of the call in progress. */
    var node: PatternNode = _
    var db: GraphDb = _

    /** Per range, where its output starts in `buf` and its length. */
    private val slices = new Array[Int](2 * Ranges.max)

    /** Grows `buf` to at least `n` ints. */
    def grow(n: Int): Unit = if (buf.length < n) buf = new Array[Int](math.max(n, 2 * buf.length))

    def slice(r: Int, start: Int, length: Int): Unit = { slices(2 * r) = start; slices(2 * r + 1) = length }

    /** The slices of ranges `[0, count)`, range 0's at index 0, joined in
      * range order into an exact-length array. Each slice drops its first
      * value when it equals the last one kept: a graph whose embeddings
      * two graph-id ranges share. Cover slices hold disjoint graphs, so
      * they never drop one.
      */
    def joined(count: Int): Array[Int] = {
      var m = slices(1)
      var r = 1
      while (r < count) {
        var from = slices(2 * r)
        var len = slices(2 * r + 1)
        if (len > 0 && m > 0 && buf(from) == buf(m - 1)) { from += 1; len -= 1 }
        System.arraycopy(buf, from, buf, m, len)
        m += len
        r += 1
      }
      java.util.Arrays.copyOf(buf, m)
    }

    /** Runs `loop` over `[0, n)` for `node` in ranges of scan items. */
    def run(node: PatternNode, db: GraphDb, n: Int, loop: Ranges.Loop[Scratch]): Int = {
      this.node = node
      this.db = db
      try Ranges.run(n, Ranges.Scan, this, loop)
      finally { this.node = null; this.db = null }
    }
  }

  val scratch: ThreadLocal[Scratch] = ThreadLocal.withInitial(() => new Scratch)
}

/** Thrown when an enumeration-driven algorithm exceeds its deadline; the
  * harness reports the run as INF like the paper's 10000 s limit.
  */
final class TedTimeout(val elapsedMillis: Long) extends RuntimeException(s"deadline exceeded after $elapsedMillis ms")

/** Database-wide subgraph enumeration by right-most extension with
  * canonical-code duplicate pruning — the substrate of ALL_g/ALL_t (gSpan
  * without support pruning) and FSG_g/FSG_t (with `minSupport`).
  *
  * The loops whose cost grows with a node's embeddings run in ranges at
  * once, cut by the work they hold ([[Ranges]]): the roots' edge pass and
  * embeddings, `children`'s extension pass, the build of a child's
  * embeddings, and each node's `graphIds` and `coverGlobal`. Each
  * extension range fills its own table, and the tables are merged in range
  * order, so every result equals the one-range loop's. The tables are the
  * calling thread's, reused across calls, so enumerators on different
  * threads share nothing. Not
  * thread-safe: `children` reuses one buffer for the children it keeps,
  * and hands IPS's lists over through the nodes.
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
  // The children `children` keeps, before the exact-sized copy it returns;
  // cleared after the copy, so that it holds no node alive.
  private var kidBuf = new Array[PatternNode](16)

  // The node `children` is extending, for its extension ranges.
  private[enumeration] var expanding: PatternNode = _
  private val extendRange: ExtensionTable.Loop = (t, from, until) => {
    val p = expanding
    val pGraphs = p.graphs
    val vmaps = p.vmaps
    val eids = p.eids
    val rmPath = p.rmPath
    val nv = p.nVerts
    val ne = p.numEdges
    val graphs = db.graphs
    var k = from
    while (k < until) {
      t.source = k
      RightMost.extend(graphs(pGraphs(k)), rmPath, nv, vmaps, k * nv, eids, k * ne, ne, t)
      k += 1
    }
  }

  private def checkDeadline(): Unit =
    if (System.nanoTime() > deadlineNanos)
      throw new TedTimeout((System.nanoTime() - startNanos) / 1000000L)

  /** All 1-edge patterns, in canonical-tuple order; built once. */
  lazy val roots: IndexedSeq[PatternNode] = buildRoots()

  /** The roots' grouping loop, in an ordinary method rather than the lazy
    * val's initializer, where the JIT compiles it poorly. It runs in
    * ranges of global edge ids, and each root's rows are built in ranges
    * of its records. Each record is (graph, first endpoint, edge).
    */
  private def buildRoots(): IndexedSeq[PatternNode] = {
    val t = ExtensionTable.fill(db.totalEdges, (t, from, until) => {
      var ge = from
      while (ge < until) {
        val gi = db.graphOfEdge(ge)
        val g = db.graphs(gi)
        val off = db.edgeOffset(gi)
        val end = math.min(until, db.edgeOffset(gi + 1))
        t.source = gi
        while (ge < end) {
          val e = ge - off
          val lu = g.vertexLabel(g.src(e)); val lv = g.vertexLabel(g.dst(e))
          if (lu <= lv) t.extension(0, 1, lu, g.edgeLabel(e), lv, g.src(e), e)
          if (lv <= lu) t.extension(0, 1, lv, g.edgeLabel(e), lu, g.dst(e), e)
          ge += 1
        }
      }
    })
    val order = t.sortedGroups()
    Iterator.range(0, t.numGroups).map { a =>
      val grp = order(a)
      val rec = t.records(grp)
      val n = rec.length / 3
      val (graphs, vmaps, eids) = (new Array[Int](n), new Array[Int](2 * n), new Array[Int](n))
      Ranges.run[Unit](n, Ranges.Extend, (), (_, _, from, until) => {
        var k = from
        while (k < until) {
          val gi = rec(3 * k); val u = rec(3 * k + 1); val e = rec(3 * k + 2)
          val g = db.graphs(gi)
          graphs(k) = gi; vmaps(2 * k) = u; vmaps(2 * k + 1) = g.src(e) + g.dst(e) - u; eids(k) = e
          k += 1
        }
      })
      new PatternNode(Vector(t.codeEdge(grp)), List(1, 0), 2, graphs, vmaps, eids)
    }.filter(_.support >= minSupport).toIndexedSeq
  }

  /** `children(p)`, also kept on `p` for the next `children` call on the
    * same node object, which returns this list and releases it. IPS
    * expands the roots and the nodes it climbs through with this, so the
    * walk that follows reuses those lists and the covers cached on them.
    */
  private[repro] def childrenKept(p: PatternNode): IndexedSeq[PatternNode] = {
    val kids = children(p)
    p.kept = kids
    kids
  }

  /** Canonical children of `p`: every right-most extension grouped across
    * embeddings, kept iff its support clears `minSupport` and its code is
    * minimal (gSpan dedup). Both checks run on the grouped extension
    * records, the minimality check on the group's tuple as `Int`s, so a
    * rejected extension allocates nothing. A kept child copies only its
    * records and builds its rows when they are read. Does not check
    * `eMax` — callers stop descending at `numEdges == eMax`.
    */
  def children(p: PatternNode): IndexedSeq[PatternNode] = {
    checkDeadline()
    val kept = p.kept
    if (kept != null) { p.kept = null; return kept }
    p.build()
    expanding = p
    val t = try ExtensionTable.fill(p.graphs.length, extendRange) finally expanding = null
    val order = t.sortedGroups()
    if (kidBuf.length < t.numGroups) kidBuf = new Array[PatternNode](math.max(t.numGroups, 2 * kidBuf.length))
    var n = 0
    var a = 0
    while (a < t.numGroups) {
      val grp = order(a)
      if ((minSupport <= 1 || t.support(grp, p.graphs) >= minSupport) && t.isMin(grp, p.code, p.rmPath)) {
        val ce = t.codeEdge(grp)
        val rm = if (ce.isForward) DfsCode.extendRmPath(p.rmPath, ce) else p.rmPath
        val nv = if (ce.isForward) p.nVerts + 1 else p.nVerts
        kidBuf(n) = new PatternNode(p.code :+ ce, rm, nv, p, t.records(grp))
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

/** Runs a loop over `[0, n)` cut into contiguous ranges, at once on the
  * calling thread and the common fork-join pool. The rule cuts by the work
  * a loop holds: `n` items of `cost` sixteenths of an extension each (an
  * extension or embedding build costs [[Extend]], a graph-id or cover item
  * [[Scan]]), one range per [[MinWork]], at most [[max]], at least one.
  * Below `2 * MinWork` the one range is the whole loop on the caller.
  *
  * The caller claims ranges from a shared counter as the pool tasks do,
  * and waits only when none is left to claim, so it never waits on a range
  * that nobody has started: a saturated pool, or a caller that is itself a
  * pool worker or a Spark task, still finishes.
  */
private[enumeration] object Ranges {
  /** The items `[from, until)` of range `r`, with the call's context `a`.
    * A loop takes its context as an argument rather than capturing it, so
    * that a call allocates nothing when it runs one range.
    */
  trait Loop[A] {
    def apply(a: A, r: Int, from: Int, until: Int): Unit
  }

  /** The cost of one item of a loop that extends or builds an embedding. */
  val Extend = 16

  /** The cost of one item of the graph-id or cover pass, which reads an
    * embedding's graph or marks its few edges.
    */
  val Scan = 1

  /** The least work worth a range of its own: 512 extension items. */
  val MinWork = 512 * Extend

  /** The most ranges with a common pool of `parallelism` workers on `cpus`
    * processors: one per worker and one for the caller, but no more than
    * the processors, at least one.
    */
  def maxRanges(parallelism: Int, cpus: Int): Int = math.max(1, math.min(parallelism + 1, cpus))

  val max: Int = maxRanges(ForkJoinPool.getCommonPoolParallelism, Runtime.getRuntime.availableProcessors)

  /** The number of ranges `run(n, cost)` cuts `[0, n)` into. */
  def count(n: Int, cost: Int): Int = math.max(1, math.min(n.toLong * cost / MinWork, max.toLong).toInt)

  /** The first item of range `r` of `count` over `[0, n)`. */
  def start(n: Int, count: Int, r: Int): Int = (n.toLong * r / count).toInt

  /** Runs `loop(a, r, from, until)` for each range r of `[0, n)`, and
    * returns the number of ranges once every one has ended. The first
    * exception a range throws is rethrown here.
    */
  def run[A](n: Int, cost: Int, a: A, loop: Loop[A]): Int = {
    val count = this.count(n, cost)
    if (count == 1) loop(a, 0, 0, n)
    else {
      val job = new Job(n, count, a, loop)
      var h = 1
      while (h < count) { ForkJoinPool.commonPool.execute(job); h += 1 }
      job.run()
      job.await()
    }
    count
  }

  private final class Job[A](n: Int, count: Int, a: A, loop: Loop[A]) extends Runnable {
    private val next = new AtomicInteger
    private val done = new CountDownLatch(count)
    private val failure = new AtomicReference[Throwable]

    /** Claims and runs ranges until none is left. */
    def run(): Unit = {
      var r = next.getAndIncrement()
      while (r < count) {
        try loop(a, r, start(n, count, r), start(n, count, r + 1))
        catch { case e: Throwable => failure.compareAndSet(null, e) }
        finally done.countDown()
        r = next.getAndIncrement()
      }
    }

    /** Waits for every range, through interrupts: the ranges write buffers
      * that the caller reuses once this returns.
      */
    def await(): Unit = {
      var interrupted = false
      while (done.getCount > 0)
        try done.await() catch { case _: InterruptedException => interrupted = true }
      if (interrupted) Thread.currentThread.interrupt()
      val e = failure.get
      if (e != null) throw e
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

  /** Appends `o`'s records after this table's: each of `o`'s chains is
    * linked after the chain of the group with its tuple, added if new. The
    * records are copied in one block with their links shifted; one lookup
    * per group of `o`, none per record.
    */
  def appendFrom(o: ExtensionTable): Unit = {
    val base = nRecs
    nRecs += o.nRecs
    if (4 * nRecs > recs.length) recs = java.util.Arrays.copyOf(recs, math.max(4 * nRecs, 2 * recs.length))
    System.arraycopy(o.recs, 0, recs, 4 * base, 4 * o.nRecs)
    var r = base
    while (r < nRecs) { val x = 4 * r + 3; if (recs(x) >= 0) recs(x) += base; r += 1 }
    var h = 0
    while (h < o.nGroups) {
      val x = 5 * h
      val g = group(o.tuples(x), o.tuples(x + 1), o.tuples(x + 2), o.tuples(x + 3), o.tuples(x + 4))
      val head = o.heads(h) + base
      if (tails(g) < 0) heads(g) = head else recs(4 * tails(g) + 3) = head
      tails(g) = o.tails(h) + base
      sizes(g) += o.sizes(h)
      h += 1
    }
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
    * `graphs` (ascending).
    */
  def support(g: Int, graphs: Array[Int]): Int = {
    var n = 0
    var last = -1
    var r = heads(g)
    while (r >= 0) {
      val gi = graphs(recs(4 * r))
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

private object ExtensionTable {
  /** Records the extensions of items `[from, until)` into `t`. */
  trait Loop {
    def apply(t: ExtensionTable, from: Int, until: Int): Unit
  }

  /** A thread's tables, one per range, and the loop its `fill` runs. */
  private final class Tables {
    val tables: Array[ExtensionTable] = Array.fill(Ranges.max)(new ExtensionTable)
    var loop: Loop = _
  }

  private val perThread: ThreadLocal[Tables] = ThreadLocal.withInitial(() => new Tables)

  private val fillRange: Ranges.Loop[Tables] = (ts, r, from, until) => {
    val t = ts.tables(r)
    t.clear()
    ts.loop(t, from, until)
  }

  /** The calling thread's tables, one per range, reused across calls.
    * They belong to the thread that calls `fill`, never to the pool worker
    * that fills one: a worker may next serve another thread's call.
    */
  def tables: Array[ExtensionTable] = perThread.get.tables

  /** Runs `loop(table, from, until)` over `[0, n)` with `Ranges.run`, each
    * range into its own cleared table, and returns the first table with the
    * others appended in range order. So each group's records come in
    * ascending item order, as from one range over `[0, n)`. Valid until
    * the calling thread's next `fill`.
    */
  def fill(n: Int, loop: Loop): ExtensionTable = {
    val ts = perThread.get
    ts.loop = loop
    val count = try Ranges.run(n, Ranges.Extend, ts, fillRange) finally ts.loop = null
    val t = ts.tables
    var r = 1
    while (r < count) { t(0).appendFrom(t(r)); r += 1 }
    t(0)
  }
}
