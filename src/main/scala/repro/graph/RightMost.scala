package repro.graph

/** gSpan right-most extension (Definition 6 of the paper) of a pattern's
  * embedding into a data graph, for the database enumerator. The
  * canonical-form kernel below applies the same rule to self-embeddings on
  * flat arrays.
  */
object RightMost {

  /** Receives right-most extensions as unpacked tuples `(i, j, li, le,
    * lj)`, with the new data vertex (-1 for a backward extension) and the
    * data edge id; nothing is allocated per extension.
    */
  trait Sink {
    def extension(i: Int, j: Int, li: Int, le: Int, lj: Int, w: Int, e: Int): Unit
  }

  /** Does `a(from until until)` hold `x`? */
  @inline private def holds(a: Array[Int], from: Int, until: Int, x: Int): Boolean = {
    var i = from
    while (i < until) { if (a(i) == x) return true; i += 1 }
    false
  }

  /** Enumerate every right-most extension of one embedding into `sink`.
    *
    * @param g      data graph the embedding maps into
    * @param rmPath right-most path of the pattern, head = right-most vertex
    * @param nVerts number of pattern vertices
    * @param vmap   pattern vertex -> data vertex (injective)
    * @param eids   data edge ids imaging the code edges, in code order
    *
    * Backward extensions run from the right-most vertex to a vertex on the
    * right-most path whose connecting data edge is not yet part of the
    * embedding (vertex maps are injective, so a data edge can only image
    * the one pattern edge between its endpoints' preimages); they come
    * first, nearest the right-most vertex first. Forward extensions run
    * from any right-most-path vertex, right-most first, to an unmapped data
    * neighbor in adjacency order, introducing pattern vertex `nVerts`.
    */
  def extend(g: LabeledGraph, rmPath: List[Int], nVerts: Int, vmap: Array[Int], eids: Array[Int],
             sink: Sink): Unit =
    extend(g, rmPath, nVerts, vmap, 0, eids, 0, eids.length, sink)

  /** [[extend]] of the embedding in a row of flat arrays: its vertex map
    * is `vmaps(vOff until vOff + nVerts)`, its edge ids
    * `eids(eOff until eOff + nEdges)`.
    */
  def extend(g: LabeledGraph, rmPath: List[Int], nVerts: Int, vmaps: Array[Int], vOff: Int,
             eids: Array[Int], eOff: Int, nEdges: Int, sink: Sink): Unit = {
    val vl = g.vertexLabels
    val el = g.edgeLabels
    val r  = rmPath.head
    val fr = vmaps(vOff + r)
    var xs = rmPath.tail
    while (xs.nonEmpty) {
      val x = xs.head
      val e = g.edgeBetween(fr, vmaps(vOff + x))
      if (e >= 0 && !holds(eids, eOff, eOff + nEdges, e)) sink.extension(r, x, vl(fr), el(e), vl(vmaps(vOff + x)), -1, e)
      xs = xs.tail
    }
    xs = rmPath
    while (xs.nonEmpty) {
      val x  = xs.head
      val fx = vmaps(vOff + x)
      var a = g.adjStart(fx)
      val end = g.adjStart(fx + 1)
      while (a < end) {
        val w = g.adjVert(a)
        if (!holds(vmaps, vOff, vOff + nVerts, w)) {
          val e = g.adjEdge(a)
          sink.extension(x, nVerts, vl(fx), el(e), vl(w), w, e)
        }
        a += 1
      }
      xs = xs.tail
    }
  }

  /** [[extend]] with each extension as a [[CodeEdge]]: callback
    * (codeEdge, newDataVertex or -1 for backward, dataEdgeId).
    */
  def foreachExtension(
      g: LabeledGraph,
      rmPath: List[Int],
      nVerts: Int,
      vmap: Array[Int],
      eids: Array[Int],
  )(f: (CodeEdge, Int, Int) => Unit): Unit =
    extend(g, rmPath, nVerts, vmap, eids,
      (i, j, li, le, lj, w, e) => f(CodeEdge(i, j, li, le, lj), w, e))
}

/** gSpan canonical form: the minimum DFS code of a connected graph, and
  * gSpan's `is_min` duplicate test, both run by one projection kernel
  * (`Projector`). The kernel keeps every self-embedding (projection)
  * consistent with the minimal prefix and takes the globally minimal next
  * extension. Backward extensions always precede forward ones in the tuple
  * order, so no back edge is ever skipped and the construction never
  * dead-ends.
  */
object CanonicalCode {

  // One reusable kernel per thread: searches run on concurrent Spark task
  // threads, and a kernel's buffers outlive the call.
  private val kernel = ThreadLocal.withInitial[Projector](() => new Projector)

  def minCodeOf(g: LabeledGraph): Vector[CodeEdge] = {
    require(g.numEdges >= 1, "canonical code of an edgeless graph is undefined")
    val k = kernel.get
    k.load(g)
    val built = k.run(check = false)
    assert(built, s"min-code construction dead-ended on $g")
    k.code
  }

  /** gSpan duplicate-pruning test: is `code` its pattern's canonical form?
    * The tuple entry below on `code.last`, with the right-most path of
    * `code.init` folded from its forward edges. A code that is no valid DFS
    * code of its pattern (unlabeled or inconsistently labeled vertex, self
    * loop, tuple no right-most extension) is not minimal.
    */
  def isMin(code: Vector[CodeEdge]): Boolean = {
    val prefix = code.init
    val rmPath = prefix.drop(1).foldLeft(List(1, 0)) { (rm, ce) =>
      if (ce.isForward) DfsCode.extendRmPath(rm, ce) else rm
    }
    val ce = code.last
    isMin(prefix, rmPath, ce.i, ce.j, ce.li, ce.le, ce.lj)
  }

  /** `isMin(prefix :+ CodeEdge(i, j, li, le, lj))`, with the extension as
    * unpacked `Int`s and `rmPath` the prefix's right-most path (head =
    * right-most vertex). Before the kernel runs, gSpan's necessary
    * conditions ([[passesPreChecks]]) reject many non-minimal codes
    * without loading it. The kernel then runs the min-code construction
    * against the code and stops at the first extension smaller than the
    * code's own tuple.
    */
  def isMin(prefix: Vector[CodeEdge], rmPath: List[Int], i: Int, j: Int, li: Int, le: Int, lj: Int): Boolean =
    if (prefix.isEmpty) li <= lj
    else if (!passesPreChecks(prefix, rmPath, i, j, li, le, lj)) false
    else {
      val k = kernel.get
      k.load(prefix, i, j, li, le, lj) && k.run(check = true)
    }

  /** gSpan's cheap minimality conditions on the extension (i, j, li, le,
    * lj) of `prefix`. Each one names a smaller DFS code of the same
    * pattern, so it rejects only codes that the kernel rejects, and the
    * kernel's answer decides the rest:
    *  - R1: either orientation of the new edge, as a first tuple
    *    (0, 1, ...), is below `prefix(0)`; the kernel fails at step 0.
    *  - R2: a backward edge r -> x from the right-most vertex r, whose
    *    (le, li) is below (le1, l_y) of the forward right-most-path edge
    *    x -> y. At that edge's step the new edge, walked forward from x to
    *    the still unvisited r, is a smaller tuple.
    *  - R3: a forward edge x -> w from a right-most-path vertex x other
    *    than r, whose (le, lj) is below (le1, l_y) of the same edge
    *    x -> y. The new edge, walked at that step, is again smaller.
    * An equal pair decides nothing and is kept.
    */
  private[graph] def passesPreChecks(prefix: Vector[CodeEdge], rmPath: List[Int],
                                     i: Int, j: Int, li: Int, le: Int, lj: Int): Boolean = {
    val first = prefix(0)
    if (labelsBelow(li, le, lj, first) || labelsBelow(lj, le, li, first)) return false
    // x is the right-most-path vertex the rule compares at: the backward
    // edge's target, or the forward edge's source.
    val backward = i > j
    if (backward && i != rmPath.head) return true
    val x = if (backward) j else i
    val l = if (backward) li else lj
    // y: x's successor on the right-most path (head = right-most vertex).
    // With x off the path, or x = r, no rule applies.
    var y = -1
    var path = rmPath
    while (path.nonEmpty && path.head != x) { y = path.head; path = path.tail }
    if (path.isEmpty || y < 0) return true
    var t = 0
    while (t < prefix.length) {
      val ce = prefix(t)
      if (ce.i == x && ce.j == y) return le > ce.le || le == ce.le && l >= ce.lj
      t += 1
    }
    true
  }

  /** Is (li, le, lj) below `first`'s labels, the order of first tuples? */
  @inline private def labelsBelow(li: Int, le: Int, lj: Int, first: CodeEdge): Boolean =
    if (li != first.li) li < first.li
    else if (le != first.le) le < first.le
    else lj < first.lj

  @inline private def fit(a: Array[Int], n: Int): Array[Int] =
    if (a.length >= n) a else new Array[Int](math.max(n, 2 * a.length))

  /** The min-DFS-code construction over one graph, on flat arrays.
    *
    * A projection is one self-embedding of the code built so far: its
    * vertex map (pattern vertex -> graph vertex, `nV` ints, the first
    * `nVerts` valid) in `curV`, and its used-edge then used-vertex bit
    * markers (`mw` longs) in `curM`. Each step offers every right-most
    * extension of every projection as an unpacked tuple against the best
    * tuple so far and keeps the projections that extend by the best.
    * Candidates that cannot reach the best are not generated: with a
    * backward best, no forward ones and no backward ones to a later
    * vertex; with a forward best, no forward ones from a vertex nearer the
    * root.
    *
    * `run(check = false)` builds the minimum code into `tuples`.
    * `run(check = true)` instead fixes the best of step t to tuple t of the
    * loaded code and fails as soon as a candidate is smaller, or none
    * equals it.
    */
  private final class Projector {
    // The graph: vertex labels vl, edges src(e)-dst(e) labeled el(e).
    private var nV = 0
    private var nE = 0
    private var vl, src, dst, el: Array[Int] = _

    // A loaded code's pattern graph, and its tuples (the target of a
    // check) or the built code, 5 ints (i, j, li, le, lj) per tuple.
    private var codeVl, codeSrc, codeDst, codeEl = new Array[Int](16)
    private var labeled = new Array[Boolean](16)
    private var tuples = new Array[Int](80)

    // CSR adjacency: vertex v's incident (neighbor, edge) pairs sit at
    // adjStart(v) until adjStart(v + 1) of adjV/adjE.
    private var adjStart, adjV, adjE = new Array[Int](32)

    private var ew = 0
    private var mw = 0
    private var curV, nxtV = new Array[Int](128)
    private var curM, nxtM = new Array[Long](32)
    private var nCur = 0
    private var nNxt = 0

    // Right-most path, root first: rm(0) = 0, rm(rmLen - 1) = right-most.
    private var rm = new Array[Int](16)
    private var rmLen = 0
    private var nVerts = 0

    private var checking = false
    private var hasBest = false
    private var bi, bj, bli, ble, blj = 0

    def load(g: LabeledGraph): Unit =
      setGraph(g.numVertices, g.numEdges, g.vertexLabels, g.src, g.dst, g.edgeLabels)

    /** Unpack `prefix` extended by the tuple (i, j, li, le, lj) into
      * `tuples` and its pattern graph (edge t = tuple t); false if the code
      * is no valid labeling of a graph.
      */
    def load(prefix: Vector[CodeEdge], i: Int, j: Int, li: Int, le: Int, lj: Int): Boolean = {
      val m = prefix.length + 1
      tuples = fit(tuples, 5 * m)
      var t = 0
      while (t < prefix.length) {
        val ce = prefix(t)
        val o = 5 * t
        tuples(o) = ce.i; tuples(o + 1) = ce.j
        tuples(o + 2) = ce.li; tuples(o + 3) = ce.le; tuples(o + 4) = ce.lj
        t += 1
      }
      val o = 5 * prefix.length
      tuples(o) = i; tuples(o + 1) = j; tuples(o + 2) = li; tuples(o + 3) = le; tuples(o + 4) = lj
      var n = 0
      t = 0
      while (t < m) {
        val i = tuples(5 * t); val j = tuples(5 * t + 1)
        if (i < 0 || j < 0 || i == j) return false
        n = math.max(n, math.max(i, j) + 1)
        t += 1
      }
      codeVl = fit(codeVl, n)
      if (labeled.length < n) labeled = new Array[Boolean](codeVl.length)
      java.util.Arrays.fill(labeled, 0, n, false)
      codeSrc = fit(codeSrc, m); codeDst = fit(codeDst, m); codeEl = fit(codeEl, m)
      t = 0
      while (t < m) {
        val o = 5 * t
        codeSrc(t) = tuples(o); codeDst(t) = tuples(o + 1); codeEl(t) = tuples(o + 3)
        if (!label(tuples(o), tuples(o + 2)) || !label(tuples(o + 1), tuples(o + 4))) return false
        t += 1
      }
      var v = 0
      while (v < n) { if (!labeled(v)) return false; v += 1 }
      setGraph(n, m, codeVl, codeSrc, codeDst, codeEl)
      true
    }

    /** Record label `l` for code vertex `v`; false if it has another. */
    private def label(v: Int, l: Int): Boolean =
      if (labeled(v)) codeVl(v) == l
      else { codeVl(v) = l; labeled(v) = true; true }

    private def setGraph(n: Int, m: Int, vl: Array[Int], src: Array[Int], dst: Array[Int], el: Array[Int]): Unit = {
      nV = n; nE = m
      this.vl = vl; this.src = src; this.dst = dst; this.el = el
      adjStart = fit(adjStart, nV + 1)
      adjV = fit(adjV, 2 * nE)
      adjE = fit(adjE, 2 * nE)
      LabeledGraph.fillAdjacency(nV, nE, src, dst, adjStart, adjV, adjE)
      ew = (nE + 63) >>> 6
      mw = ew + ((nV + 63) >>> 6)
      rm = fit(rm, nV)
    }

    /** The built code (after `run(check = false)`). */
    def code: Vector[CodeEdge] =
      Vector.tabulate(nE) { t =>
        val o = 5 * t
        CodeEdge(tuples(o), tuples(o + 1), tuples(o + 2), tuples(o + 3), tuples(o + 4))
      }

    def run(check: Boolean): Boolean = {
      checking = check
      if (!check) tuples = fit(tuples, 5 * nE)
      nCur = 0
      var t = 0
      while (t < nE) {
        val o = 5 * t
        if (checking) {
          hasBest = true
          bi = tuples(o); bj = tuples(o + 1); bli = tuples(o + 2); ble = tuples(o + 3); blj = tuples(o + 4)
        } else hasBest = false
        nNxt = 0
        val ok = if (t == 0) firstStep() else extendStep()
        if (!ok || nNxt == 0) return false
        if (!checking) {
          tuples(o) = bi; tuples(o + 1) = bj; tuples(o + 2) = bli; tuples(o + 3) = ble; tuples(o + 4) = blj
        }
        if (t == 0) { rm(0) = 0; rm(1) = 1; rmLen = 2; nVerts = 2 }
        else if (bi < bj) {
          while (rm(rmLen - 1) != bi) rmLen -= 1
          rm(rmLen) = bj; rmLen += 1; nVerts += 1
        }
        val v = curV; curV = nxtV; nxtV = v
        val m = curM; curM = nxtM; nxtM = m
        nCur = nNxt
        t += 1
      }
      true
    }

    /** Every edge in both orientations as the tuple (0, 1, ...). */
    private def firstStep(): Boolean = {
      var e = 0
      while (e < nE) {
        if (!offer(-1, 0, 1, vl(src(e)), el(e), vl(dst(e)), src(e), dst(e), e)) return false
        if (!offer(-1, 0, 1, vl(dst(e)), el(e), vl(src(e)), dst(e), src(e), e)) return false
        e += 1
      }
      true
    }

    /** The right-most extensions of every current projection. */
    private def extendStep(): Boolean = {
      val r = rm(rmLen - 1)
      var p = 0
      while (p < nCur) {
        val vb = p * nV
        val mb = p * mw
        val fr = curV(vb + r)
        // Backward: right-most vertex -> an earlier right-most-path vertex
        // over an unused edge, root first.
        val bwdLast = if (hasBest && bi > bj) bj else Int.MaxValue
        var idx = 0
        while (idx < rmLen - 1 && rm(idx) <= bwdLast) {
          val x = rm(idx)
          val fx = curV(vb + x)
          var a = adjStart(fr)
          val end = adjStart(fr + 1)
          while (a < end) {
            if (adjV(a) == fx) {
              val e = adjE(a)
              if ((curM(mb + (e >>> 6)) & (1L << e)) == 0L &&
                  !offer(p, r, x, vl(fr), el(e), vl(fx), -1, -1, e)) return false
              a = end
            } else a += 1
          }
          idx += 1
        }
        // Forward: a right-most-path vertex -> an unmapped neighbor, deepest
        // first.
        val fwdFirst = if (!hasBest) 0 else if (bi > bj) Int.MaxValue else bi
        idx = rmLen - 1
        while (idx >= 0 && rm(idx) >= fwdFirst) {
          val x = rm(idx)
          val fx = curV(vb + x)
          var a = adjStart(fx)
          val end = adjStart(fx + 1)
          while (a < end) {
            val w = adjV(a)
            if ((curM(mb + ew + (w >>> 6)) & (1L << w)) == 0L &&
                !offer(p, x, nVerts, vl(fx), el(adjE(a)), vl(w), -1, w, adjE(a))) return false
            a += 1
          }
          idx -= 1
        }
        p += 1
      }
      true
    }

    /** Offer tuple (i, j, li, le, lj): projection `p` extended by graph edge
      * `e` and, for a forward tuple, new vertex `w` (`p = -1`: the new
      * projection maps vertices 0 and 1 to `u` and `w`). False iff
      * checking and the tuple is below the target.
      */
    private def offer(p: Int, i: Int, j: Int, li: Int, le: Int, lj: Int, u: Int, w: Int, e: Int): Boolean = {
      val c = if (hasBest) CodeEdge.compare(i, j, li, le, lj, bi, bj, bli, ble, blj) else -1
      if (c < 0) {
        if (checking) return false
        hasBest = true
        bi = i; bj = j; bli = li; ble = le; blj = lj
        nNxt = 0
      }
      if (c <= 0) push(p, u, w, e)
      true
    }

    private def push(p: Int, u: Int, w: Int, e: Int): Unit = {
      val vb = nNxt * nV
      val mb = nNxt * mw
      if (vb + nV > nxtV.length) nxtV = java.util.Arrays.copyOf(nxtV, 2 * (vb + nV))
      if (mb + mw > nxtM.length) nxtM = java.util.Arrays.copyOf(nxtM, 2 * (mb + mw))
      if (p < 0) {
        java.util.Arrays.fill(nxtM, mb, mb + mw, 0L)
        nxtV(vb) = u; nxtV(vb + 1) = w
        nxtM(mb + ew + (u >>> 6)) |= 1L << u
        nxtM(mb + ew + (w >>> 6)) |= 1L << w
      } else {
        System.arraycopy(curV, p * nV, nxtV, vb, nVerts)
        System.arraycopy(curM, p * mw, nxtM, mb, mw)
        if (w >= 0) {
          nxtV(vb + nVerts) = w
          nxtM(mb + ew + (w >>> 6)) |= 1L << w
        }
      }
      nxtM(mb + (e >>> 6)) |= 1L << e
      nNxt += 1
    }
  }
}
