package repro.core

import repro.cover.PesIndex
import repro.enumeration.{Enumerator, PatternNode, TedTimeout}
import repro.graph._

/** A discovered pattern: its DFS code and its database-wide cover set,
  * from which everything else follows. Build one with [[Pattern.of]], so
  * that `support` is the one derived from `cover`.
  */
final case class Pattern(code: Vector[CodeEdge], cover: Array[Int], support: Int) {
  lazy val graph: LabeledGraph = DfsCode.toGraph(code)
  def key: String = DfsCode.key(code)
  def numEdges: Int = code.length
}

object Pattern {
  /** The pattern with DFS code `code` and sorted global cover set `cover`
    * over a database whose graph g owns the global edge ids
    * `edgeOffset(g) until edgeOffset(g + 1)` (as [[GraphDb.edgeOffset]]).
    * Its support is the number of graphs the cover touches: each embedding
    * covers edges of its own graph, so these are the containing graphs.
    */
  def of(code: Vector[CodeEdge], cover: Array[Int], edgeOffset: Array[Int]): Pattern = {
    var support = 0
    var g = 0
    var i = 0
    while (i < cover.length) {
      if (support == 0 || cover(i) >= edgeOffset(g + 1)) {
        while (edgeOffset(g + 1) <= cover(i)) g += 1
        support += 1
      }
      i += 1
    }
    Pattern(code, cover, support)
  }

  /** The pattern of an enumerated search-space node, with its cover set. */
  def of(n: PatternNode, db: GraphDb): Pattern = of(n.code, n.coverGlobal(db), db.edgeOffset)
}

/** Outcome of one discovery run (any method). `timedOut` mirrors the
  * paper's INF entries: the run exceeded its deadline and `patterns` is
  * whatever had been maintained so far.
  */
final case class RunResult(
    method: String,
    patterns: Seq[Pattern],
    coverage: Int,
    totalEdges: Int,
    millis: Long,
    enumerated: Long,
    indexNanos: Long,
    indexBytes: Long,
    timedOut: Boolean,
) {
  def coverageRate: Double = if (totalEdges == 0) 0.0 else coverage.toDouble / totalEdges
}

/** Configuration of the TED family, validated on construction.
  *
  * @param k number of patterns, 1..64 (the PES-Index keeps one bit per slot).
  * @param alpha swapping threshold of Equation 1 — 1.0 = Swap_1 (default),
  *              0.0 = Swap_2, in between = Swap_alpha.
  * @param minSupport at least 1; >1 turns the enumeration into the
  *                   frequent-only space (used to express FSG_t as
  *                   TED-minus-optimizations).
  */
final case class TedConfig(
    k: Int = 5,
    eMax: Int = 10,
    alpha: Double = 1.0,
    usePrm: Boolean = true,
    useIps: Boolean = true,
    minSupport: Int = 1,
    minEdges: Int = 1,
    timeoutMillis: Long = Long.MaxValue,
) {
  require(k >= 1 && k <= 64, s"k must lie in [1, 64], got $k")
  require(eMax >= 1, s"eMax must be at least 1, got $eMax")
  require(minEdges <= eMax,
    s"minEdges ($minEdges) exceeds eMax ($eMax): no pattern could be maintained")
  require(alpha >= 0.0 && alpha <= 1.0, s"alpha must lie in [0, 1], got $alpha")
  require(minSupport >= 1, s"minSupport must be at least 1, got $minSupport")
}

/** The TED framework (Section 4): subgraph enumeration interleaved with
  * swapping-based top-k maintenance over the PES-Index, plus the PRM
  * pruning (Section 5.1) and IPS initialization (Section 5.2).
  */
object Ted {

  /** Swapping criterion (Equation 1):
    * Score_B > (1 + alpha) * Score_L + (1 - alpha) * |Cov(P,D)| / k.
    */
  @inline def swapThreshold(alpha: Double, loss: Int, totalCoverage: Int, k: Int): Double =
    (1.0 + alpha) * loss + (1.0 - alpha) * totalCoverage / k

  def run(db: GraphDb, cfg: TedConfig, method: String = "TED"): RunResult = {
    val t0 = System.nanoTime()
    val en = new Enumerator(db, cfg.eMax, cfg.minSupport, cfg.timeoutMillis)
    val pes = new PesIndex(cfg.k, db)
    var enumerated = 0L
    var timedOut = false
    var ipsSeeded = false

    def maintain(node: PatternNode): Unit = {
      enumerated += 1
      // MinE of the paper's TED Explorer (Section 6.2): patterns below the
      // minimum size are traversed (their descendants may qualify) but
      // never maintained.
      if (node.numEdges < cfg.minEdges) return
      // Canonical dedup reaches every pattern once, so only an IPS seed can
      // already be in the index.
      if (ipsSeeded && pes.contains(node.key)) return
      val cover = node.coverGlobal(db)
      if (!pes.isFull) {
        pes.insert(node.code, node.key, cover)
      } else {
        val b = pes.benefit(cover)
        val slot = pes.minLossSlot
        if (b > swapThreshold(cfg.alpha, pes.privateCoverage(slot), pes.totalCoverage, cfg.k))
          pes.update(slot, node.code, node.key, cover)
      }
    }

    /** PRM rules (Definition 7): keep child g' iff the uncovered edges of
      * the graphs containing g' — minus, when the parent is outside P, the
      * parent-covered edges the child loses (Observation I) — can still
      * clear the current swapping threshold. A valid upper bound on the
      * benefit of g' and every descendant, so pruning drops no promising
      * candidate (Theorem 3).
      */
    def prmKeep(parent: PatternNode, child: PatternNode): Boolean = {
      if (!pes.isFull) return true
      val threshold = swapThreshold(cfg.alpha, pes.privateCoverage(pes.minLossSlot), pes.totalCoverage, cfg.k)
      var ub = 0L
      val ids = child.graphIds
      var i = 0
      while (i < ids.length) { ub += pes.uncovered(ids(i)); i += 1 }
      if (!pes.contains(parent.key) && ub > threshold) {
        // Rule 2 refinement: uncovered edges the parent reaches but the
        // child no longer does are unreachable for the whole subtree.
        val parentCover = parent.coverGlobal(db)
        val childCover = child.coverGlobal(db)
        var j = 0
        while (j < parentCover.length) {
          val e = parentCover(j)
          if (!pes.isCovered(e) &&
              java.util.Arrays.binarySearch(childCover, e) < 0 &&
              java.util.Arrays.binarySearch(ids, db.graphOfEdge(e)) >= 0) ub -= 1
          j += 1
        }
      }
      ub > threshold
    }

    def dfs(node: PatternNode): Unit = {
      maintain(node)
      if (node.numEdges < cfg.eMax) {
        var kids = en.children(node)
        if (cfg.usePrm) kids = kids.filter(prmKeep(node, _))
        kids.foreach(dfs)
      }
    }

    try {
      if (cfg.useIps) {
        // IPS returns at most k distinct keys, and the index is still empty.
        val seeds = Ips.initialPatterns(en, db, cfg)
        seeds.foreach(n => pes.insert(n.code, n.key, n.coverGlobal(db)))
        ipsSeeded = seeds.nonEmpty
      }
      en.roots.foreach(dfs)
    } catch {
      case _: TedTimeout => timedOut = true
    }

    val patterns = pes.patternSlots.map(s => Pattern.of(pes.codeAt(s), pes.coverAt(s), db.edgeOffset))
    RunResult(method, patterns, pes.totalCoverage, db.totalEdges,
      (System.nanoTime() - t0) / 1000000L, enumerated,
      pes.maintenanceNanos, pes.sizeBytes, timedOut)
  }

  /** TED_BASE: Algorithm 3 without either optimization. */
  def base(db: GraphDb, cfg: TedConfig): RunResult =
    run(db, cfg.copy(usePrm = false, useIps = false), "BASE")

  /** TED_PRM: BASE + promising right-most extension. */
  def prm(db: GraphDb, cfg: TedConfig): RunResult =
    run(db, cfg.copy(usePrm = true, useIps = false), "PRM")

  /** Full TED: PRM + IPS. */
  def full(db: GraphDb, cfg: TedConfig): RunResult =
    run(db, cfg.copy(usePrm = true, useIps = true), "TED")
}

/** Initial Pattern Selection (Section 5.2): benefit-greedy hill climbing
  * from every 1-edge root, then the k climbed patterns with maximum
  * coverage and at least MinE edges become the initial pattern set. The
  * enumerator keeps every children list the climbs compute, so the DFS
  * that follows takes them instead of expanding those nodes again.
  */
object Ips {
  def initialPatterns(en: Enumerator, db: GraphDb, cfg: TedConfig): Seq[PatternNode] = {
    val climbed = en.roots.map { root =>
      var cur = root
      var curCov = cur.coverage(db)
      var go = true
      while (go && cur.numEdges < cfg.eMax) {
        val kids = en.childrenKept(cur)
        if (kids.isEmpty) go = false
        else {
          val best = kids.maxBy(_.coverage(db))
          if (best.coverage(db) > curCov) { cur = best; curCov = best.coverage(db) }
          else go = false
        }
      }
      cur
    }
    climbed
      .filter(_.numEdges >= cfg.minEdges)
      .sortBy(-_.coverage(db))
      .distinctBy(_.key)
      .take(cfg.k)
  }
}
