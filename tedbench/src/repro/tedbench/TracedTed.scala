package repro.tedbench

import repro.core.{Ips, Ted, TedConfig}
import repro.cover.PesIndex
import repro.enumeration.{Enumerator, PatternNode}
import repro.graph.{CanonicalCode, CodeEdge, DfsCode, GraphDb, RightMost}

/** What the re-driven search ends with: the pattern keys in slot order,
  * their coverage and the number of maintained nodes (`enumerated`).
  */
final case class SearchOutcome(keys: Seq[String], coverage: Int, enumerated: Long)

/** Counters of one re-driven search, summed over every search it runs. */
final class SearchCounters {
  var maintained = 0L
  var swapsTried = 0L
  var swapsAccepted = 0L
  var prmChecked = 0L
  var prmKept = 0L
  var childrenCalls = 0L
  var childrenOut = 0L
  var embeddingsIn = 0L
  var coverCalls = 0L
  var pesCalls = 0L
  var pesBytes = 0L
  var extensions = 0L
  var isminCalls = 0L
  var isminPass = 0L
}

/** `Ted.run` re-driven through public APIs with a span around every call
  * into a layer: `Ips.initialPatterns`, `Enumerator.roots/children`,
  * `PatternNode.coverGlobal` and the `PesIndex` operations. It follows
  * `Ted.run` step for step (maintain, PRM filter of all siblings, DFS), so
  * its outcome must equal `Ted.run`'s; the benchmark fails if it does not.
  *
  * Every node whose children are built is also replayed in isolation,
  * right after its `children` call: `RightMost.foreachExtension` over all
  * its embeddings (span `graph.rightmost`, which also collects the distinct
  * extension tuples) and `CanonicalCode.isMin` on each distinct extended
  * code (span `graph.ismin`). Replays sit beside, not inside, the search
  * spans, and run after `children`, so that the `children` span meets the
  * caches that `Ted.run` leaves it.
  */
final class TracedTed(db: GraphDb, cfg: TedConfig, tr: Trace, c: SearchCounters) {
  private val en = new Enumerator(db, cfg.eMax, cfg.minSupport)
  private val pes = new PesIndex(cfg.k, db)

  private val Call = tr.id("core.call")
  private val IpsSpan = tr.id("core.ips")
  private val Prm = tr.id("core.prm")
  private val Roots = tr.id("enumeration.roots")
  private val Children = tr.id("enumeration.children")
  private val Cover = tr.id("enumeration.cover")
  private val Pes = tr.id("cover.pes")
  private val Rightmost = tr.id("graph.rightmost")
  private val IsMin = tr.id("graph.ismin")

  private def cover(n: PatternNode): Array[Int] = {
    c.coverCalls += 1
    tr.span(Cover)(n.coverGlobal(db))
  }

  private def pesOp[A](body: => A): A = {
    c.pesCalls += 1
    tr.span(Pes)(body)
  }

  private def maintain(node: PatternNode): Unit = {
    c.maintained += 1
    if (node.numEdges < cfg.minEdges) return
    if (pes.contains(node.key)) return
    val cov = cover(node)
    if (!pes.isFull) {
      pesOp(pes.insert(node.code, node.key, cov))
    } else {
      c.swapsTried += 1
      val b = pesOp(pes.benefit(cov))
      val (loss, slot) = pesOp(pes.minLoss)
      if (b > Ted.swapThreshold(cfg.alpha, loss, pes.totalCoverage, cfg.k)) {
        c.swapsAccepted += 1
        pesOp(pes.update(slot, node.code, node.key, cov))
      }
    }
  }

  /** The PRM test of `Ted.run`, with the same Rule 2 refinement. */
  private def prmKeep(parent: PatternNode, child: PatternNode): Boolean = tr.span(Prm) {
    c.prmChecked += 1
    val keep = !pes.isFull || {
      val (loss, _) = pesOp(pes.minLoss)
      val threshold = Ted.swapThreshold(cfg.alpha, loss, pes.totalCoverage, cfg.k)
      var ub = 0L
      val ids = child.graphIds
      var i = 0
      while (i < ids.length) { ub += pes.uncovered(ids(i)); i += 1 }
      if (!pes.contains(parent.key) && ub > threshold) {
        val parentCover = cover(parent)
        val childCover = cover(child)
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
    if (keep) c.prmKept += 1
    keep
  }

  private def replayLayers(node: PatternNode): Unit = {
    val distinct = new java.util.HashSet[CodeEdge]()
    tr.span(Rightmost) {
      var i = 0
      while (i < node.embeddings.length) {
        val emb = node.embeddings(i)
        RightMost.foreachExtension(db.graphs(emb.graphIdx), node.rmPath, node.nVerts, emb.vmap, emb.eids) {
          (ce, _, _) => c.extensions += 1; distinct.add(ce)
        }
        i += 1
      }
    }
    distinct.forEach { ce =>
      val code = node.code :+ ce
      c.isminCalls += 1
      if (tr.span(IsMin)(CanonicalCode.isMin(code))) c.isminPass += 1
    }
  }

  private def dfs(node: PatternNode): Unit = {
    maintain(node)
    if (node.numEdges < cfg.eMax) {
      c.childrenCalls += 1
      c.embeddingsIn += node.embeddings.length
      var kids = tr.span(Children)(en.children(node))
      replayLayers(node)
      c.childrenOut += kids.length
      if (cfg.usePrm) kids = kids.filter(prmKeep(node, _))
      kids.foreach(dfs)
    }
  }

  def run(): SearchOutcome = {
    val before = c.maintained
    tr.span(Call) {
      if (cfg.useIps)
        tr.span(IpsSpan)(Ips.initialPatterns(en, db, cfg)).foreach { n =>
          if (n.numEdges >= cfg.minEdges && !pes.isFull && !pes.contains(n.key))
            pesOp(pes.insert(n.code, n.key, cover(n)))
        }
      tr.span(Roots)(en.roots).foreach(dfs)
    }
    c.pesBytes += pes.sizeBytes
    SearchOutcome(pes.patternSlots.map(s => DfsCode.key(pes.codeAt(s))), pes.totalCoverage,
      c.maintained - before)
  }
}
