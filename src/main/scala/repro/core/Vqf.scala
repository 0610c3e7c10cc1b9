package repro.core

import java.util.BitSet
import scala.collection.mutable
import scala.util.Random
import repro.enumeration.PatternNode
import repro.graph.{CanonicalCode, DfsCode, GraphDb, LabeledGraph}
import repro.iso.SubIso

/** Visual-query-formulation simulation (Exps 6–7, Tables 5–7).
  *
  * The paper's user study is replaced by its own deterministic step model
  * (Section 7.1): a pattern p in P is usable for query Q iff p is
  * subgraph-isomorphic to Q; patterns used together occupy edge-disjoint
  * images; Steps = one drag-and-drop per used pattern + one per remaining
  * edge built edge-at-a-time. RR = (Steps_X - Steps_TED) / Steps_X.
  */
object Vqf {

  /** Sample a connected subgraph with `targetEdges` edges from a random
    * database graph large enough to host it (Table 5's queries, with
    * synthetic graphs standing in for PubChem CIDs — DESIGN.md §4).
    */
  def sampleQuery(db: GraphDb, targetEdges: Int, rng: Random): LabeledGraph = {
    val wanted = db.graphs.filter(_.numEdges >= targetEdges)
    // Degrade gracefully on databases whose tail is smaller than the
    // requested band: sample from the largest graphs instead.
    val hosts =
      if (wanted.nonEmpty) wanted
      else db.graphs.sortBy(-_.numEdges).take(math.max(1, db.numGraphs / 100))
    val g = hosts(rng.nextInt(hosts.length))
    growQuery(g, rng.nextInt(g.numVertices), targetEdges, rng)
  }

  /** Random connected edge-growth from `start`: keep a frontier of edges
    * incident to the picked component, add one uniformly until the edge
    * budget is met (or the component is exhausted).
    */
  private def growQuery(g: LabeledGraph, start: Int, targetEdges: Int,
                        rng: Random): LabeledGraph = {
    val pickedVerts = mutable.LinkedHashSet.empty[Int]
    val pickedEdges = mutable.LinkedHashSet.empty[Int]
    val frontier = mutable.LinkedHashSet.empty[Int]
    pickedVerts += start
    g.foreachNeighbor(start)((_, e) => frontier += e)
    while (pickedEdges.size < targetEdges && frontier.nonEmpty) {
      val e = frontier.iterator.drop(rng.nextInt(frontier.size)).next()
      frontier -= e
      if (!pickedEdges.contains(e)) {
        pickedEdges += e
        Seq(g.src(e), g.dst(e)).foreach { v =>
          if (!pickedVerts.contains(v)) {
            pickedVerts += v
            g.foreachNeighbor(v)((_, ne) => if (!pickedEdges.contains(ne)) frontier += ne)
          }
        }
      }
    }
    val vmap = pickedVerts.toSeq.zipWithIndex.toMap
    LabeledGraph(-1,
      pickedVerts.toSeq.map(g.vertexLabel),
      pickedEdges.toSeq.map(e => (vmap(g.src(e)), vmap(g.dst(e)), g.edgeLabel(e))))
  }

  /** Vertex labels from this one up are rare atoms: S and the rarer ones
    * of [[repro.data.MoleculeGen.DefaultAtomWeights]].
    */
  private val RareLabel = 3

  /** A query grown from a rare-atom region (vertex label >= `RareLabel`),
    * standing in for the *infrequent* queries of Exp 7 / Figure 17: its
    * local structure is dominated by uncommon label combinations, so
    * frequent patterns place poorly on it.
    */
  def sampleRareQuery(db: GraphDb, targetEdges: Int, rng: Random): LabeledGraph = {
    val hosts = db.graphs.filter(g =>
      g.numEdges >= targetEdges && g.vertexLabels.exists(_ >= RareLabel))
    if (hosts.isEmpty) return sampleQuery(db, targetEdges, rng)
    val g = hosts(rng.nextInt(hosts.length))
    val rareVerts = (0 until g.numVertices).filter(g.vertexLabel(_) >= RareLabel)
    val start = rareVerts(rng.nextInt(rareVerts.length))
    growQuery(g, start, targetEdges, rng)
  }

  /** Queries in the paper's size band [30, 62] (Table 5). */
  def sampleQueries(db: GraphDb, n: Int, minE: Int = 30, maxE: Int = 62,
                    seed: Long = 17): Seq[LabeledGraph] = {
    val rng = new Random(seed)
    (1 to n).map { _ =>
      val target = minE + rng.nextInt(maxE - minE + 1)
      sampleQuery(db, target, rng)
    }
  }

  final case class Formulation(steps: Int, patternsUsed: Int, usedInfrequent: Boolean)

  /** Greedy pattern-at-a-time formulation of `q` from pattern set `ps`:
    * larger usable patterns first, each claiming an edge-disjoint image
    * (assumption 2 of Section 7.1); leftovers are built edge-at-a-time.
    * A used pattern whose `support` is below `supMin` of `db` sets the
    * "infrequent pattern used" marker of Table 6.
    */
  def formulate(q: LabeledGraph, ps: Seq[Pattern], db: GraphDb, supMin: Double): Formulation = {
    val frequentAt = Baselines.supportCount(db, supMin)
    val usedEdges = new Array[Boolean](q.numEdges)
    var used = 0
    var usedInfrequent = false
    val bySize = ps.filter(_.numEdges <= q.numEdges).sortBy(-_.numEdges)
    bySize.foreach { p =>
      var placed = false
      SubIso.foreachEmbedding(p.graph, q) { vmap =>
        val image = (0 until p.graph.numEdges)
          .map(e => q.edgeBetween(vmap(p.graph.src(e)), vmap(p.graph.dst(e))))
        if (image.forall(e => !usedEdges(e))) {
          image.foreach(usedEdges(_) = true)
          placed = true
          false // stop at the first disjoint embedding
        } else true
      }
      if (placed) {
        used += 1
        if (p.support < frequentAt) usedInfrequent = true
      }
    }
    val leftover = usedEdges.count(!_)
    Formulation(used + leftover, used, usedInfrequent)
  }

  /** Reduction ratio RR = (Steps_X - Steps_TED) / Steps_X (Section 7.1). */
  def reductionRatio(stepsX: Int, stepsTed: Int): Double =
    if (stepsX == 0) 0.0 else (stepsX - stepsTed).toDouble / stepsX

  /** CATAPULT proxy (DESIGN.md §4): from a frequent `pool` mined up to
    * `eMax` edges, greedily pick k mid-sized patterns maximizing
    * *graph-level* marginal coverage with a redundancy penalty for patterns
    * contained in an already-chosen one — frequent-ish and graph-diverse,
    * but not edge-coverage-driven.
    */
  def catapultProxy(db: GraphDb, pool: IndexedSeq[PatternNode], k: Int, eMax: Int): Seq[Pattern] = {
    val chosen = mutable.ArrayBuffer.empty[PatternNode]
    val coveredGraphs = new BitSet(db.numGraphs)
    val remaining = new BitSet(pool.length)
    remaining.set(0, pool.length)
    while (chosen.size < k && !remaining.isEmpty) {
      var best = -1
      var bestScore = Double.MinValue
      var i = remaining.nextSetBit(0)
      while (i >= 0) {
        val p = pool(i)
        val marginal = p.graphIds.count(g => !coveredGraphs.get(g))
        val sizeBonus = -math.abs(p.numEdges - (eMax / 2.0)) // prefer mid-size
        val redundant = chosen.exists(c =>
          SubIso.exists(p.graph, c.graph) || SubIso.exists(c.graph, p.graph))
        val score = marginal + 0.1 * sizeBonus - (if (redundant) 1000.0 else 0.0)
        if (score > bestScore) { bestScore = score; best = i }
        i = remaining.nextSetBit(i + 1)
      }
      chosen += pool(best)
      pool(best).graphIds.foreach(coveredGraphs.set)
      remaining.clear(best)
    }
    chosen.toSeq.map(Pattern.of(_, db))
  }

  /** Synthetic "biological importance" repository (DESIGN.md §4): a
    * pattern is important iff it is isomorphic to a *whole compound* of
    * the repository (the paper's "has a CID in PubChem") — canonical-code
    * equality against a library of small molecules.
    */
  def exactRepository(repoDb: GraphDb): Set[String] =
    repoDb.graphs.iterator.map(g => DfsCode.key(CanonicalCode.minCodeOf(g))).toSet

  def bioImportance(ps: Seq[Pattern], repository: Set[String]): Int =
    ps.count(p => repository.contains(p.key))
}
