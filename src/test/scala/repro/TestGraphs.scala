package repro

import scala.collection.mutable
import scala.util.Random
import repro.graph.{CanonicalCode, DfsCode, GraphDb, LabeledGraph}
import repro.iso.SubIso

/** Test-only helpers: tiny random graphs, vertex-relabeling, and a
  * brute-force connected-subgraph enumerator that is independent of the
  * gSpan machinery (edge-subset enumeration + connectivity check + dedup
  * by canonical code).
  */
object TestGraphs {

  /** Random connected labeled graph: a random spanning tree plus extra
    * edges, labels drawn from `nLabels`.
    */
  def randomConnected(rng: Random, nV: Int, extraEdges: Int, nLabels: Int,
                      nEdgeLabels: Int = 1, id: Long = 0): LabeledGraph = {
    val labels = IndexedSeq.fill(nV)(rng.nextInt(nLabels))
    val edges = mutable.LinkedHashSet.empty[(Int, Int)]
    (1 until nV).foreach { v => val p = rng.nextInt(v); edges += ((math.min(p, v), math.max(p, v))) }
    var tries = 0
    while (edges.size < (nV - 1) + extraEdges && tries < 50) {
      val u = rng.nextInt(nV); val v = rng.nextInt(nV)
      if (u != v) edges += ((math.min(u, v), math.max(u, v)))
      tries += 1
    }
    LabeledGraph(id, labels, edges.toSeq.map { case (u, v) => (u, v, rng.nextInt(nEdgeLabels)) })
  }

  /** The same graph with vertices renamed by a random permutation —
    * isomorphic by construction.
    */
  def permuted(g: LabeledGraph, rng: Random): LabeledGraph = {
    val perm = rng.shuffle((0 until g.numVertices).toList).toArray
    LabeledGraph(g.id,
      (0 until g.numVertices).map(v => g.vertexLabel(perm.indexOf(v))),
      (0 until g.numEdges).map(e => (perm(g.src(e)), perm(g.dst(e)), g.edgeLabel(e))))
  }

  /** True iff `g` is non-empty and every vertex is reachable from vertex 0.
    * The program asserts connectivity nowhere; the tests check with this
    * that generated graphs, sampled queries and pattern graphs are
    * connected.
    */
  def isConnected(g: LabeledGraph): Boolean = {
    if (g.numVertices == 0) return false
    val seen = new Array[Boolean](g.numVertices)
    var stack = List(0)
    seen(0) = true
    var count = 1
    while (stack.nonEmpty) {
      val v = stack.head; stack = stack.tail
      g.foreachNeighbor(v) { (w, _) =>
        if (!seen(w)) { seen(w) = true; count += 1; stack = w :: stack }
      }
    }
    count == g.numVertices
  }

  /** The sorted vertex labels and sorted (min label, max label, edge label)
    * edge triples of `g`: equal for isomorphic graphs.
    */
  def labelSignature(g: LabeledGraph): (Seq[Int], Seq[(Int, Int, Int)]) = {
    val vs = g.vertexLabels.toSeq.sorted
    val es = (0 until g.numEdges).map { e =>
      val lu = g.vertexLabels(g.src(e)); val lv = g.vertexLabels(g.dst(e))
      (math.min(lu, lv), math.max(lu, lv), g.edgeLabels(e))
    }.sorted
    (vs, es)
  }

  /** All connected subgraphs of `g` with 1..eMax edges, as canonical code
    * keys mapped to the set of edge ids covered across all their
    * occurrences *in g* (for cover-set cross-checks).
    */
  def bruteForceSubgraphs(g: LabeledGraph, eMax: Int): Map[String, Set[Int]] = {
    val found = mutable.Map.empty[String, mutable.Set[Int]]
    val edgeIds = (0 until g.numEdges).toArray

    def connectedEdgeSet(es: Seq[Int]): Boolean = {
      if (es.isEmpty) return false
      val verts = es.flatMap(e => Seq(g.src(e), g.dst(e))).distinct
      val adj = mutable.Map.empty[Int, mutable.Set[Int]]
      es.foreach { e =>
        adj.getOrElseUpdate(g.src(e), mutable.Set.empty) += g.dst(e)
        adj.getOrElseUpdate(g.dst(e), mutable.Set.empty) += g.src(e)
      }
      val seen = mutable.Set(verts.head)
      var frontier = List(verts.head)
      while (frontier.nonEmpty) {
        val v = frontier.head; frontier = frontier.tail
        adj.getOrElse(v, Set.empty).foreach { w =>
          if (!seen.contains(w)) { seen += w; frontier = w :: frontier }
        }
      }
      seen.size == verts.size
    }

    def subgraphOf(es: Seq[Int]): LabeledGraph = {
      val verts = es.flatMap(e => Seq(g.src(e), g.dst(e))).distinct.sorted
      val vmap = verts.zipWithIndex.toMap
      LabeledGraph(-1, verts.map(g.vertexLabel),
        es.map(e => (vmap(g.src(e)), vmap(g.dst(e)), g.edgeLabel(e))))
    }

    edgeIds.toSeq.combinations(1).toSeq // force strict below anyway
    (1 to eMax).foreach { size =>
      edgeIds.toSeq.combinations(size).foreach { es =>
        if (connectedEdgeSet(es)) {
          val key = DfsCode.key(CanonicalCode.minCodeOf(subgraphOf(es)))
          found.getOrElseUpdate(key, mutable.Set.empty) ++= es
        }
      }
    }
    found.map { case (k, v) => k -> v.toSet }.toMap
  }

  /** Cover set of a pattern over a whole database via the independent
    * SubIso path (global edge ids).
    */
  def coverViaSubIso(pattern: LabeledGraph, db: GraphDb): Set[Int] =
    db.graphs.indices.flatMap { gi =>
      SubIso.coverSet(pattern, db.graphs(gi)).map(db.edgeOffset(gi) + _)
    }.toSet

  /** Databases with several embeddings per graph and edges shared between
    * embeddings: random graphs over two labels, one of them twice, and a
    * 6x8 grid (82 edges) whose local edge ids pass one 64-bit word.
    */
  def randomDbs(seed: Int): Seq[GraphDb] = {
    val rng = new Random(seed)
    val grid = LabeledGraph(99, Seq.fill(48)(rng.nextInt(2)),
      (0 until 48).flatMap { v =>
        (if (v % 8 < 7) Seq((v, v + 1, 0)) else Nil) ++ (if (v / 8 < 5) Seq((v, v + 8, 0)) else Nil)
      })
    (1 to 4).map { round =>
      val graphs = IndexedSeq.tabulate(5)(i => randomConnected(rng, 7, 3, 2, 1, id = i))
      new GraphDb((graphs :+ graphs(0)).patch(round, Seq(grid), 0))
    }
  }

  def db(graphs: LabeledGraph*): GraphDb = new GraphDb(graphs.toIndexedSeq)
}
