package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.TestGraphs
import repro.data.SampleDb

class LabeledGraphSpec extends AnyFunSuite {

  private val triangle = LabeledGraph(1, Seq(0, 1, 2), Seq((0, 1, 5), (1, 2, 6), (2, 0, 7)))

  test("vertex and edge counts") {
    assert(triangle.numVertices == 3)
    assert(triangle.numEdges == 3)
  }

  test("vertex labels") {
    assert((0 to 2).map(triangle.vertexLabel) == Seq(0, 1, 2))
  }

  test("edge labels") {
    assert((0 to 2).map(triangle.edgeLabel) == Seq(5, 6, 7))
  }

  test("degrees of a triangle are all 2") {
    assert((0 to 2).forall(triangle.degree(_) == 2))
  }

  test("edgeBetween finds both orientations") {
    assert(triangle.edgeBetween(0, 1) == 0)
    assert(triangle.edgeBetween(1, 0) == 0)
    assert(triangle.edgeBetween(2, 0) == 2)
  }

  test("an endpoint outside the vertex range is rejected, naming the graph and edge") {
    val high = intercept[IllegalArgumentException](LabeledGraph(7, Seq(0, 1), Seq((0, 1, 0), (1, 2, 0))))
    assert(high.getMessage.contains("edge 1 (1, 2) of graph 7"))
    val low = intercept[IllegalArgumentException](LabeledGraph(7, Seq(0, 1), Seq((-1, 0, 0))))
    assert(low.getMessage.contains("edge 0 (-1, 0) of graph 7"))
  }

  test("parallel edges are rejected, naming the graph and both edges") {
    val e = intercept[IllegalArgumentException](
      LabeledGraph(8, Seq(0, 1, 2), Seq((0, 1, 0), (1, 2, 0), (1, 0, 3))))
    assert(e.getMessage.contains("parallel edges 0 and 2 between vertices 0 and 1 of graph 8"))
  }

  test("edgeBetween returns -1 for absent edges") {
    val path = LabeledGraph(2, Seq(0, 0, 0), Seq((0, 1, 0), (1, 2, 0)))
    assert(path.edgeBetween(0, 2) == -1)
  }

  test("hasEdge agrees with edgeBetween") {
    val path = LabeledGraph(2, Seq(0, 0, 0), Seq((0, 1, 0), (1, 2, 0)))
    assert(path.edgeBetween(1, 2) == 1 && path.edgeBetween(2, 1) == 1 && path.edgeBetween(0, 2) < 0)
  }

  test("foreachNeighbor visits each incident edge exactly once") {
    var seen = List.empty[(Int, Int)]
    triangle.foreachNeighbor(1)((w, e) => seen ::= (w, e))
    assert(seen.toSet == Set((0, 0), (2, 1)))
  }

  /** `g` with its edge ids shuffled and each edge's direction flipped at
    * random: the same graph, listed differently.
    */
  private def edgesShuffled(g: LabeledGraph, rng: Random): LabeledGraph =
    LabeledGraph(g.id, g.vertexLabels.toSeq, rng.shuffle((0 until g.numEdges).toVector).map { e =>
      if (rng.nextBoolean()) (g.src(e), g.dst(e), g.edgeLabel(e)) else (g.dst(e), g.src(e), g.edgeLabel(e))
    })

  test("foreachNeighbor lists each vertex's incident edges in ascending edge id") {
    val rng = new Random(13)
    (1 to 30).foreach { i =>
      val g = edgesShuffled(TestGraphs.randomConnected(rng, 3 + rng.nextInt(8), rng.nextInt(6), 2), rng)
      (0 until g.numVertices).foreach { v =>
        val seen = Seq.newBuilder[(Int, Int)]
        g.foreachNeighbor(v)((w, e) => seen += ((w, e)))
        val expected = (0 until g.numEdges).collect {
          case e if g.src(e) == v => (g.dst(e), e)
          case e if g.dst(e) == v => (g.src(e), e)
        }
        assert(seen.result() == expected, s"iteration $i, vertex $v of $g")
      }
    }
  }

  test("minCodeOf equals the brute-force minimum on graphs with shuffled edge ids") {
    val rng = new Random(17)
    (1 to 30).foreach { i =>
      val g = edgesShuffled(TestGraphs.randomConnected(rng, 3 + rng.nextInt(4), rng.nextInt(3), 2, 2), rng)
      assert(CanonicalCode.minCodeOf(g) == CanonicalCodeSpec.bruteForceMinCode(g)._1, s"iteration $i: $g")
    }
  }

  test("self loops are rejected") {
    intercept[IllegalArgumentException] {
      LabeledGraph(9, Seq(0, 1), Seq((0, 0, 0)))
    }
  }

  test("isConnected on connected and disconnected graphs") {
    assert(TestGraphs.isConnected(triangle))
    val disconnected = new LabeledGraph(3, Array(0, 0, 0, 0), Array(0, 2), Array(1, 3), Array(0, 0))
    assert(!TestGraphs.isConnected(disconnected))
  }

  test("labelSignature is invariant under vertex permutation") {
    val rng = new Random(1)
    (1 to 10).foreach { _ =>
      val g = TestGraphs.randomConnected(rng, 6, 3, 3, 2)
      assert(TestGraphs.labelSignature(TestGraphs.permuted(g, rng)) == TestGraphs.labelSignature(g))
    }
  }

  test("sample database graphs are connected") {
    assert(SampleDb.db.graphs.forall(TestGraphs.isConnected))
    assert(SampleDb.db10.graphs.forall(TestGraphs.isConnected))
  }

  test("GraphDb global edge ids partition the edge space") {
    val db = SampleDb.db
    assert(db.totalEdges == db.graphs.map(_.numEdges).sum)
    assert(db.edgeOffset(0) == 0)
    assert(db.edgeOffset(1) == db.graphs(0).numEdges)
    val last = db.edgeOffset(db.numGraphs - 1) + db.graphs.last.numEdges - 1
    assert(last == db.totalEdges - 1)
  }

  test("GraphDb.graphOfEdge inverts globalEdge") {
    val db = SampleDb.db10
    for (gi <- 0 until db.numGraphs; e <- 0 until db.graphs(gi).numEdges)
      assert(db.graphOfEdge(db.edgeOffset(gi) + e) == gi)
  }

  test("GraphDb size estimate counts vertices and edges (SDF-like)") {
    val db = repro.TestGraphs.db(triangle)
    assert(db.sizeBytesEstimate == 200L + 44L * 3 + 22L * 3)
  }

  test("parallel array mismatch is rejected") {
    intercept[IllegalArgumentException] {
      new LabeledGraph(0, Array(0, 1), Array(0), Array(1, 0), Array(0))
    }
  }
}
