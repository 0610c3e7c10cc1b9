package repro.iso

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.TestGraphs
import repro.data.SampleDb
import repro.graph.LabeledGraph

class SubIsoSpec extends AnyFunSuite {

  private def path(labels: Int*): LabeledGraph =
    LabeledGraph(0, labels, (0 until labels.length - 1).map(i => (i, i + 1, 0)))

  private def ring(labels: Int*): LabeledGraph =
    LabeledGraph(0, labels, labels.indices.map(i => (i, (i + 1) % labels.length, 0)))

  private def countEmbeddings(pattern: LabeledGraph, target: LabeledGraph): Long = {
    var n = 0L
    SubIso.foreachEmbedding(pattern, target) { _ => n += 1; true }
    n
  }

  test("single edge into a triangle: 6 embeddings (both orientations)") {
    val e = path(0, 0)
    val t = ring(0, 0, 0)
    assert(countEmbeddings(e, t) == 6)
  }

  test("a path of 3 vertices into a triangle: 6 embeddings") {
    assert(countEmbeddings(path(0, 0, 0), ring(0, 0, 0)) == 6)
  }

  test("labels constrain embeddings") {
    val e = path(0, 1)
    val t = LabeledGraph(0, Seq(0, 1, 1), Seq((0, 1, 0), (0, 2, 0)))
    assert(countEmbeddings(e, t) == 2)
    assert(countEmbeddings(path(1, 1), t) == 0)
  }

  test("edge labels constrain embeddings") {
    val single = LabeledGraph(0, Seq(0, 0), Seq((0, 1, 1)))
    val t = LabeledGraph(0, Seq(0, 0, 0), Seq((0, 1, 1), (1, 2, 2)))
    assert(countEmbeddings(single, t) == 2)
  }

  test("triangle does not embed into a path") {
    assert(!SubIso.exists(ring(0, 0, 0), path(0, 0, 0, 0)))
  }

  test("square embeds into square but not into triangle") {
    val sq = ring(0, 0, 0, 0)
    assert(SubIso.exists(sq, ring(0, 0, 0, 0)))
    assert(!SubIso.exists(sq, ring(0, 0, 0)))
  }

  test("pattern larger than target never embeds") {
    assert(!SubIso.exists(path(0, 0, 0), path(0, 0)))
  }

  test("embedding maps preserve adjacency and labels") {
    val p = path(0, 1, 0)
    val g = SampleDb.g1 // C6 ring with two O
    SubIso.foreachEmbedding(p, g) { vmap =>
      (0 until p.numEdges).foreach { e =>
        val te = g.edgeBetween(vmap(p.src(e)), vmap(p.dst(e)))
        assert(te >= 0 && g.edgeLabel(te) == p.edgeLabel(e))
      }
      (0 until p.numVertices).foreach(v => assert(g.vertexLabel(vmap(v)) == p.vertexLabel(v)))
      assert(vmap.distinct.length == vmap.length)
      true
    }
  }

  test("exists stops early") {
    // Large symmetric target would have many embeddings; exists must not
    // enumerate them all (smoke: returns quickly and true).
    val star = LabeledGraph(0, 0 +: Seq.fill(30)(1), (1 to 30).map(i => (0, i, 0)))
    assert(SubIso.exists(path(1, 0, 1), star))
  }

  test("coverSet of an edge pattern covers all same-labeled edges") {
    val cc = path(SampleDb.C, SampleDb.C)
    val cover = SubIso.coverSet(cc, SampleDb.g1)
    // g1's C-C edges are the 6 ring edges (ids 0..5).
    assert(cover.toSet == Set(0, 1, 2, 3, 4, 5))
  }

  test("coverSet with no embeddings is empty") {
    val sn = path(SampleDb.S, SampleDb.N)
    assert(SubIso.coverSet(sn, SampleDb.g1).isEmpty)
  }

  test("coverSet matches the set of edges used across all embeddings") {
    val rng = new Random(23)
    (1 to 15).foreach { _ =>
      val target = TestGraphs.randomConnected(rng, 8, 4, 2)
      val pattern = TestGraphs.randomConnected(rng, 3, 1, 2)
      val viaEmb = scala.collection.mutable.Set.empty[Int]
      SubIso.foreachEmbedding(pattern, target) { vmap =>
        (0 until pattern.numEdges).foreach { e =>
          viaEmb += target.edgeBetween(vmap(pattern.src(e)), vmap(pattern.dst(e)))
        }
        true
      }
      assert(SubIso.coverSet(pattern, target).toSet == viaEmb.toSet)
    }
  }

  test("count is symmetric under target permutation") {
    val rng = new Random(31)
    (1 to 10).foreach { _ =>
      val target = TestGraphs.randomConnected(rng, 7, 3, 2)
      val pattern = TestGraphs.randomConnected(rng, 3, 0, 2)
      val n1 = countEmbeddings(pattern, target)
      val n2 = countEmbeddings(pattern, TestGraphs.permuted(target, rng))
      assert(n1 == n2)
    }
  }

  test("S-O chain only occurs in G4 of the sample database") {
    val so = path(SampleDb.S, SampleDb.O)
    val hits = SampleDb.db.graphs.filter(SubIso.exists(so, _)).map(_.id)
    assert(hits == Seq(4))
  }

  test("automorphic pattern counts embeddings with multiplicity") {
    // path 0-0 in a single-edge graph: two orientations.
    assert(countEmbeddings(path(0, 0), path(0, 0)) == 2)
  }
}
