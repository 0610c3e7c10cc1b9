package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop, Test => SCTest}
import scala.util.Random
import repro.TestGraphs
import repro.enumeration.Enumerator

class CanonicalCodeSpec extends AnyFunSuite {

  /** Run a ScalaCheck property under ScalaTest without the scalatestplus
    * bridge (not in the offline artifact set).
    */
  private def checkProp(p: Prop): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(60), p)
    assert(res.passed, res.status.toString)
  }

  private def key(g: LabeledGraph): String = DfsCode.key(CanonicalCode.minCodeOf(g))

  /** Right-most path of `code`, head = right-most vertex, last = root: the
    * highest-numbered vertex walked up the forward edges' DFS tree. The
    * reference for the incremental [[DfsCode.extendRmPath]].
    */
  private def rmPath(code: Seq[CodeEdge]): List[Int] = {
    val parent = code.filter(_.isForward).map(e => e.j -> e.i).toMap
    var path = List(DfsCode.numVertices(code) - 1)
    while (path.head != 0) path = parent(path.head) :: path
    path.reverse
  }

  test("single edge: canonical orientation puts the smaller label first") {
    val g = LabeledGraph(0, Seq(5, 2), Seq((0, 1, 9)))
    assert(CanonicalCode.minCodeOf(g) == Vector(CodeEdge(0, 1, 2, 9, 5)))
  }

  test("code edge ordering: backward precedes forward") {
    val backward = CodeEdge(2, 0, 0, 0, 0)
    val forward = CodeEdge(2, 3, 0, 0, 0)
    assert(CodeEdge.ordering.compare(backward, forward) < 0)
  }

  test("code edge ordering: forward from deeper vertex first") {
    val fromDeep = CodeEdge(2, 3, 0, 0, 0)
    val fromRoot = CodeEdge(0, 3, 0, 0, 0)
    assert(CodeEdge.ordering.compare(fromDeep, fromRoot) < 0)
  }

  test("code edge ordering: label tie-break") {
    val a = CodeEdge(0, 1, 1, 0, 2)
    val b = CodeEdge(0, 1, 1, 0, 3)
    assert(CodeEdge.ordering.compare(a, b) < 0)
  }

  test("path of two edges has the expected canonical code") {
    // labels 1-0-1: canonical start is at an endpoint (label 1? root label
    // minimality drives the first tuple: min tuple is (0,1,0,0,1) starting
    // at the centre).
    val g = LabeledGraph(0, Seq(1, 0, 1), Seq((0, 1, 0), (1, 2, 0)))
    val code = CanonicalCode.minCodeOf(g)
    assert(code == Vector(CodeEdge(0, 1, 0, 0, 1), CodeEdge(0, 2, 0, 0, 1)))
  }

  test("triangle canonical code closes with a backward edge") {
    val g = LabeledGraph(0, Seq(0, 0, 0), Seq((0, 1, 0), (1, 2, 0), (2, 0, 0)))
    val code = CanonicalCode.minCodeOf(g)
    assert(code.length == 3)
    assert(code.count(!_.isForward) == 1)
    assert(!code.last.isForward)
  }

  test("minCodeOf reconstructs an isomorphic graph") {
    val rng = new Random(7)
    (1 to 20).foreach { _ =>
      val g = TestGraphs.randomConnected(rng, 6, 2, 3, 2)
      val rebuilt = DfsCode.toGraph(CanonicalCode.minCodeOf(g))
      assert(TestGraphs.labelSignature(rebuilt) == TestGraphs.labelSignature(g))
      assert(repro.iso.SubIso.exists(rebuilt, g) && repro.iso.SubIso.exists(g, rebuilt))
    }
  }

  test("canonical code is invariant under vertex permutation (regression set)") {
    val rng = new Random(42)
    (1 to 50).foreach { i =>
      val g = TestGraphs.randomConnected(rng, 3 + rng.nextInt(5), rng.nextInt(4), 1 + rng.nextInt(3), 1 + rng.nextInt(2))
      val p = TestGraphs.permuted(g, rng)
      assert(key(g) == key(p), s"iteration $i: $g vs $p")
    }
  }

  test("canonical code is invariant under vertex permutation (property)") {
    val gen = for {
      n <- Gen.choose(3, 7)
      extra <- Gen.choose(0, 4)
      labels <- Gen.choose(1, 3)
      seed <- Gen.choose(0L, Long.MaxValue)
    } yield (n, extra, labels, seed)
    checkProp(Prop.forAll(gen) { case (n, extra, labels, seed) =>
      val rng = new Random(seed)
      val g = TestGraphs.randomConnected(rng, n, extra, labels)
      key(g) == key(TestGraphs.permuted(g, rng))
    })
  }

  test("different label multisets give different canonical codes") {
    val g1 = LabeledGraph(0, Seq(0, 0), Seq((0, 1, 0)))
    val g2 = LabeledGraph(0, Seq(0, 1), Seq((0, 1, 0)))
    assert(key(g1) != key(g2))
  }

  test("path vs star with same labels are distinguished") {
    val path = LabeledGraph(0, Seq(0, 0, 0, 0), Seq((0, 1, 0), (1, 2, 0), (2, 3, 0)))
    val star = LabeledGraph(0, Seq(0, 0, 0, 0), Seq((0, 1, 0), (0, 2, 0), (0, 3, 0)))
    assert(key(path) != key(star))
  }

  test("isMin accepts canonical codes and rejects others") {
    val rng = new Random(11)
    (1 to 20).foreach { _ =>
      val g = TestGraphs.randomConnected(rng, 5, 2, 2)
      val min = CanonicalCode.minCodeOf(g)
      assert(CanonicalCode.isMin(min))
    }
    // A deliberately non-canonical 1-edge code: larger label first.
    assert(!CanonicalCode.isMin(Vector(CodeEdge(0, 1, 3, 0, 1))))
  }

  test("isMin rejects a non-minimal multi-edge code") {
    // Path 0-0-1 encoded starting from the label-1 endpoint is not
    // minimal (the canonical form starts at a label-0 endpoint).
    val nonMin = Vector(CodeEdge(0, 1, 1, 0, 0), CodeEdge(1, 2, 0, 0, 0))
    assert(!CanonicalCode.isMin(nonMin))
  }

  /** Lexicographic order of two complete DFS codes of the same graph:
    * `CodeEdge.ordering` at the first differing tuple, where both codes
    * extend the same prefix.
    */
  private def lexCompare(a: Vector[CodeEdge], b: Vector[CodeEdge]): Int =
    a.indices.find(t => a(t) != b(t)).fold(0)(t => CodeEdge.ordering.compare(a(t), b(t)))

  /** The minimum over *all* DFS codes of `g`, by exhaustive right-most
    * extension of every oriented first edge until every edge is used.
    * Returns the minimum and the number of complete codes seen.
    */
  private def bruteForceMinCode(g: LabeledGraph): (Vector[CodeEdge], Int) = {
    var best: Vector[CodeEdge] = null
    var complete = 0
    def grow(code: Vector[CodeEdge], rm: List[Int], nVerts: Int, vmap: Array[Int], eids: Array[Int]): Unit =
      if (code.length == g.numEdges) {
        complete += 1
        if (best == null || lexCompare(code, best) < 0) best = code
      } else
        RightMost.foreachExtension(g, rm, nVerts, vmap, eids) { (ce, w, e) =>
          if (ce.isForward) grow(code :+ ce, DfsCode.extendRmPath(rm, ce), nVerts + 1, vmap :+ w, eids :+ e)
          else grow(code :+ ce, rm, nVerts, vmap, eids :+ e)
        }
    for (e <- 0 until g.numEdges; (u, v) <- Seq((g.src(e), g.dst(e)), (g.dst(e), g.src(e))))
      grow(Vector(CodeEdge(0, 1, g.vertexLabel(u), g.edgeLabel(e), g.vertexLabel(v))),
        List(1, 0), 2, Array(u, v), Array(e))
    (best, complete)
  }

  test("minCodeOf equals the minimum over all DFS codes (brute-force oracle)") {
    val rng = new Random(23)
    (1 to 60).foreach { i =>
      val g = TestGraphs.randomConnected(rng, 3 + rng.nextInt(4), rng.nextInt(3), 1 + rng.nextInt(3), 1 + rng.nextInt(2))
      val (oracle, complete) = bruteForceMinCode(g)
      assert(complete >= 2, s"iteration $i: $g")
      assert(CanonicalCode.minCodeOf(g) == oracle, s"iteration $i: $g")
    }
  }

  test("minCodeOf equals the brute-force minimum on single-label graphs") {
    // One vertex and edge label: every oriented edge matches the minimal
    // first tuple, the carbon-heavy regime of the AIDS-like data.
    val rng = new Random(29)
    val sizes = Seq((4, 2), (5, 3), (6, 2), (6, 4), (7, 3), (8, 2))
    sizes.foreach { case (nV, extra) =>
      (1 to 2).foreach { i =>
        val g = TestGraphs.randomConnected(rng, nV, extra, 1)
        assert(CanonicalCode.minCodeOf(g) == bruteForceMinCode(g)._1, s"n=$nV extra=$extra #$i: $g")
      }
    }
    val tenEdges = TestGraphs.randomConnected(new Random(31), 7, 4, 1)
    assert(tenEdges.numEdges == 10) // 20 oriented edges tie for the first tuple
    assert(CanonicalCode.minCodeOf(tenEdges) == bruteForceMinCode(tenEdges)._1)
  }

  test("isMin agrees with minCodeOf on every right-most extension code") {
    // Both entries are checked against minCodeOf: isMin(code), and the
    // (prefix, rmPath, tuple) entry, whose pre-checks may only reject codes
    // that are not minimal.
    val rng = new Random(37)
    var accepted = 0
    var rejected = 0
    var preRejected = 0
    // Rounds 1-6: one or two vertex labels, two edge labels. Round 7: three
    // edge labels; round 8: one vertex and one edge label, where equal
    // label pairs (R2's and R3's ties) are the rule.
    (1 to 8).foreach { round =>
      val nLabels = if (round % 3 == 0 || round == 8) 1 else 2
      val nEdgeLabels = if (round == 7) 3 else if (round == 8) 1 else 2
      val db = new GraphDb(IndexedSeq.tabulate(4)(i =>
        TestGraphs.randomConnected(rng, 6 + rng.nextInt(3), 1 + rng.nextInt(3), nLabels, nEdgeLabels, id = i)))
      val eMax = 4
      val en = new Enumerator(db, eMax)
      TestGraphs.nodes(en).filter(_.numEdges < eMax).foreach { n =>
        val exts = scala.collection.mutable.LinkedHashSet.empty[CodeEdge]
        n.embeddings.foreach { emb =>
          RightMost.foreachExtension(db.graphs(emb.graphIdx), n.rmPath, n.nVerts, emb.vmap, emb.eids) {
            (ce, _, _) => exts += ce
          }
        }
        exts.foreach { ce =>
          val c = n.code :+ ce
          val expected = CanonicalCode.minCodeOf(DfsCode.toGraph(c)) == c
          assert(CanonicalCode.isMin(c) == expected, s"round $round: ${DfsCode.key(c)}")
          assert(CanonicalCode.isMin(n.code, n.rmPath, ce.i, ce.j, ce.li, ce.le, ce.lj) == expected,
            s"round $round, tuple entry: ${DfsCode.key(c)}")
          if (!CanonicalCode.passesPreChecks(n.code, n.rmPath, ce.i, ce.j, ce.li, ce.le, ce.lj)) {
            assert(!expected, s"round $round: pre-checks reject the minimal ${DfsCode.key(c)}")
            preRejected += 1
          }
          if (expected) accepted += 1 else rejected += 1
        }
      }
    }
    assert(accepted > 100 && rejected > 100, s"accepted $accepted, rejected $rejected")
    assert(preRejected > 50 && preRejected < rejected, s"pre-checks rejected $preRejected of $rejected")
  }

  test("each pre-check rejects a non-minimal code; an equal label pair is kept") {
    def rejectedByPreCheck(prefix: Vector[CodeEdge], ce: CodeEdge): Unit = {
      val rm = rmPath(prefix)
      val code = prefix :+ ce
      assert(!CanonicalCode.passesPreChecks(prefix, rm, ce.i, ce.j, ce.li, ce.le, ce.lj), DfsCode.key(code))
      assert(!CanonicalCode.isMin(prefix, rm, ce.i, ce.j, ce.li, ce.le, ce.lj), DfsCode.key(code))
      assert(!CanonicalCode.isMin(code), DfsCode.key(code))
      assert(CanonicalCode.minCodeOf(DfsCode.toGraph(code)) != code, DfsCode.key(code))
    }
    // R1: path 1-1-0; the new edge read from its label-0 end, (0, 0, 1), is
    // below the first tuple's (1, 0, 1).
    rejectedByPreCheck(Vector(CodeEdge(0, 1, 1, 0, 1)), CodeEdge(1, 2, 1, 0, 0))
    // R2: pendant 0-1 on the triangle 1-2-3. The back edge 3 -> 1 has
    // (le, l_3) = (1, 0), below (1, 1) of the right-most-path edge 1 -> 2:
    // walking 1 -> 3 first is smaller. R1 passes: (0, 1, 0) > (0, 0, 0).
    rejectedByPreCheck(Vector(CodeEdge(0, 1, 0, 0, 0), CodeEdge(1, 2, 0, 1, 1), CodeEdge(2, 3, 1, 0, 0)),
      CodeEdge(3, 1, 0, 1, 0))
    // R3: the forward edge 1 -> 3 has (le, l_3) = (1, 0), below (1, 1) of
    // 1 -> 2 on the right-most path.
    rejectedByPreCheck(Vector(CodeEdge(0, 1, 0, 0, 0), CodeEdge(1, 2, 0, 1, 1)), CodeEdge(1, 3, 0, 1, 0))

    // Equal pair: the triangle's closing edge 2 -> 0 has (le, l_2) =
    // (le1, l_1) of 0 -> 1. R2 must keep it; the code is the minimum.
    val prefix = Vector(CodeEdge(0, 1, 0, 5, 0), CodeEdge(1, 2, 0, 5, 0))
    val close = CodeEdge(2, 0, 0, 5, 0)
    val rm = rmPath(prefix)
    assert(CanonicalCode.passesPreChecks(prefix, rm, 2, 0, 0, 5, 0))
    assert(CanonicalCode.isMin(prefix, rm, 2, 0, 0, 5, 0))
    assert(CanonicalCode.minCodeOf(DfsCode.toGraph(prefix :+ close)) == prefix :+ close)

    // An empty prefix is the 1-edge rule: smaller vertex label first.
    assert(CanonicalCode.isMin(Vector.empty, Nil, 0, 1, 1, 0, 3))
    assert(!CanonicalCode.isMin(Vector.empty, Nil, 0, 1, 3, 0, 1))
  }

  test("minCodeOf handles graphs with more than 64 edges and vertices") {
    val rng = new Random(41)
    // A 6x8 grid (82 edges, 48 vertices) with random labels, and a
    // single-label 70-cycle with one chord (71 edges, 70 vertices).
    val grid = LabeledGraph(0, Seq.fill(48)(rng.nextInt(2)),
      (0 until 48).flatMap { v =>
        val (r, c) = (v / 8, v % 8)
        (if (c < 7) Seq((v, v + 1, rng.nextInt(2))) else Nil) ++
          (if (r < 5) Seq((v, v + 8, rng.nextInt(2))) else Nil)
      })
    val ring = LabeledGraph(0, Seq.fill(70)(0), (0 until 70).map(v => (v, (v + 1) % 70, 0)) :+ ((0, 35, 0)))
    Seq(grid, ring).foreach { g =>
      assert(g.numEdges > 64)
      val code = CanonicalCode.minCodeOf(g)
      assert(code.length == g.numEdges)
      assert(CanonicalCode.isMin(code))
      assert(TestGraphs.labelSignature(DfsCode.toGraph(code)) == TestGraphs.labelSignature(g))
      assert(code == CanonicalCode.minCodeOf(TestGraphs.permuted(g, rng)))
    }
  }

  test("DfsCode.key/parse round-trip") {
    val rng = new Random(3)
    (1 to 10).foreach { _ =>
      val code = CanonicalCode.minCodeOf(TestGraphs.randomConnected(rng, 6, 3, 3, 2))
      assert(DfsCode.parse(DfsCode.key(code)) == code)
    }
  }

  test("rmPath recomputation matches incremental maintenance") {
    val rng = new Random(5)
    (1 to 10).foreach { _ =>
      val code = CanonicalCode.minCodeOf(TestGraphs.randomConnected(rng, 6, 2, 2))
      var inc: List[Int] = List(1, 0)
      code.drop(1).foreach(e => if (e.isForward) inc = DfsCode.extendRmPath(inc, e))
      assert(inc == rmPath(code))
    }
  }

  test("toGraph preserves code edge order") {
    val code = Vector(CodeEdge(0, 1, 0, 0, 1), CodeEdge(1, 2, 1, 0, 2))
    val g = DfsCode.toGraph(code)
    assert(g.src.toSeq == Seq(0, 1) && g.dst.toSeq == Seq(1, 2))
    assert(g.vertexLabels.toSeq == Seq(0, 1, 2))
  }

  test("numVertices from code") {
    val code = Vector(CodeEdge(0, 1, 0, 0, 1), CodeEdge(1, 2, 1, 0, 2), CodeEdge(2, 0, 2, 0, 0))
    assert(DfsCode.numVertices(code) == 3)
  }
}
