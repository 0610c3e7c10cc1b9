package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.TestGraphs
import repro.data.{MoleculeGen, SampleDb}
import repro.graph.{GraphDb, LabeledGraph}

class TedSpec extends AnyFunSuite {

  private val cfg = TedConfig(k = 3, eMax = 3)

  test("swap threshold implements Equation 1 for Swap_1 (alpha=1)") {
    assert(Ted.swapThreshold(1.0, loss = 2, totalCoverage = 100, k = 5) == 4.0)
  }

  test("swap threshold implements Equation 1 for Swap_2 (alpha=0)") {
    assert(Ted.swapThreshold(0.0, loss = 2, totalCoverage = 100, k = 5) == 22.0)
  }

  test("swap threshold for Swap_alpha interpolates") {
    val t = Ted.swapThreshold(0.5, loss = 2, totalCoverage = 100, k = 5)
    assert(t == 1.5 * 2 + 0.5 * 20)
  }

  test("TED returns at most k patterns, each within eMax") {
    val res = Ted.full(SampleDb.db, cfg)
    assert(res.patterns.size <= cfg.k)
    assert(res.patterns.forall(_.numEdges <= cfg.eMax))
  }

  test("TED patterns are connected and canonical") {
    val res = Ted.full(SampleDb.db, cfg)
    res.patterns.foreach { p =>
      assert(TestGraphs.isConnected(p.graph))
      assert(repro.graph.CanonicalCode.isMin(p.code))
    }
  }

  test("reported coverage equals the union of pattern cover sets") {
    val res = Ted.full(SampleDb.db, cfg)
    val union = res.patterns.flatMap(_.cover).toSet
    assert(res.coverage == union.size)
  }

  test("cover sets agree with independent SubIso recomputation") {
    val res = Ted.full(SampleDb.db, cfg)
    res.patterns.foreach { p =>
      assert(p.cover.toSet == TestGraphs.coverViaSubIso(p.graph, SampleDb.db))
    }
  }

  test("coverage rate is coverage / total edges") {
    val res = Ted.full(SampleDb.db, cfg)
    assert(math.abs(res.coverageRate - res.coverage.toDouble / SampleDb.db.totalEdges) < 1e-12)
  }

  test("BASE achieves the 1/4 guarantee against OPT on the sample db") {
    val opt = Baselines.optimal(SampleDb.db, cfg.k, cfg.eMax)
    val base = Ted.base(SampleDb.db, cfg)
    assert(base.coverage * 4 >= opt.coverage)
  }

  test("TED achieves the 1/4 guarantee against OPT on db10") {
    val opt = Baselines.optimal(SampleDb.db10, TedConfig(k = 2, eMax = 2).k, 2)
    val ted = Ted.full(SampleDb.db10, TedConfig(k = 2, eMax = 2))
    assert(ted.coverage * 4 >= opt.coverage)
  }

  test("TED far exceeds 1/4 in practice (paper reports >= 0.945 OPT)") {
    val opt = Baselines.optimal(SampleDb.db, cfg.k, cfg.eMax)
    val ted = Ted.full(SampleDb.db, cfg)
    assert(ted.coverage.toDouble >= 0.75 * opt.coverage,
      s"TED ${ted.coverage} vs OPT ${opt.coverage}")
  }

  test("PRM does not materially reduce final coverage (Theorem 3)") {
    val rng = new Random(3)
    (1 to 5).foreach { i =>
      val graphs = (1 to 6).map(j => TestGraphs.randomConnected(rng, 8, 3, 3, 1, id = j))
      val db = new GraphDb(graphs)
      val base = Ted.base(db, cfg)
      val prm = Ted.prm(db, cfg)
      assert(prm.coverage >= (0.9 * base.coverage).toInt,
        s"iteration $i: PRM ${prm.coverage} vs BASE ${base.coverage}")
    }
  }

  test("PRM enumerates no more than BASE") {
    val db = MoleculeGen.db(MoleculeGen.aidsLike(20))
    val c = TedConfig(k = 3, eMax = 4)
    val base = Ted.base(db, c)
    val prm = Ted.prm(db, c)
    assert(prm.enumerated <= base.enumerated)
  }

  test("IPS initial patterns are within budget and distinct") {
    val db = SampleDb.db
    val en = new repro.enumeration.Enumerator(db, cfg.eMax)
    val init = Ips.initialPatterns(en, db, cfg)
    assert(init.size <= cfg.k)
    assert(init.map(_.key).distinct.size == init.size)
    assert(init.forall(_.numEdges <= cfg.eMax))
  }

  test("IPS takes its k seeds among the climbed patterns of at least MinE edges") {
    // The ring's climb stops at its 1-edge root (a 2-path covers no more
    // than the edge's 6), the path's climbs reach 3 and 2 edges.
    val path = LabeledGraph(0, Seq(1, 2, 3, 4), Seq((0, 1, 0), (1, 2, 0), (2, 3, 0)))
    val ring = LabeledGraph(1, Seq.fill(6)(0), (0 until 6).map(i => (i, (i + 1) % 6, 0)))
    val db = TestGraphs.db(path, ring)
    val mine2 = TedConfig(k = 1, eMax = 4, minEdges = 2)
    val init = Ips.initialPatterns(new repro.enumeration.Enumerator(db, mine2.eMax), db, mine2)
    assert(init.map(_.key) == Seq("0,1,1,0,2;1,2,2,0,3;2,3,3,0,4"))
    assert(init.head.coverage(db) == 3)
  }

  test("IPS hill climbing never returns a pattern worse than its root") {
    val db = SampleDb.db10
    val en = new repro.enumeration.Enumerator(db, 3)
    val roots = en.roots
    val init = Ips.initialPatterns(en, db, TedConfig(k = roots.size, eMax = 3))
    // Each selected pattern's coverage >= the weakest root's coverage.
    val worstRoot = roots.map(_.coverage(db)).min
    assert(init.forall(_.coverage(db) >= math.min(worstRoot, init.map(_.coverage(db)).min)))
  }

  test("swap criteria variants all produce valid results") {
    Seq(1.0, 0.0, 0.5).foreach { alpha =>
      val res = Ted.full(SampleDb.db, cfg.copy(alpha = alpha))
      assert(res.patterns.nonEmpty)
      assert(res.coverage > 0 && res.coverage <= SampleDb.db.totalEdges)
    }
  }

  test("timeout produces a timedOut result") {
    val rng = new Random(9)
    val graphs = (1 to 15).map(i => TestGraphs.randomConnected(rng, 14, 6, 2, 1, id = i))
    val db = new GraphDb(graphs)
    val res = Ted.base(db, TedConfig(k = 3, eMax = 12, timeoutMillis = 20))
    assert(res.timedOut)
  }

  test("methods agree on the trivial database") {
    val db = TestGraphs.db(SampleDb.g4) // one chain S-O-S-O-S
    val c = TedConfig(k = 1, eMax = 2)
    val ted = Ted.full(db, c)
    val opt = Baselines.optimal(db, 1, 2)
    // Best single pattern of <=2 edges: S-O-S (or O-S-O) covering all 4.
    assert(opt.coverage == 4)
    assert(ted.coverage == 4)
  }

  test("minEdges keeps sub-minimum patterns out of the result set") {
    val res = Ted.full(SampleDb.db, cfg.copy(minEdges = 2))
    assert(res.patterns.nonEmpty)
    assert(res.patterns.forall(_.numEdges >= 2))
    // Still bounded above by eMax.
    assert(res.patterns.forall(_.numEdges <= cfg.eMax))
  }

  test("minEdges=1 and default behave identically") {
    val a = Ted.full(SampleDb.db, cfg)
    val b = Ted.full(SampleDb.db, cfg.copy(minEdges = 1))
    assert(a.coverage == b.coverage)
  }

  test("enumerated counter counts maintained patterns") {
    val res = Ted.base(SampleDb.db, cfg)
    assert(res.enumerated > 0)
  }

  test("BASE maintains each pattern of the search space once") {
    val db = SampleDb.db10
    val res = Ted.base(db, cfg)
    assert(res.enumerated == TestGraphs.nodes(new repro.enumeration.Enumerator(db, cfg.eMax)).size)
  }

  test("an IPS seed re-reached by the DFS is not maintained twice") {
    val rng = new Random(13)
    (1 to 5).foreach { i =>
      val db = new GraphDb((1 to 6).map(j => TestGraphs.randomConnected(rng, 7, 2, 2, 1, id = j)))
      val res = Ted.full(db, cfg)
      assert(res.patterns.map(_.key).distinct.size == res.patterns.size, s"iteration $i")
      assert(res.coverage == res.patterns.flatMap(_.cover).toSet.size, s"iteration $i")
    }
  }

  test("run rejects eMax < 1 before enumerating") {
    val e = intercept[IllegalArgumentException](Ted.run(SampleDb.db, cfg.copy(eMax = 0, minEdges = 0)))
    assert(e.getMessage.contains("eMax must be at least 1"))
  }

  test("run rejects minEdges > eMax before enumerating") {
    val e = intercept[IllegalArgumentException](Ted.full(SampleDb.db, cfg.copy(minEdges = cfg.eMax + 1)))
    assert(e.getMessage.contains("minEdges (4) exceeds eMax (3)"))
  }

  test("config rejects k outside [1, 64]") {
    Seq(0, -1, 65).foreach { k =>
      val e = intercept[IllegalArgumentException](cfg.copy(k = k))
      assert(e.getMessage.contains("k must lie in [1, 64]"), s"k $k")
    }
    assert(TedConfig(k = 1).k == 1 && TedConfig(k = 64).k == 64)
  }

  test("config rejects minSupport < 1") {
    Seq(0, -1).foreach { s =>
      val e = intercept[IllegalArgumentException](cfg.copy(minSupport = s))
      assert(e.getMessage.contains(s"minSupport must be at least 1, got $s"), s"minSupport $s")
    }
  }

  test("run rejects alpha outside [0, 1] before enumerating") {
    Seq(-0.1, 1.5, Double.NaN).foreach { a =>
      val e = intercept[IllegalArgumentException](Ted.base(SampleDb.db, cfg.copy(alpha = a)))
      assert(e.getMessage.contains("alpha must lie in [0, 1]"), s"alpha $a")
    }
  }

  test("index accounting is populated") {
    val res = Ted.full(SampleDb.db, cfg)
    assert(res.indexNanos > 0)
    assert(res.indexBytes > 0)
  }

  test("Pattern.of counts the graphs whose edge ranges the cover touches") {
    // Edge ranges [0, 2), [2, 2) (an edgeless graph) and [2, 5).
    val edgeOffset = Array(0, 2, 2, 5)
    val code = Vector(repro.graph.CodeEdge(0, 1, 0, 0, 0))
    assert(Pattern.of(code, Array(0, 1, 3, 4), edgeOffset).support == 2)
    assert(Pattern.of(code, Array(1, 2), edgeOffset).support == 2)
    assert(Pattern.of(code, Array(4), edgeOffset).support == 1)
    assert(Pattern.of(code, Array.empty, edgeOffset).support == 0)
  }

  test("support recorded on patterns matches containing graphs") {
    var multiGraph = 0
    (SampleDb.db +: TestGraphs.randomDbs(17)).foreach { db =>
      Seq(Ted.full _, Ted.prm _, Ted.base _).foreach { method =>
        method(db, cfg).patterns.foreach { p =>
          val expected = db.graphs.count(g => repro.iso.SubIso.exists(p.graph, g))
          assert(p.support == expected, s"pattern ${p.key}")
          if (expected > 1) multiGraph += 1
        }
      }
    }
    assert(multiGraph > 0)
  }
}
