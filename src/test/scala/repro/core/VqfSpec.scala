package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.data.{MoleculeGen, SampleDb}
import repro.enumeration.Enumerator
import repro.TestGraphs
import repro.graph.{CanonicalCode, GraphDb, LabeledGraph}
import repro.iso.SubIso

class VqfSpec extends AnyFunSuite {

  private lazy val db = MoleculeGen.db(MoleculeGen.aidsLike(40))

  /** Pattern `g` with its cover set, and so its support, over `pdb`. */
  private def patternOf(g: LabeledGraph, pdb: GraphDb): Pattern =
    Pattern.of(CanonicalCode.minCodeOf(g), TestGraphs.coverViaSubIso(g, pdb).toArray.sorted, pdb.edgeOffset)

  test("sampled queries are connected subgraphs of the database") {
    val qs = Vqf.sampleQueries(db, 5, minE = 8, maxE = 12, seed = 1)
    qs.foreach { q =>
      assert(TestGraphs.isConnected(q))
      assert(q.numEdges >= 1 && q.numEdges <= 12)
      assert(db.graphs.exists(g => SubIso.exists(q, g)), "query must occur in the database")
    }
  }

  test("sampled query sizes respect the requested band when hosts allow") {
    val qs = Vqf.sampleQueries(db, 5, minE = 5, maxE = 8, seed = 2)
    qs.foreach(q => assert(q.numEdges >= 5 && q.numEdges <= 8))
  }

  test("sampling is deterministic in the seed") {
    val a = Vqf.sampleQueries(db, 3, 5, 8, seed = 9).map(TestGraphs.labelSignature)
    val b = Vqf.sampleQueries(db, 3, 5, 8, seed = 9).map(TestGraphs.labelSignature)
    assert(a == b)
  }

  test("formulate counts steps = used patterns + leftover edges") {
    // Query: path C-C-C; pattern set: the C-C edge.
    val q = LabeledGraph(0, Seq(0, 0, 0), Seq((0, 1, 0), (1, 2, 0)))
    val pdb = TestGraphs.db(q)
    val p = patternOf(LabeledGraph(-1, Seq(0, 0), Seq((0, 1, 0))), pdb)
    val f = Vqf.formulate(q, Seq(p), pdb, supMin = 0.1)
    // One pattern placement covers 1 edge, the other edge is manual.
    assert(f.patternsUsed == 1)
    assert(f.steps == 2)
  }

  test("formulate with no usable patterns is all edge-at-a-time") {
    val q = LabeledGraph(0, Seq(0, 0, 0), Seq((0, 1, 0), (1, 2, 0)))
    val pdb = TestGraphs.db(q)
    val p = patternOf(LabeledGraph(-1, Seq(5, 6), Seq((0, 1, 0))), pdb)
    val f = Vqf.formulate(q, Seq(p), pdb, 0.1)
    assert(f.patternsUsed == 0 && f.steps == q.numEdges)
  }

  test("formulate places edge-disjoint images only") {
    // Query is a single triangle; two copies of the 2-edge path both fit,
    // but their images overlap after the first placement claims 2 edges.
    val q = LabeledGraph(0, Seq(0, 0, 0), Seq((0, 1, 0), (1, 2, 0), (2, 0, 0)))
    val pdb = TestGraphs.db(q)
    val pat = patternOf(LabeledGraph(-1, Seq(0, 0, 0), Seq((0, 1, 0), (1, 2, 0))), pdb)
    val f = Vqf.formulate(q, Seq(pat, pat.copy()), pdb, 0.1)
    // First placement covers 2 edges; the second cannot find a disjoint
    // image (only 1 edge left), so steps = 1 pattern + 1 manual edge.
    assert(f.patternsUsed == 1 && f.steps == 2)
  }

  test("more patterns can only reduce steps") {
    val qs = Vqf.sampleQueries(db, 3, 6, 10, seed = 5)
    val ted5 = Ted.full(db, TedConfig(k = 5, eMax = 4)).patterns
    val ted10 = Ted.full(db, TedConfig(k = 10, eMax = 4)).patterns
    qs.foreach { q =>
      val s5 = Vqf.formulate(q, ted5, db, 0.1).steps
      val s10 = Vqf.formulate(q, ted10, db, 0.1).steps
      assert(s10 <= s5 + 2, s"k=10 steps $s10 should not be much worse than k=5 steps $s5")
    }
  }

  test("reduction ratio formula") {
    assert(Vqf.reductionRatio(10, 5) == 0.5)
    assert(Vqf.reductionRatio(10, 12) == -0.2)
    assert(Vqf.reductionRatio(0, 0) == 0.0)
  }

  test("catapult proxy returns k frequent-pool patterns") {
    val threshold = Baselines.supportCount(SampleDb.db, 0.5)
    val pool = new Enumerator(SampleDb.db, 3, threshold).collectAll().filter(_.numEdges >= 2)
    val cat = Vqf.catapultProxy(SampleDb.db, pool, 3, 3)
    assert(cat.size == math.min(3, pool.size) && cat.nonEmpty)
    cat.foreach(p => assert(p.support >= threshold))
    assert(cat.map(_.key).toSet.subsetOf(pool.map(_.key).toSet))
  }

  test("repository membership marks real substructures") {
    val repoDb = MoleculeGen.db(MoleculeGen.fragmentRepo(200, seed = 5))
    val repo = Vqf.exactRepository(repoDb)
    assert(repo.nonEmpty && repo.size <= repoDb.numGraphs)
    // Every whole compound of the repository is important; a nonsense
    // label is not.
    val compounds = repoDb.graphs.map(patternOf(_, repoDb))
    assert(Vqf.bioImportance(compounds, repo) == compounds.size)
    val ted = Ted.full(db, TedConfig(k = 3, eMax = 3)).patterns
    val important = Vqf.bioImportance(ted, repo)
    assert(important >= 0 && important <= ted.size)
    val junkPattern = patternOf(LabeledGraph(-1, Seq(99, 98), Seq((0, 1, 7))), repoDb)
    assert(Vqf.bioImportance(Seq(junkPattern), repo) == 0)
  }

  test("formulation marks infrequent pattern usage") {
    // G4's S-O edge pattern has support 1 (infrequent at 0.5).
    val p = patternOf(LabeledGraph(-1, Seq(SampleDb.O, SampleDb.S), Seq((0, 1, 0))), SampleDb.db)
    assert(p.support == 1)
    val q = SampleDb.g4
    val f = Vqf.formulate(q, Seq(p), SampleDb.db, 0.5)
    assert(f.patternsUsed == 1 && f.usedInfrequent)
  }
}
