package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.{MoleculeGen, SampleDb}
import repro.enumeration.Enumerator
import repro.exp.Experiments

class BaselinesSpec extends AnyFunSuite {

  private val k = 3
  private val eMax = 3

  test("ALL_g matches greedy over the exhaustively enumerated space") {
    val res = Baselines.allG(SampleDb.db, k, eMax)
    assert(res.patterns.size <= k)
    assert(res.coverage == res.patterns.flatMap(_.cover).toSet.size)
  }

  test("ALL_g achieves (1 - 1/e) of OPT") {
    val opt = Baselines.optimal(SampleDb.db, k, eMax)
    val allg = Baselines.allG(SampleDb.db, k, eMax)
    assert(allg.coverage.toDouble >= (1 - 1 / math.E) * opt.coverage - 1e-9)
  }

  test("FSG_g only selects frequent patterns") {
    val supMin = 0.5 // at least 2 of the 4 sample graphs
    val res = Baselines.fsgG(SampleDb.db, k, eMax, supMin)
    val threshold = Baselines.supportCount(SampleDb.db, supMin)
    res.patterns.foreach(p => assert(p.support >= threshold))
  }

  test("FSG_g never beats ALL_g on coverage") {
    val allg = Baselines.allG(SampleDb.db, k, eMax)
    val fsgg = Baselines.fsgG(SampleDb.db, k, eMax, 0.5)
    assert(fsgg.coverage <= allg.coverage)
  }

  test("ALL_t (swapping) reaches at least 1/4 of OPT") {
    val opt = Baselines.optimal(SampleDb.db, k, eMax)
    // ALL_t streams the full space through swapping: exactly TED_BASE.
    val allt = Ted.base(SampleDb.db, TedConfig(k = k, eMax = eMax))
    assert(allt.coverage * 4 >= opt.coverage)
  }

  test("FSG_t restricts the swap stream to frequent patterns") {
    val res = Baselines.fsgT(SampleDb.db, k, eMax, 0.5)
    val threshold = Baselines.supportCount(SampleDb.db, 0.5)
    res.patterns.foreach(p => assert(p.support >= threshold))
  }

  test("supportCount converts ratios, clamped at 1") {
    assert(Baselines.supportCount(SampleDb.db, 0.5) == 2)
    assert(Baselines.supportCount(SampleDb.db, 0.3) == 2) // ceil(1.2)
    assert(Baselines.supportCount(SampleDb.db, 0.0) == 1)
  }

  test("supportCount rejects supMin outside [0, 1], and so does each method that takes supMin") {
    val db = SampleDb.db
    assert(Baselines.supportCount(db, 1.0) == db.numGraphs)
    Seq(-0.5, 1.5, Double.NaN).foreach { s =>
      Seq[(String, () => Any)](
        "supportCount" -> (() => Baselines.supportCount(db, s)),
        "fsgG" -> (() => Baselines.fsgG(db, k, eMax, s)),
        "fsgT" -> (() => Baselines.fsgT(db, k, eMax, s)),
        "formulate" -> (() => Vqf.formulate(SampleDb.g1, Nil, db, s)),
        "vqfSets" -> (() => Experiments.vqfSets(db, k, eMax, s)),
      ).foreach { case (name, run) =>
        val e = intercept[IllegalArgumentException](run())
        assert(e.getMessage.contains(s"supMin must lie in [0, 1], got $s"), s"$name at supMin $s")
      }
    }
  }

  test("ALL_g, FSG_g, FSG_t and OPT reject k < 1") {
    val db = SampleDb.db
    Seq(0, -1).foreach { bad =>
      Seq[(String, () => RunResult)](
        "allG" -> (() => Baselines.allG(db, bad, eMax)),
        "fsgG" -> (() => Baselines.fsgG(db, bad, eMax, 0.5)),
        "optimal" -> (() => Baselines.optimal(db, bad, eMax)),
      ).foreach { case (name, run) =>
        val e = intercept[IllegalArgumentException](run())
        assert(e.getMessage.contains(s"k must be at least 1, got $bad"), s"$name at k $bad")
      }
      val e = intercept[IllegalArgumentException](Baselines.fsgT(db, bad, eMax, 0.5))
      assert(e.getMessage.contains(s"k must lie in [1, 64], got $bad"), s"fsgT at k $bad")
    }
  }

  test("timeout reports INF-style result") {
    val db = MoleculeGen.db(MoleculeGen.aidsLike(60))
    val res = Baselines.allG(db, k, eMax = 10, timeoutMillis = 20)
    assert(res.timedOut)
  }

  test("topKFrequent is ordered by support and excludes single edges") {
    val db = SampleDb.db
    val pool = new Enumerator(db, eMax, Baselines.supportCount(db, 0.3)).collectAll()
      .filter(_.numEdges >= 2)
    val fs = Baselines.topKFrequent(db, pool, 5)
    assert(fs.size == math.min(5, pool.size) && fs.nonEmpty)
    assert(fs.forall(_.numEdges >= 2))
    assert(fs.map(_.support) == fs.map(_.support).sorted.reverse)
    // No pattern left out of the pool ranks above the last one taken.
    val taken = fs.map(_.key).toSet
    pool.filterNot(n => taken(n.key)).foreach { n =>
      assert(n.support < fs.last.support ||
        (n.support == fs.last.support && n.numEdges <= fs.last.numEdges), n.key)
    }
  }

  test("edge-diversified patterns can include infrequent subgraphs (Example 2)") {
    // On the sample db with k=3, the S-O structure of G4 (support 1,
    // infrequent at sup_min=0.5) must appear among TED/ALL_g patterns to
    // cover G4's edges.
    val res = Baselines.allG(SampleDb.db, k, eMax)
    val threshold = Baselines.supportCount(SampleDb.db, 0.5)
    assert(res.patterns.exists(_.support < threshold),
      s"expected an infrequent pattern among ${res.patterns.map(p => (p.key, p.support))}")
  }

  test("greedy baseline beats random-k selection on db10 (Example 1 motivation)") {
    val allg = Baselines.allG(SampleDb.db10, k, eMax)
    // Random selection proxy: the k lexicographically-first patterns.
    val en = new Enumerator(SampleDb.db10, eMax)
    val firstK = en.collectAll().take(k)
    val randomCoverage = firstK.flatMap(_.coverGlobal(SampleDb.db10)).toSet.size
    assert(allg.coverage >= randomCoverage)
  }
}
