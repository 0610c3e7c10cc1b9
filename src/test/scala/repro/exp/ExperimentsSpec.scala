package repro.exp

import repro.SparkSpec
import repro.core.{Baselines, Ted, TedConfig, Vqf}
import repro.data.MoleculeGen

/** Exercises the table harness end-to-end at tiny scale — the same code
  * the bench suites run at bench scale.
  */
class ExperimentsSpec extends SparkSpec {

  private val tiny = Experiments.Scale(
    aidsSmall = 30, aidsLarge = 60,
    eMolSmall = 20, eMolLarge = 40,
    pubSmall = 20, pubLarge = 40,
    k = 3, eMax = 4, supMin = 0.2,
    timeoutMillis = 60000L,
  )

  test("table2 reports one row per dataset with sane stats") {
    val rows = Experiments.table2(spark, tiny)
    assert(rows.map(_.name) == Seq("AIDS", "eMol", "PubChem"))
    rows.foreach { r =>
      assert(r.d > 0 && r.eMax >= r.eAvg && r.vMax >= r.vAvg)
      assert(r.eAvg > 0 && r.vAvg > 0)
    }
    assert(Experiments.renderTable2(rows).map(_.take(7)) == Seq("Dataset", "AIDS   ", "eMol   ", "PubChem"))
  }

  test("tables34 produce per-dataset PES rows") {
    val rows = Experiments.tables34(tiny)
    assert(rows.size == 6)
    rows.foreach { r =>
      assert(!r.timedOut, s"${r.dataset} timed out at tiny scale")
      assert(r.indexKB > 0)
      assert(r.indexPctOfData > 0)
      assert(r.indexTimeS >= 0)
      assert(r.indexPctOfTotal >= 0 && r.indexPctOfTotal <= 100)
      assert(r.coverageRate > 0 && r.coverageRate <= 1)
    }
    val lines = Experiments.renderTables34(rows)
    assert(lines.size == 7 && lines.head.contains("Index KB") && lines.head.contains("Index Time s"))
  }

  private lazy val vqfDb = MoleculeGen.db(MoleculeGen.aidsLike(tiny.aidsSmall))
  private lazy val vqfSets = Experiments.vqfSets(vqfDb, k = 6, eMax = tiny.eMax, supMin = tiny.supMin)

  test("vqfSets mines k patterns per method, each with at least minEdges edges") {
    val frequentAt = Baselines.supportCount(vqfDb, tiny.supMin)
    val ted = Ted.full(vqfDb, TedConfig(k = 6, eMax = tiny.eMax, minEdges = 3))
    assert(vqfSets.ted.map(_.key) == ted.patterns.map(_.key))
    Seq(vqfSets.ted, vqfSets.fs, vqfSets.catapult).foreach { ps =>
      assert(ps.size == 6)
      ps.foreach(p => assert(p.numEdges >= 3 && p.numEdges <= tiny.eMax, p.key))
    }
    (vqfSets.fs ++ vqfSets.catapult).foreach(p => assert(p.support >= frequentAt, p.key))
  }

  test("tables56 produce per-query formulation rows") {
    val queries = Vqf.sampleQueries(vqfDb, 3, minE = 8, maxE = 12)
    val rows = Experiments.tables56("AIDS", vqfDb, vqfSets, queries)
    assert(rows.size == 3)
    rows.foreach { r =>
      assert(r.queryEdges >= 1)
      assert(r.tedSteps >= 1 && r.fsSteps >= 1 && r.catapultSteps >= 1)
      assert(r.tedSteps <= r.queryEdges && r.fsSteps <= r.queryEdges + 1)
    }
    assert(Experiments.renderTable6(rows).tail.map(_.takeWhile(_ != ' ')) == rows.map(_.query))
  }

  test("tables56 formulates exactly the queries it is given, in order") {
    val queries = Vqf.sampleQueries(vqfDb, 4, minE = 5, maxE = 14, seed = 3)
    assert(queries.map(_.numEdges).distinct.size > 1)
    Seq(queries, queries.reverse, queries.take(1)).foreach { qs =>
      val rows = Experiments.tables56("AIDS", vqfDb, vqfSets, qs)
      assert(rows.map(_.query) == qs.indices.map(i => s"AIDS_Q${i + 1}"))
      assert(rows.map(_.queryEdges) == qs.map(_.numEdges))
    }
  }

  test("fig17 gives one row per rho, in order, with RR from its steps, the same for the same seed") {
    val rhos = Seq(0.5, 0.0, 1.0, 0.25)
    def run() = Experiments.fig17(vqfDb, vqfSets, rhos, nQueries = 8, minQE = 4, maxQE = 8, seed = 5)
    val rows = run()
    assert(rows.map(_.rho) == rhos)
    rows.foreach { r =>
      assert(r.stepsFs >= 8 && r.stepsTed >= 8, r)
      assert(r.rr == Vqf.reductionRatio(r.stepsFs, r.stepsTed), r)
    }
    assert(run() == rows)
  }

  test("fig17 rejects nQueries < 1") {
    val e = intercept[IllegalArgumentException](Experiments.fig17(vqfDb, vqfSets, Seq(0.5), nQueries = 0))
    assert(e.getMessage.contains("nQueries must be at least 1, got 0"))
  }

  test("fig17 rejects minQE < 1") {
    val e = intercept[IllegalArgumentException](Experiments.fig17(vqfDb, vqfSets, Seq(0.5), minQE = 0))
    assert(e.getMessage.contains("minQE must be at least 1, got 0"))
  }

  test("fig17 rejects minQE > maxQE") {
    val e = intercept[IllegalArgumentException](Experiments.fig17(vqfDb, vqfSets, Seq(0.5), minQE = 9, maxQE = 8))
    assert(e.getMessage.contains("minQE (9) exceeds maxQE (8)"))
  }

  test("fig17 rejects a rho outside [0, 1]") {
    Seq(-0.1, 1.5, Double.NaN).foreach { rho =>
      val e = intercept[IllegalArgumentException](Experiments.fig17(vqfDb, vqfSets, Seq(0.5, rho)))
      assert(e.getMessage.contains(s"rho must lie in [0, 1], got $rho"), s"rho $rho")
    }
  }

  test("table7 reports importance counts within bounds") {
    val repoDb = MoleculeGen.db(MoleculeGen.fragmentRepo(100, seed = 31))
    val repo = Vqf.exactRepository(repoDb)
    val sets = Experiments.vqfSets(vqfDb, k = 5, eMax = tiny.eMax, supMin = tiny.supMin, minEdges = 2)
    val rows = Experiments.table7(sets, repo)
    assert(rows.map(_.method) == Seq("FS", "CATAPULT", "TED"))
    rows.foreach(r => assert(r.important >= 0 && r.important <= r.total))
    assert(Experiments.renderTable7(rows).size == 4)
  }

  test("methodComparison runs all six methods") {
    val db = MoleculeGen.db(MoleculeGen.aidsLike(tiny.aidsSmall))
    val res = Experiments.methodComparison(db, tiny.k, tiny.eMax, tiny.supMin,
      tiny.timeoutMillis)
    assert(res.map(_.method) == Seq("ALL_g", "FSG_g", "FSG_t", "BASE", "PRM", "TED"))
    val byMethod = res.map(r => r.method -> r).toMap
    // Shape assertions from the paper's Result 1: TED comparable to ALL_g,
    // FSG variants no better than ALL_g.
    assert(byMethod("TED").coverage >= (0.7 * byMethod("ALL_g").coverage).toInt)
    assert(byMethod("FSG_g").coverage <= byMethod("ALL_g").coverage)
  }

  test("distComparison wraps DistTed") {
    val db = MoleculeGen.db(MoleculeGen.aidsLike(20))
    val r = Experiments.distComparison(spark, db, k = 3, eMax = 3,
      timeoutMillis = tiny.timeoutMillis, partitions = 3)
    assert(r.method == "DistTED")
    assert(r.coverage > 0)
  }

  test("renderResult formats INF for timed-out runs") {
    val db = MoleculeGen.db(MoleculeGen.aidsLike(20))
    val r = Baselines.allG(db, 3, 10, timeoutMillis = 1)
    assert(Experiments.renderResult(r).contains("INF"))
  }
}
