package repro.exp

import repro.SparkSpec
import repro.data.MoleculeGen

/** Exercises the table harness end-to-end at tiny scale — the same code
  * the per-table jobs and bench suites run at bench scale.
  */
class ExperimentsSpec extends SparkSpec {

  private val tiny = Experiments.tiny

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

  test("tables56 produce per-query formulation rows") {
    val db = MoleculeGen.db(MoleculeGen.aidsLike(tiny.aidsSmall))
    val rows = Experiments.tables56("AIDS", db, k = 6, eMax = tiny.eMax,
      supMin = tiny.supMin, nQueries = 3, minE = 8, maxE = 12)
    assert(rows.size == 3)
    rows.foreach { r =>
      assert(r.queryEdges >= 1)
      assert(r.tedSteps >= 1 && r.fsSteps >= 1 && r.catapultSteps >= 1)
      assert(r.tedSteps <= r.queryEdges && r.fsSteps <= r.queryEdges + 1)
    }
    assert(Experiments.renderTable6(rows).tail.map(_.takeWhile(_ != ' ')) == rows.map(_.query))
  }

  test("table7 reports importance counts within bounds") {
    val db = MoleculeGen.db(MoleculeGen.aidsLike(tiny.aidsSmall))
    val repoDb = MoleculeGen.db(MoleculeGen.fragmentRepo(100, seed = 31))
    val repo = repro.core.Vqf.exactRepository(repoDb)
    val rows = Experiments.table7(db, repo, k = 5, eMax = tiny.eMax,
      supMin = tiny.supMin, minEdges = 2)
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
    val r = repro.core.Baselines.allG(db, 3, 10, timeoutMillis = 1)
    assert(Experiments.renderResult(r).contains("INF"))
  }
}
