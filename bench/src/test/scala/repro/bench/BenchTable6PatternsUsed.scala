package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Vqf
import repro.exp.Experiments

/** Table 6 — number of patterns usable per query in VQF for FS, the
  * CATAPULT proxy and TED (k=12 sets), with the "at least one infrequent
  * pattern used" marker, plus the Figure-16-style step counts (the QFT
  * proxy: the paper's formulation time is proportional to steps).
  * Paper: TED uses the most patterns on every query (e.g., PubChem Q5:
  * FS 2, CATAPULT 2, TED 5) and infrequent patterns are used on 5 of 10
  * queries.
  */
class BenchTable6PatternsUsed extends AnyFunSuite {

  test("Table 6: number of patterns used in VQF") {
    BenchShared.banner("Table 6: Patterns used in VQF |P_U| (paper PubChem: FS {2,3,3,4,2}, " +
      "CATAPULT {2,3,4,5,2}, TED {5,5,6,7,5}; AIDS: FS {1,1,2,1,2}, CATAPULT {2,1,1,2,3}, TED {3,2,4,3,6})")
    val all = BenchShared.pubChem.rows ++ BenchShared.aids.rows
    Experiments.renderTable6(all).foreach(println)
    // Shape: TED's diversified patterns are usable at least as often as
    // FS's on average (the paper's Table-6 headline). Steps on these
    // *typical* (frequent-structure) queries may favour FS — that is
    // exactly the paper's Figure-17 rho=0 regime, checked separately.
    val avgTedUsed = all.map(_.tedUsed).sum.toDouble / all.size
    val avgFsUsed = all.map(_.fsUsed).sum.toDouble / all.size
    assert(avgTedUsed >= avgFsUsed,
      s"TED avg used $avgTedUsed should be >= FS avg used $avgFsUsed")
    assert(avgTedUsed >= all.map(_.catapultUsed).sum.toDouble / all.size,
      "TED should use at least as many patterns as the CATAPULT proxy")
    val rr = Vqf.reductionRatio(all.map(_.fsSteps).sum, all.map(_.tedSteps).sum)
    println(f"Aggregate RR vs FS on typical queries: $rr%.3f (paper Fig 17: <= 0 at rho=0)")
  }

  test("Fig 17 shape: RR vs FS grows with the infrequent-query fraction rho") {
    BenchShared.banner("Exp 7 / Fig 17: RR between TED and FS over QS_rho (paper: RR < 0 at rho=0, > 0 from rho~0.2)")
    val rows = Experiments.fig17(BenchShared.aids.db, BenchShared.aids.sets,
      rhos = Seq(0.0, 0.2, 0.4, 0.6))
    rows.foreach(r => println(f"rho=${r.rho}%.1f Steps_FS=${r.stepsFs}%5d Steps_TED=${r.stepsTed}%5d RR=${r.rr}%+.3f"))
    // Shape: RR improves as infrequent queries enter the mix.
    assert(rows.last.rr > rows.head.rr - 0.02,
      s"RR should improve with rho: ${rows.map(_.rr)}")
  }
}
