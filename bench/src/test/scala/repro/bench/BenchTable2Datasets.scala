package repro.bench

import repro.SparkSpec
import repro.exp.Experiments
import repro.exp.Experiments.{bench => B}

/** Table 2 — dataset statistics of the synthetic AIDS / eMol / PubChem
  * stand-ins (paper: AIDS 40K, eMol 10K, PubChem 1M; ours scaled, same
  * per-graph shape). Paper values recorded in EXPERIMENTS.md.
  */
class BenchTable2Datasets extends SparkSpec {

  test("Table 2: dataset statistics") {
    BenchShared.banner("Table 2: Datasets (paper: AIDS E_max=251 V_max=222 E_avg=27.3 V_avg=25.4; " +
      "eMol 104/100/15.9/15.5; PubChem 838/801/43.8/42.3)")
    val rows = Experiments.table2(spark, B)
    Experiments.renderTable2(rows).foreach(println)
    val byName = rows.map(r => r.name -> r).toMap

    // Shape assertions against Table 2: per-graph averages must land near
    // the paper's (graph counts are intentionally scaled).
    assert(math.abs(byName("AIDS").vAvg - 25.4) < 4.0)
    assert(math.abs(byName("eMol").vAvg - 15.5) < 3.0)
    assert(math.abs(byName("PubChem").vAvg - 42.3) < 6.0)
    // E_avg slightly above V_avg (rings), as in all three paper datasets.
    rows.foreach(r => assert(r.eAvg >= r.vAvg - 1.5))
    // Ordering of dataset "graph size": eMol < AIDS < PubChem.
    assert(byName("eMol").vAvg < byName("AIDS").vAvg)
    assert(byName("AIDS").vAvg < byName("PubChem").vAvg)
    // Heavy tails: max far above average.
    rows.foreach(r => assert(r.vMax > 2 * r.vAvg))
  }
}
