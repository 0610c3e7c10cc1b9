package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.Experiments
import repro.exp.Experiments.{bench => B}

/** Tables 3 and 4 — size and maintenance time of the PES-Index, from one
  * set of full TED runs (k=5, E_max=10) over the six scaled dataset
  * variants. Paper: 89 KB–1157 KB absolute, 5.3%–7.6% of the dataset
  * size; 0.25 s–2.85 s, and 0.78%–6.86% of total processing time (always
  * < 7%).
  */
class BenchTables34PesIndex extends AnyFunSuite {

  test("Tables 3-4: PES-Index size and maintenance time") {
    BenchShared.banner("Table 3: Size of PES-Index (paper: AIDS10K 234KB/5.39%, AIDS40K 1008KB/5.31%, " +
      "eMol5K 89KB/5.40%, eMol10K 157KB/5.39%, PubChem10K 428KB/5.80%, PubChem23K 1157KB/7.58%)")
    BenchShared.banner("Table 4: Maintenance Time of PES-Index (paper: AIDS10K 0.5s/6.86%, " +
      "AIDS40K 1.88s/1.00%, eMol5K 0.25s/4.12%, eMol10K 0.37s/3.63%, PubChem10K 1.1s/0.78%, PubChem23K 2.85s/1.39%)")
    val rows = Experiments.tables34(B)
    Experiments.renderTables34(rows).foreach(println)
    rows.foreach { r =>
      assert(!r.timedOut, s"${r.dataset} timed out")
      // Table 3 shape: index is a small-to-moderate fraction of the dataset.
      assert(r.indexKB > 0)
      assert(r.indexPctOfData < 100.0, s"${r.dataset}: index larger than data")
      // Table 4 shape: maintenance is a small share of total time (paper
      // < 7%; we allow < 25% since our total is milliseconds, not
      // kiloseconds).
      assert(r.indexPctOfTotal < 25.0,
        s"${r.dataset}: index time ${r.indexPctOfTotal}% of total")
    }
    // Within a family, the index grows with dataset size and its
    // maintenance time does not collapse.
    rows.grouped(2).foreach { case Seq(small, large) =>
      assert(large.indexKB > small.indexKB,
        s"index should grow with dataset size: ${small.dataset} ${small.indexKB} vs ${large.dataset} ${large.indexKB}")
      assert(large.indexTimeS >= small.indexTimeS * 0.5,
        s"unexpected time collapse: ${small.dataset} -> ${large.dataset}")
    }
  }
}
