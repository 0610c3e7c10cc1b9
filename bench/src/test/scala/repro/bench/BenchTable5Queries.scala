package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs

/** Table 5 — the five VQF queries per dataset, the ones Table 6
  * formulates. The paper draws PubChem compounds by CID with |E| in
  * [30, 62]; we sample connected subgraphs from the synthetic databases
  * in the same size band (DESIGN.md §4).
  */
class BenchTable5Queries extends AnyFunSuite {

  test("Table 5: VQF queries") {
    BenchShared.banner("Table 5: Queries (paper |E|: PubChem {34,30,47,52,42}, AIDS {32,34,35,30,62})")
    println(f"${"Query"}%-8s ${"PubChem |E|"}%12s ${"AIDS |E|"}%10s")
    val pub = BenchShared.pubChem.queries
    val aids = BenchShared.aids.queries
    pub.zip(aids).zipWithIndex.foreach { case ((pq, aq), i) =>
      println(f"Q${i + 1}%-7s ${pq.numEdges}%12d ${aq.numEdges}%10d")
    }
    (pub ++ aids).foreach { q =>
      assert(TestGraphs.isConnected(q))
      // Paper band is [30, 62]; allow slight undershoot when a sampled
      // host's tail is smaller than the target (scaled datasets).
      assert(q.numEdges >= 25 && q.numEdges <= 62,
        s"query size ${q.numEdges} far outside the paper's [30, 62] band")
    }
    // Queries span a variety of structures: not all the same size.
    assert(pub.map(_.numEdges).distinct.size >= 3)
    // These are the queries Table 6 formulates, row by row.
    Seq(BenchShared.pubChem, BenchShared.aids).foreach { in =>
      assert(in.rows.map(_.queryEdges) == in.queries.map(_.numEdges), in.name)
    }
  }
}
