package repro.data

import repro.graph.{GraphDb, LabeledGraph}

/** A tiny hand-built database in the spirit of the paper's Figure 1: four
  * small "compounds" over atoms C/O/S/N where the right top-3
  * edge-diversified patterns mix frequent and infrequent subgraphs.
  * Used by unit tests for exact, human-checkable assertions.
  */
object SampleDb {

  val C = 0; val O = 1; val S = 2; val N = 3

  /** A graph whose edges all carry label 0. */
  private def unlabeledEdges(id: Long, vlabels: Seq[Int], edges: Seq[(Int, Int)]): LabeledGraph =
    LabeledGraph(id, vlabels, edges.map { case (u, v) => (u, v, 0) })

  /** G1: a C6 ring with two O substituents — benzene-with-oxygens feel. */
  val g1: LabeledGraph = unlabeledEdges(1,
    Seq(C, C, C, C, C, C, O, O),
    Seq((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 6), (3, 7)))

  /** G2: a C5 chain with an O branch — shares the C-C / C-O edges of G1. */
  val g2: LabeledGraph = unlabeledEdges(2,
    Seq(C, C, C, C, C, O),
    Seq((0, 1), (1, 2), (2, 3), (3, 4), (2, 5)))

  /** G3: an N-centred star with C arms plus a C-C tail. */
  val g3: LabeledGraph = unlabeledEdges(3,
    Seq(N, C, C, C, C),
    Seq((0, 1), (0, 2), (0, 3), (3, 4)))

  /** G4: an S-O chain repeated — its edges appear in no other graph. */
  val g4: LabeledGraph = unlabeledEdges(4,
    Seq(S, O, S, O, S),
    Seq((0, 1), (1, 2), (2, 3), (3, 4)))

  val db: GraphDb = new GraphDb(IndexedSeq(g1, g2, g3, g4))

  /** A second, slightly larger crafted database for swap-arithmetic tests:
    * ten graphs mixing rings, chains and stars so that greedy and optimal
    * solutions differ from naive frequency ranking.
    */
  val db10: GraphDb = {
    def ring(id: Long, labels: Seq[Int]): LabeledGraph = {
      val n = labels.length
      unlabeledEdges(id, labels, (0 until n).map(i => (i, (i + 1) % n)))
    }
    def chain(id: Long, labels: Seq[Int]): LabeledGraph =
      unlabeledEdges(id, labels, (0 until labels.length - 1).map(i => (i, i + 1)))
    def star(id: Long, centre: Int, arms: Seq[Int]): LabeledGraph =
      unlabeledEdges(id, centre +: arms, arms.indices.map(i => (0, i + 1)))

    new GraphDb(IndexedSeq(
      ring(1, Seq(C, C, C, C, C, C)),
      ring(2, Seq(C, C, C, C, C, O)),
      chain(3, Seq(C, C, C, O, C)),
      chain(4, Seq(O, C, C, C, O)),
      star(5, N, Seq(C, C, C)),
      star(6, N, Seq(C, C, O)),
      chain(7, Seq(S, O, S, O)),
      ring(8, Seq(C, C, O, C, C, O)),
      chain(9, Seq(N, C, C, N)),
      star(10, C, Seq(O, O, N, S)),
    ))
  }
}
