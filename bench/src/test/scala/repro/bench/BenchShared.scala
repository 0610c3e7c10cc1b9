package repro.bench

import repro.core.Vqf
import repro.data.MoleculeGen
import repro.exp.Experiments
import repro.exp.Experiments.{bench => B}
import repro.graph.{GraphDb, LabeledGraph}

/** Expensive runs shared across bench suites (all suites execute in one
  * forked JVM, sequentially), computed once and reused.
  */
object BenchShared {

  /** One database of the VQF evaluation: its k=12 pattern sets (the
    * paper's Figure 3 / Table 6 setting) and its five Table-5 queries,
    * which Tables 5, 6 and 7 and Figure 17 all read.
    */
  final class VqfInput(val name: String, val db: GraphDb) {
    lazy val sets: Experiments.VqfSets = Experiments.vqfSets(db, k = 12, eMax = B.eMax,
      supMin = B.supMin, timeoutMillis = B.timeoutMillis)
    lazy val queries: Seq[LabeledGraph] = Vqf.sampleQueries(db, 5, seed = 17)
    lazy val rows: Seq[Experiments.VqfRow] = Experiments.tables56(name, db, sets, queries)
  }

  lazy val pubChem = new VqfInput("PubChem", MoleculeGen.db(MoleculeGen.pubChemLike(B.pubSmall)))
  lazy val aids = new VqfInput("AIDS", MoleculeGen.db(MoleculeGen.aidsLike(B.aidsSmall)))

  def banner(title: String): Unit = {
    println()
    println("=" * 72)
    println(title)
    println("=" * 72)
  }
}
