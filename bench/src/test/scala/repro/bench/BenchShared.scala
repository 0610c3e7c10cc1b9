package repro.bench

import repro.data.MoleculeGen
import repro.exp.Experiments
import repro.exp.Experiments.{bench => B}
import repro.graph.GraphDb

/** Expensive runs shared across bench suites (all suites execute in one
  * forked JVM, sequentially), computed once and reused.
  */
object BenchShared {

  lazy val aidsVqfDb: GraphDb = MoleculeGen.db(MoleculeGen.aidsLike(B.aidsSmall))
  lazy val pubVqfDb: GraphDb = MoleculeGen.db(MoleculeGen.pubChemLike(B.pubSmall))

  /** Tables 5/6 VQF rows per dataset, pattern sets of size 12 as in the
    * paper's Figure 3 / Table 6 setting.
    */
  lazy val vqfRows: Map[String, Seq[Experiments.VqfRow]] = Map(
    "PubChem" -> Experiments.tables56("PubChem", pubVqfDb, k = 12, eMax = B.eMax,
      supMin = B.supMin, timeoutMillis = B.timeoutMillis),
    "AIDS" -> Experiments.tables56("AIDS", aidsVqfDb, k = 12, eMax = B.eMax,
      supMin = B.supMin, timeoutMillis = B.timeoutMillis),
  )

  def banner(title: String): Unit = {
    println()
    println("=" * 72)
    println(title)
    println("=" * 72)
  }
}
