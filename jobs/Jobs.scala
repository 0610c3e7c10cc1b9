package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.data.MoleculeGen
import repro.exp.Experiments
import repro.exp.Experiments.{bench => B}

/** spark-submit entrypoints, one per reproduced evaluation table.
  * Example:
  *   spark-submit --class repro.jobs.Table2Job repro.jar
  */
private object JobUtil {
  def session(name: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
}

/** Table 2 — dataset statistics of the synthetic AIDS/eMol/PubChem. */
object Table2Job {
  def main(args: Array[String]): Unit = {
    val spark = JobUtil.session("ted-table2")
    println("Table 2: Datasets (synthetic, scaled — DESIGN.md §4)")
    Experiments.renderTable2(Experiments.table2(spark, B)).foreach(println)
    spark.stop()
  }
}

/** Tables 3 & 4 — PES-Index size and maintenance time, from one set of
  * full TED runs.
  */
object Table34Job {
  def main(args: Array[String]): Unit = {
    println("Tables 3-4: Size and Maintenance Time of PES-Index")
    Experiments.renderTables34(Experiments.tables34(B)).foreach(println)
  }
}

/** Tables 5 & 6 — VQF queries, steps and patterns used per method. */
object Table56Job {
  def main(args: Array[String]): Unit = {
    val aids = MoleculeGen.db(MoleculeGen.aidsLike(B.aidsSmall))
    val pub  = MoleculeGen.db(MoleculeGen.pubChemLike(B.pubSmall))
    println("Tables 5-6: VQF queries / patterns used (k=12 pattern sets)")
    val rows = Seq("PubChem" -> pub, "AIDS" -> aids).flatMap { case (name, db) =>
      Experiments.tables56(name, db, k = 12, eMax = B.eMax, supMin = B.supMin,
        timeoutMillis = B.timeoutMillis)
    }
    Experiments.renderTable6(rows).foreach(println)
  }
}

/** Table 7 — patterns with (synthetic) biological importance. */
object Table7Job {
  def main(args: Array[String]): Unit = {
    val db = MoleculeGen.db(MoleculeGen.pubChemLike(B.pubSmall))
    val repo = repro.core.Vqf.exactRepository(
      MoleculeGen.db(MoleculeGen.fragmentRepo(8000, seed = 99)))
    println("Table 7: Patterns with Biological Importance (synthetic repo)")
    Experiments.renderTable7(Experiments.table7(db, repo, k = 12, eMax = B.eMax,
      supMin = B.supMin, minEdges = 3, timeoutMillis = B.timeoutMillis)).foreach(println)
  }
}

/** Supplementary — the Figure 9/11/13/14/15 method comparison, plus the
  * distributed TED job.
  */
object MethodComparisonJob {
  def main(args: Array[String]): Unit = {
    val spark = JobUtil.session("ted-comparison")
    val db = MoleculeGen.db(MoleculeGen.aidsLike(B.aidsSmall))
    println(s"Method comparison on AIDS${B.aidsSmall} (k=${B.k}, E_max=${B.eMax})")
    Experiments.methodComparison(db, B.k, B.eMax, B.supMin, B.timeoutMillis)
      .foreach(r => println(Experiments.renderResult(r)))
    println(Experiments.renderResult(Experiments.distComparison(spark, db, B.k, B.eMax, B.timeoutMillis)))
    spark.stop()
  }
}
