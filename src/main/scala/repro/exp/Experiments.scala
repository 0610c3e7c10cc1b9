package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.MoleculeGen
import repro.dist.{DistTed, GraphFrames}
import repro.enumeration.Enumerator
import repro.graph.{GraphDb, LabeledGraph}

/** Shared harness behind the bench suites, one per evaluation table. All
  * scales are parameters so unit tests run the same code paths on tiny
  * inputs while benches run the EXPERIMENTS.md configuration.
  *
  * Scale note (DESIGN.md §4): the paper's dataset sizes (10K–1M graphs, a
  * 32 GB desktop, 10000 s INF limit) are scaled to container-size DBs and
  * a shorter INF deadline; EXPERIMENTS.md records paper vs measured shape.
  */
object Experiments {

  final case class Scale(
      aidsSmall: Int, aidsLarge: Int,
      eMolSmall: Int, eMolLarge: Int,
      pubSmall: Int, pubLarge: Int,
      k: Int, eMax: Int,
      supMin: Double,
      timeoutMillis: Long,
  )

  /** Bench configuration — graph counts scaled ~1:12 from the paper. */
  val bench: Scale = Scale(
    aidsSmall = 800, aidsLarge = 3200,
    eMolSmall = 400, eMolLarge = 800,
    pubSmall = 800, pubLarge = 1800,
    k = 5, eMax = 10, supMin = 0.1,
    timeoutMillis = 120000L,
  )

  // ------------------------------------------------------------------
  // Table 2 — dataset statistics.
  // ------------------------------------------------------------------

  final case class DatasetStats(name: String, eMax: Long, vMax: Long,
                                eAvg: Double, vAvg: Double, d: Long)

  def table2(spark: SparkSession, scale: Scale): Seq[DatasetStats] = {
    val presets = Seq(
      MoleculeGen.aidsLike(scale.aidsLarge),
      MoleculeGen.eMolLike(scale.eMolLarge),
      MoleculeGen.pubChemLike(scale.pubLarge),
    )
    presets.map { p =>
      val ds = GraphFrames.generateDS(spark, p)
      val row = GraphFrames.stats(ds).collect()(0)
      DatasetStats(p.name, row.getLong(0), row.getLong(1),
        row.getDouble(2), row.getDouble(3), row.getLong(4))
    }
  }

  def renderTable2(rows: Seq[DatasetStats]): Seq[String] =
    f"${"Dataset"}%-10s ${"E_max"}%6s ${"V_max"}%6s ${"E_avg"}%6s ${"V_avg"}%6s ${"|D|"}%7s" +:
      rows.map(s => f"${s.name}%-10s ${s.eMax}%6d ${s.vMax}%6d ${s.eAvg}%6.1f ${s.vAvg}%6.1f ${s.d}%7d")

  // ------------------------------------------------------------------
  // Tables 3 & 4 — PES-Index size and maintenance time, from full TED
  // runs over six dataset variants.
  // ------------------------------------------------------------------

  final case class PesRow(dataset: String, indexKB: Double, indexPctOfData: Double,
                          indexTimeS: Double, indexPctOfTotal: Double,
                          totalS: Double, coverageRate: Double, timedOut: Boolean)

  def pesDatasets(scale: Scale): Seq[(String, MoleculeGen.Params)] = Seq(
    s"AIDS${scale.aidsSmall}"  -> MoleculeGen.aidsLike(scale.aidsSmall),
    s"AIDS${scale.aidsLarge}"  -> MoleculeGen.aidsLike(scale.aidsLarge),
    s"eMol${scale.eMolSmall}"  -> MoleculeGen.eMolLike(scale.eMolSmall),
    s"eMol${scale.eMolLarge}"  -> MoleculeGen.eMolLike(scale.eMolLarge),
    s"PubChem${scale.pubSmall}" -> MoleculeGen.pubChemLike(scale.pubSmall),
    s"PubChem${scale.pubLarge}" -> MoleculeGen.pubChemLike(scale.pubLarge),
  )

  def tables34(scale: Scale): Seq[PesRow] =
    pesDatasets(scale).map { case (name, params) =>
      val db = MoleculeGen.db(params)
      val res = Ted.full(db, TedConfig(k = scale.k, eMax = scale.eMax,
        timeoutMillis = scale.timeoutMillis))
      PesRow(
        dataset = name,
        indexKB = res.indexBytes / 1024.0,
        indexPctOfData = 100.0 * res.indexBytes / db.sizeBytesEstimate,
        indexTimeS = res.indexNanos / 1e9,
        indexPctOfTotal = 100.0 * (res.indexNanos / 1e6) / math.max(1.0, res.millis.toDouble),
        totalS = res.millis / 1000.0,
        coverageRate = res.coverageRate,
        timedOut = res.timedOut,
      )
    }

  /** Table 3 (index size) and Table 4 (maintenance time) side by side. */
  def renderTables34(rows: Seq[PesRow]): Seq[String] =
    (f"${"Dataset"}%-14s ${"Index KB"}%10s ${"Index/Graphs %"}%16s " +
      f"${"Index Time s"}%13s ${"Index/Total %"}%15s ${"Total s"}%9s ${"CovRate"}%8s") +:
      rows.map(r => f"${r.dataset}%-14s ${r.indexKB}%10.1f ${r.indexPctOfData}%16.2f " +
        f"${r.indexTimeS}%13.3f ${r.indexPctOfTotal}%15.2f ${r.totalS}%9.2f ${r.coverageRate}%8.4f")

  // ------------------------------------------------------------------
  // Tables 5 & 6 — VQF queries and patterns-used-per-query, over the
  // pattern sets that Table 7 and Figure 17 also read.
  // ------------------------------------------------------------------

  /** The three pattern sets compared by Tables 5–7 and Figure 17. */
  final case class VqfSets(ted: Seq[Pattern], fs: Seq[Pattern], catapult: Seq[Pattern])

  /** Mines the VQF pattern sets of `db` once: one TED run, and one frequent
    * enumeration whose pool both FS and the CATAPULT proxy select from.
    * `minEdges` is the MinE pattern budget of the TED Explorer (Section
    * 6.2): VQF pattern sets carry a minimum pattern size so that a drag
    * places a multi-edge fragment, exactly as canned-pattern systems do.
    * Applied to all three sets for fairness.
    */
  def vqfSets(db: GraphDb, k: Int, eMax: Int, supMin: Double, minEdges: Int = 3,
              timeoutMillis: Long = Long.MaxValue): VqfSets = {
    val minSupport = Baselines.supportCount(db, supMin)
    val ted = Ted.full(db, TedConfig(k = k, eMax = eMax, minEdges = minEdges,
      timeoutMillis = timeoutMillis)).patterns
    val pool = Vector.newBuilder[Pattern]
    new Enumerator(db, eMax, minSupport).walk(n => if (n.numEdges >= minEdges) pool += Pattern.of(n, db))
    val frequent = pool.result()
    VqfSets(ted, Baselines.topKFrequent(frequent, k), Vqf.catapultProxy(db, frequent, k, eMax))
  }

  /** The paper's Table-6 "Yes" marker flags usage of a sup_min < 0.2
    * pattern, independent of the mining support threshold.
    */
  private val markerSupMin = 0.2

  final case class VqfRow(query: String, queryEdges: Int,
                          fsUsed: Int, catapultUsed: Int, tedUsed: Int,
                          fsSteps: Int, catapultSteps: Int, tedSteps: Int,
                          tedUsesInfrequent: Boolean)

  /** One row per query, in order: each set formulates query i as
    * `<dbName>_Q<i+1>`.
    */
  def tables56(dbName: String, db: GraphDb, sets: VqfSets,
               queries: Seq[LabeledGraph]): Seq[VqfRow] =
    queries.zipWithIndex.map { case (q, i) =>
      val fFs  = Vqf.formulate(q, sets.fs, db, markerSupMin)
      val fCat = Vqf.formulate(q, sets.catapult, db, markerSupMin)
      val fTed = Vqf.formulate(q, sets.ted, db, markerSupMin)
      VqfRow(s"${dbName}_Q${i + 1}", q.numEdges,
        fFs.patternsUsed, fCat.patternsUsed, fTed.patternsUsed,
        fFs.steps, fCat.steps, fTed.steps, fTed.usedInfrequent)
    }

  /** Table 6: patterns used per query, with the steps behind Figure 16. */
  def renderTable6(rows: Seq[VqfRow]): Seq[String] =
    (f"${"Query"}%-14s ${"|E|"}%4s ${"FS"}%4s ${"CAT"}%4s ${"TED"}%4s " +
      f"${"FSsteps"}%8s ${"CATsteps"}%9s ${"TEDsteps"}%9s  TED-infrequent") +:
      rows.map(r => f"${r.query}%-14s ${r.queryEdges}%4d ${r.fsUsed}%4d ${r.catapultUsed}%4d ${r.tedUsed}%4d " +
        f"${r.fsSteps}%8d ${r.catapultSteps}%9d ${r.tedSteps}%9d  ${if (r.tedUsesInfrequent) "Yes" else "No"}")

  // ------------------------------------------------------------------
  // Exp 7 / Figure 17 — RR between TED and FS as the fraction rho of
  // infrequent queries grows. Queries are small (rare structure dominates
  // them); infrequent ones are grown from rare-atom regions.
  // ------------------------------------------------------------------

  final case class RrRow(rho: Double, stepsFs: Int, stepsTed: Int, rr: Double)

  def fig17(db: GraphDb, sets: VqfSets, rhos: Seq[Double], nQueries: Int = 40,
            minQE: Int = 8, maxQE: Int = 16, seed: Long = 23): Seq[RrRow] = {
    require(nQueries >= 1, s"nQueries must be at least 1, got $nQueries")
    require(minQE >= 1, s"minQE must be at least 1, got $minQE")
    require(minQE <= maxQE, s"minQE ($minQE) exceeds maxQE ($maxQE)")
    rhos.foreach(rho => require(rho >= 0.0 && rho <= 1.0, s"rho must lie in [0, 1], got $rho"))
    rhos.map { rho =>
      val rng = new scala.util.Random(seed)
      val nRare = math.round(rho * nQueries).toInt
      val queries = (1 to nQueries).map { i =>
        val target = minQE + rng.nextInt(maxQE - minQE + 1)
        if (i <= nRare) Vqf.sampleRareQuery(db, target, rng)
        else Vqf.sampleQuery(db, target, rng)
      }
      val stepsFs = queries.map(q => Vqf.formulate(q, sets.fs, db, markerSupMin).steps).sum
      val stepsTed = queries.map(q => Vqf.formulate(q, sets.ted, db, markerSupMin).steps).sum
      RrRow(rho, stepsFs, stepsTed, Vqf.reductionRatio(stepsFs, stepsTed))
    }
  }

  // ------------------------------------------------------------------
  // Table 7 — patterns with "biological importance".
  // ------------------------------------------------------------------

  final case class BioRow(method: String, important: Int, total: Int)

  /** Table 7 with a caller-supplied repository (see Vqf.exactRepository). */
  def table7(sets: VqfSets, repo: Set[String]): Seq[BioRow] = Seq(
    BioRow("FS", Vqf.bioImportance(sets.fs, repo), sets.fs.size),
    BioRow("CATAPULT", Vqf.bioImportance(sets.catapult, repo), sets.catapult.size),
    BioRow("TED", Vqf.bioImportance(sets.ted, repo), sets.ted.size),
  )

  def renderTable7(rows: Seq[BioRow]): Seq[String] =
    f"${"Method"}%-10s ${"Important"}%10s ${"Total"}%6s" +:
      rows.map(r => f"${r.method}%-10s ${r.important}%10d ${r.total}%6d")

  // ------------------------------------------------------------------
  // Supplementary: the Figures 9–15 method comparison (coverage rate and
  // processing time per method), also the source of Table 3/4 context.
  // ALL_t is BASE (Ted.base), so it is reported once, as BASE.
  // ------------------------------------------------------------------

  def methodComparison(db: GraphDb, k: Int, eMax: Int, supMin: Double,
                       timeoutMillis: Long): Seq[RunResult] = {
    val cfg = TedConfig(k = k, eMax = eMax, timeoutMillis = timeoutMillis)
    Seq(
      Baselines.allG(db, k, eMax, timeoutMillis),
      Baselines.fsgG(db, k, eMax, supMin, timeoutMillis),
      Baselines.fsgT(db, k, eMax, supMin, timeoutMillis),
      Ted.base(db, cfg),
      Ted.prm(db, cfg),
      Ted.full(db, cfg),
    )
  }

  def distComparison(spark: SparkSession, db: GraphDb, k: Int, eMax: Int,
                     timeoutMillis: Long, partitions: Int = 8): RunResult = {
    val ds = GraphFrames.toDS(spark, db).repartition(partitions)
    DistTed.run(spark, ds, TedConfig(k = k, eMax = eMax,
      timeoutMillis = timeoutMillis)).result
  }

  def renderResult(r: RunResult): String = {
    val time = if (r.timedOut) "INF" else f"${r.millis / 1000.0}%.2f s"
    f"${r.method}%-8s coverageRate=${r.coverageRate}%.4f coverage=${r.coverage}%6d/${r.totalEdges}%d time=$time enumerated=${r.enumerated}%d"
  }
}
