package repro.tedbench

import scala.util.Random
import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core.{RunResult, Ted, TedConfig}
import repro.data.MoleculeGen
import repro.dist.{DistTed, GraphFrames, GraphRow}
import repro.graph.{GraphDb, LabeledGraph}

/** One workload: an input built from the seed and one entry-point call.
  * k = 5 and E_max = 10 throughout.
  */
sealed trait Workload {
  def name: String
  val cfg: TedConfig = TedConfig(k = 5, eMax = 10)

  /** Build the input; the first build also pays one-off costs. */
  def build(): Unit

  /** Drop the previous input before the next build (not timed). */
  def release(): Unit = ()

  def call(): RunResult

  /** The database in the global edge-id order the results use. */
  def db: GraphDb

  /** Untimed calls before measuring, and the fewest measured calls. */
  def warmupCalls: Int
  def minCalls: Int

  def close(): Unit = ()
}

/** A single-threaded `Ted` entry point on an in-memory database. */
final class TedWorkload(
    val name: String,
    makeDb: () => GraphDb,
    search: (GraphDb, TedConfig) => RunResult,
    val searchCfg: TedConfig,
    val warmupCalls: Int,
    val minCalls: Int,
) extends Workload {
  private var current: GraphDb = _
  def build(): Unit = current = makeDb()
  override def release(): Unit = current = null
  def db: GraphDb = current
  def call(): RunResult = search(current, cfg)
}

/** `DistTed.run` over a cached `generateDS` dataset on local Spark,
  * partitioned as `generateDS` makes it.
  */
final class DistWorkload(val name: String, params: MoleculeGen.Params, partitions: Int,
    seed: Long, threads: Int, workDir: String) extends Workload {
  val warmupCalls = 3
  val minCalls = 5

  lazy val spark: SparkSession = SparkSession.builder
    .master(s"local[$threads]")
    .appName("tedbench")
    .config("spark.ui.enabled", "false")
    .config("spark.ui.showConsoleProgress", "false")
    .config("spark.driver.host", "127.0.0.1")
    .config("spark.local.dir", s"$workDir/spark-local")
    .config("spark.sql.warehouse.dir", s"$workDir/spark-warehouse")
    .config("spark.sql.autoBroadcastJoinThreshold", "-1")
    .getOrCreate()

  var ds: Dataset[GraphRow] = _
  private var collected: GraphDb = _

  /** `generateDS`, with each graph renumbered in the same scan. */
  def build(): Unit = {
    import spark.implicits._
    val s = seed
    ds = GraphFrames.generateDS(spark, params, partitions)
      .map(r => GraphFrames.toRow(Workloads.renumbered(GraphFrames.toGraph(r), s)))
      .cache()
    ds.count()
  }

  override def release(): Unit = if (ds != null) {
    ds.unpersist(blocking = true)
    ds = null
    collected = null
  }

  def db: GraphDb = {
    if (collected == null) collected = GraphFrames.collectDb(ds)
    collected
  }

  def call(): RunResult = DistTed.run(spark, ds, cfg).result

  override def close(): Unit = spark.stop()
}

object Workloads {
  val names: Seq[String] = Seq("ted-aids3200", "base-aids200", "dist-pubchem1800")

  /** Each workload runs the generator's default-seed dataset; the
    * benchmark seed picks its presentation (see [[presentation]]).
    * Distinct generator seeds change the work itself: 200 AIDS-like graphs
    * span 334K to 599K search nodes over seeds 1-10.
    */
  def apply(name: String, seed: Long, threads: Int, workDir: String): Workload = name match {
    case "ted-aids3200" =>
      new TedWorkload(name, () => presentation(MoleculeGen.db(MoleculeGen.aidsLike(3200)), seed),
        Ted.full, TedConfig(k = 5, eMax = 10), warmupCalls = 5, minCalls = 5)
    case "base-aids200" =>
      new TedWorkload(name, () => presentation(MoleculeGen.db(MoleculeGen.aidsLike(200)), seed),
        Ted.base, TedConfig(k = 5, eMax = 10, usePrm = false, useIps = false),
        warmupCalls = 1, minCalls = 3)
    case "dist-pubchem1800" =>
      new DistWorkload(name, MoleculeGen.pubChemLike(1800), partitions = 8, seed, threads, workDir)
    case other =>
      throw new IllegalArgumentException(s"unknown workload $other (known: ${names.mkString(", ")})")
  }

  /** An isomorphic presentation of `db` chosen by `seed`: graph order is
    * shuffled and each graph renumbered by [[renumbered]]. Pattern keys
    * and coverage are invariant under it, so one golden entry holds for
    * every seed.
    */
  def presentation(db: GraphDb, seed: Long): GraphDb =
    new GraphDb(new Random(seed).shuffle(db.graphs).map(g => renumbered(g, seed)))

  /** `g` with its vertex numbering, edge order and edge directions
    * shuffled by a generator seeded from (`seed`, graph id).
    */
  def renumbered(g: LabeledGraph, seed: Long): LabeledGraph = {
    val rng = new Random(seed * 0x9E3779B97F4A7C15L + g.id)
    val perm = rng.shuffle((0 until g.numVertices).toIndexedSeq).toArray
    val labels = new Array[Int](g.numVertices)
    (0 until g.numVertices).foreach(v => labels(perm(v)) = g.vertexLabel(v))
    val edges = rng.shuffle((0 until g.numEdges).toIndexedSeq).map { e =>
      val (u, v) = (perm(g.src(e)), perm(g.dst(e)))
      if (rng.nextBoolean()) (u, v, g.edgeLabel(e)) else (v, u, g.edgeLabel(e))
    }
    LabeledGraph(g.id, labels.toSeq, edges)
  }
}
