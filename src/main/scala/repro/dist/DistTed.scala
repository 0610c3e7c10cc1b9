package repro.dist

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import scala.collection.mutable
import repro.core.{Pattern, RunResult, Ted, TedConfig}
import repro.cover.MaxCover
import repro.graph.{DfsCode, LabeledGraph}
import repro.iso.SubIso

/** Cover of one candidate pattern over one graph: the covered local edge
  * ids. The relational (exploded) form feeds the oracle-checked coverage
  * SQL; the packed form feeds the driver-side greedy selection.
  */
final case class PatternCover(code: String, graph_id: Long, edges: Array[Int])

/** The distributed TED approximation framework (DESIGN.md §3):
  *
  *  1. scan — each partition runs the exact sequential TED on its shard
  *     and emits its local top-k patterns as candidates;
  *  2. aggregate — candidates are broadcast and a second scan computes
  *     every candidate's cover set per graph, aggregated relationally;
  *  3. select — driver-side greedy MaxCover over the small candidate pool
  *     picks the final k.
  *
  * The pool contains each shard's 1/4-approximate solution and the final
  * greedy is (1 - 1/e) w.r.t. the pool, so quality tracks sequential TED
  * while both expensive phases scale out.
  */
object DistTed {

  /** Phase 1: per-partition sequential TED; returns canonical code keys. */
  def localCandidates(spark: SparkSession, ds: Dataset[GraphRow], cfg: TedConfig): Seq[String] =
    localScan(spark, ds, cfg)._1

  /** Phase 1 as one scan: the distinct sorted keys of every partition's
    * local TED patterns, and whether any partition's `Ted.run` timed out.
    */
  private def localScan(spark: SparkSession, ds: Dataset[GraphRow], cfg: TedConfig): (Seq[String], Boolean) = {
    import spark.implicits._
    val parts = ds.mapPartitions { it =>
      val graphs = it.map(GraphFrames.toGraph).toIndexedSeq
      if (graphs.isEmpty) Iterator.empty
      else {
        val r = Ted.run(new repro.graph.GraphDb(graphs), cfg)
        Iterator.single((r.patterns.map(_.key), r.timedOut))
      }
    }.collect()
    (parts.iterator.flatMap(_._1).toSeq.distinct.sorted, parts.exists(_._2))
  }

  /** Phase 2: cover sets of the given candidate patterns over every graph
    * (a broadcast-pattern scan; one row per (candidate, containing graph)).
    */
  def coverDS(spark: SparkSession, ds: Dataset[GraphRow], candidates: Seq[String]): Dataset[PatternCover] = {
    import spark.implicits._
    val bc = spark.sparkContext.broadcast(candidates.map(c => c -> DfsCode.toGraph(DfsCode.parse(c))))
    ds.flatMap { row =>
      val g = GraphFrames.toGraph(row)
      bc.value.iterator
        .map { case (key, p) => PatternCover(key, row.id, SubIso.coverSet(p, g)) }
        .filter(_.edges.nonEmpty)
    }
  }

  /** Relational view (code, graph_id, edge_id) for SQL aggregation and
    * the DuckDB oracle.
    */
  def coverDF(spark: SparkSession, ds: Dataset[GraphRow], candidates: Seq[String]): DataFrame = {
    import spark.implicits._
    coverDS(spark, ds, candidates)
      .flatMap(pc => pc.edges.map(e => (pc.code, pc.graph_id, e)))
      .toDF("code", "graph_id", "edge_id")
  }

  final case class DistResult(
      result: RunResult,
      candidatePoolSize: Int,
      partitions: Int,
  )

  /** The full three-phase job. `localK` widens the per-partition pattern
    * budget (defaults to cfg.k) to enrich the candidate pool. The result
    * is `timedOut` if any partition's local TED hit `cfg.timeoutMillis`;
    * its patterns then come from the candidates found in time.
    */
  def run(spark: SparkSession, ds: Dataset[GraphRow], cfg: TedConfig, localK: Int = 0): DistResult = {
    val t0 = System.nanoTime()
    val parts = ds.rdd.getNumPartitions
    val kLocal = if (localK > 0) localK else cfg.k
    val (candidates, timedOut) = localScan(spark, ds, cfg.copy(k = kLocal))

    // Global edge-id space: order graphs by id, offset by cumulative edges.
    val sizes = ds.select(col("id"), size(col("src")).as("e"))
      .collect().map(r => (r.getLong(0), r.getInt(1))).sortBy(_._1)
    val offset = mutable.Map.empty[Long, Int]
    var acc = 0
    sizes.foreach { case (id, e) => offset(id) = acc; acc += e }
    val totalEdges = acc

    val covers = coverDS(spark, ds, candidates).collect()
    val byCode = covers.groupBy(_.code)
    val ordered = candidates.filter(byCode.contains)
    val coverSets: IndexedSeq[Array[Int]] = ordered.toIndexedSeq.map { c =>
      byCode(c).flatMap(pc => pc.edges.map(_ + offset(pc.graph_id))).sorted
    }

    val (chosen, coverage) = MaxCover.greedy(coverSets, cfg.k, totalEdges)
    val patterns = chosen.map { ci =>
      val code = DfsCode.parse(ordered(ci))
      val support = byCode(ordered(ci)).length
      Pattern(code, DfsCode.toGraph(code), coverSets(ci), support)
    }
    val res = RunResult("DistTED", patterns, coverage, totalEdges,
      (System.nanoTime() - t0) / 1000000L, candidates.size.toLong, 0L, 0L, timedOut)
    DistResult(res, candidates.size, parts)
  }
}
