package repro.dist

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core.{Pattern, RunResult, Ted, TedConfig}
import repro.cover.MaxCover
import repro.graph.DfsCode
import repro.iso.SubIso

/** Cover of one candidate pattern over one graph: the covered local edge
  * ids, packed for the driver-side greedy selection.
  */
final case class PatternCover(code: String, graph_id: Long, edges: Array[Int])

/** The distributed TED approximation framework (DESIGN.md §3), two Spark
  * jobs and a driver step:
  *
  *  1. scan — each partition runs the exact sequential TED on its shard
  *     and returns its local top-k patterns as candidates, whether it
  *     timed out, and each graph's id and edge count;
  *  2. cover — candidates are broadcast and a second scan computes every
  *     candidate's cover set per graph;
  *  3. select — on the driver, the edge counts give the global edge ids
  *     and greedy MaxCover over the small candidate pool picks the final k.
  *
  * The pool contains each shard's 1/4-approximate solution and the final
  * greedy is (1 - 1/e) w.r.t. the pool, so quality tracks sequential TED
  * while both expensive phases scale out.
  */
object DistTed {

  /** Phase 1: per-partition sequential TED; returns canonical code keys. */
  def localCandidates(spark: SparkSession, ds: Dataset[GraphRow], cfg: TedConfig): Seq[String] =
    localScan(spark, ds, cfg).candidates

  /** What the phase-1 scan returns: the distinct sorted keys of every
    * partition's local TED patterns, whether any partition's `Ted.run`
    * timed out, and every graph's (id, edge count).
    */
  private final case class Scan(candidates: Seq[String], timedOut: Boolean, edgeCounts: Array[(Long, Int)])

  private def localScan(spark: SparkSession, ds: Dataset[GraphRow], cfg: TedConfig): Scan = {
    import spark.implicits._
    val parts = ds.mapPartitions { it =>
      val graphs = it.map(GraphFrames.toGraph).toIndexedSeq
      if (graphs.isEmpty) Iterator.empty
      else {
        val r = Ted.run(new repro.graph.GraphDb(graphs), cfg)
        Iterator.single((r.patterns.map(_.key), r.timedOut,
          graphs.map(_.id).toArray, graphs.map(_.numEdges).toArray))
      }
    }.collect()
    Scan(parts.iterator.flatMap(_._1).toSeq.distinct.sorted, parts.exists(_._2),
      parts.flatMap(p => p._3.zip(p._4)))
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

  final case class DistResult(result: RunResult)

  /** The full three-phase run. The result is `timedOut` if any
    * partition's local TED hit `cfg.timeoutMillis`; its patterns then come
    * from the candidates found in time. Graph ids must be distinct
    * (`IllegalArgumentException` otherwise).
    */
  def run(spark: SparkSession, ds: Dataset[GraphRow], cfg: TedConfig): DistResult = {
    val t0 = System.nanoTime()
    val scan = localScan(spark, ds, cfg)
    val candidates = scan.candidates

    // Global edge-id space: order graphs by id, offset by cumulative edges.
    // Two graphs with one id would share their edge ids.
    val byId = scan.edgeCounts.sortBy(_._1)
    (1 until byId.length).find(g => byId(g)._1 == byId(g - 1)._1).foreach { g =>
      throw new IllegalArgumentException(s"duplicate graph id ${byId(g)._1}")
    }
    val edgeOffset = byId.scanLeft(0)(_ + _._2)
    val offset = byId.iterator.map(_._1).zip(edgeOffset.iterator).toMap
    val totalEdges = edgeOffset.last

    val covers = coverDS(spark, ds, candidates).collect()
    val byCode = covers.groupBy(_.code)
    val ordered = candidates.filter(byCode.contains)
    val coverSets: IndexedSeq[Array[Int]] = ordered.toIndexedSeq.map { c =>
      byCode(c).flatMap { pc => val o = offset(pc.graph_id); pc.edges.map(_ + o) }.sorted
    }

    val (chosen, coverage) = MaxCover.greedy(coverSets, cfg.k, totalEdges)
    val patterns = chosen.map(ci => Pattern.of(DfsCode.parse(ordered(ci)), coverSets(ci), edgeOffset))
    val res = RunResult("DistTED", patterns, coverage, totalEdges,
      (System.nanoTime() - t0) / 1000000L, candidates.size.toLong, 0L, 0L, scan.timedOut)
    DistResult(res)
  }
}
