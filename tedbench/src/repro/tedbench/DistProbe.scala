package repro.tedbench

import scala.collection.mutable
import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.functions.{col, size}
import repro.core.TedConfig
import repro.cover.MaxCover
import repro.dist.{DistTed, GraphFrames}
import repro.graph.{DfsCode, GraphDb}
import repro.iso.SubIso

/** Spark task metrics of the jobs in job group [[TaskListener.Group]]. */
final class TaskListener extends SparkListener {
  import TaskListener._

  private val stages = mutable.Set.empty[Int]
  private val tasks = mutable.ArrayBuffer.empty[Task]
  private var markerJob = -1
  private var markerDone = false

  private def group(e: SparkListenerJobStart): String =
    Option(e.properties).map(_.getProperty("spark.jobGroup.id")).orNull

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    if (group(e) == Group) stages ++= e.stageIds
    else if (group(e) == Marker) markerJob = e.jobId
  }
  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    if (e.jobId == markerJob) { markerDone = true; notifyAll() }
  }
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    if (m != null && stages.contains(e.stageId))
      tasks += Task(e.stageId, m.executorRunTime, m.jvmGCTime, m.resultSize)
  }

  /** Clears the job group, runs a one-task marker job and waits until the
    * listener has seen it end: the listener bus delivers in order, so by
    * then every event of the grouped jobs has arrived.
    */
  def await(sc: SparkContext): Seq[Task] = {
    sc.setJobGroup(Marker, "marker")
    sc.parallelize(Seq(1), 1).count()
    sc.clearJobGroup()
    synchronized {
      val deadline = System.currentTimeMillis() + 30000
      while (!markerDone && System.currentTimeMillis() < deadline) wait(50)
      tasks.toSeq
    }
  }
}

object TaskListener {
  val Group = "tedbench-reference"
  val Marker = "tedbench-marker"
  final case class Task(stage: Int, runMs: Long, gcMs: Long, resultBytes: Long)
}

/** Single-threaded and phase-by-phase replays of `DistTed.run`. */
object DistProbe {

  final case class Phases(keys: Seq[String], coverage: Int, candidates: Seq[String])

  /** `DistTed.run`'s three phases through their public functions, each in
    * its own span: `dist.local` (`localCandidates`), `dist.cover`
    * (`coverDS` collected), `dist.select` (edge-id offsets, grouping and
    * `MaxCover.greedy`, the latter also as `cover.greedy`).
    */
  def phases(w: DistWorkload, cfg: TedConfig, tr: Trace): Phases = {
    val spark = w.spark
    val ds = w.ds
    val Local = tr.id("dist.local"); val Cover = tr.id("dist.cover")
    val Select = tr.id("dist.select"); val Greedy = tr.id("cover.greedy")
    val candidates = tr.span(Local)(DistTed.localCandidates(spark, ds, cfg))
    val offset = tr.span(Select) {
      val sizes = ds.select(col("id"), size(col("src")).as("e"))
        .collect().map(r => (r.getLong(0), r.getInt(1))).sortBy(_._1)
      val off = mutable.Map.empty[Long, Int]
      var acc = 0
      sizes.foreach { case (id, e) => off(id) = acc; acc += e }
      (off, acc)
    }
    val covers = tr.span(Cover)(DistTed.coverDS(spark, ds, candidates).collect())
    tr.span(Select) {
      val byCode = covers.groupBy(_.code)
      val ordered = candidates.filter(byCode.contains).toIndexedSeq
      val coverSets = ordered.map(c => byCode(c).flatMap(pc => pc.edges.map(_ + offset._1(pc.graph_id))).sorted)
      val (chosen, coverage) = tr.span(Greedy)(MaxCover.greedy(coverSets, cfg.k, offset._2))
      Phases(chosen.map(ordered(_)), coverage, candidates)
    }
  }

  /** The non-empty partitions as phase 1 sees them, in order, each as the
    * database its local `Ted.run` searches.
    */
  def shards(w: DistWorkload): Seq[GraphDb] =
    w.ds.rdd.mapPartitionsWithIndex((i, it) => Iterator.single((i, it.toArray))).collect()
      .sortBy(_._1).map(_._2).filter(_.nonEmpty)
      .map(rows => new GraphDb(rows.toIndexedSeq.map(GraphFrames.toGraph))).toSeq

  /** Phase 1 replayed on one thread: the traced re-drive of `Ted.run` on
    * every shard; returns the distinct sorted candidate keys.
    */
  def localReplay(shards: Seq[GraphDb], cfg: TedConfig, tr: Trace, c: SearchCounters): Seq[String] =
    shards.flatMap(db => new TracedTed(db, cfg, tr, c).run().keys).distinct.sorted

  /** Phase 2 replayed on one thread: `SubIso.coverSet` of every candidate
    * over every graph (span `iso.coverset`); returns the total cover size.
    */
  def coverReplay(db: GraphDb, candidates: Seq[String], tr: Trace): Long = {
    val Iso = tr.id("iso.coverset")
    var total = 0L
    candidates.foreach { key =>
      val p = DfsCode.toGraph(DfsCode.parse(key))
      db.graphs.foreach(g => total += tr.span(Iso)(SubIso.coverSet(p, g)).length)
    }
    total
  }
}
