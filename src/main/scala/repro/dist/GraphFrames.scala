package repro.dist

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.data.MoleculeGen
import repro.graph.{GraphDb, LabeledGraph}

/** One database graph as a Spark row: parallel primitive arrays, the same
  * layout as [[LabeledGraph]]. The whole database is a `Dataset[GraphRow]`
  * so graphs distribute across partitions and the expensive phases
  * (enumeration, cover evaluation) run as scans.
  */
final case class GraphRow(
    id: Long,
    vlabels: Array[Int],
    src: Array[Int],
    dst: Array[Int],
    elabels: Array[Int],
)

/** Codecs between the driver-side [[GraphDb]] and the Spark encodings,
  * plus the Table-2 statistics scan.
  */
object GraphFrames {

  def toRow(g: LabeledGraph): GraphRow = GraphRow(g.id, g.vertexLabels, g.src, g.dst, g.edgeLabels)

  def toGraph(r: GraphRow): LabeledGraph = new LabeledGraph(r.id, r.vlabels, r.src, r.dst, r.elabels)

  def toDS(spark: SparkSession, db: GraphDb): Dataset[GraphRow] = {
    import spark.implicits._
    spark.createDataset(db.graphs.map(toRow))
  }

  /** Distributed generation: one task per slice of graph ids, each graph
    * produced deterministically from (params, id) — no driver round trip.
    */
  def generateDS(spark: SparkSession, p: MoleculeGen.Params, partitions: Int = 16): Dataset[GraphRow] = {
    import spark.implicits._
    spark.range(0, p.nGraphs.toLong, 1, partitions).map(i => toRow(MoleculeGen.graph(p, i)))
  }

  /** Collect a Dataset back into a driver GraphDb, ordered by graph id so
    * global edge ids are deterministic.
    */
  def collectDb(ds: Dataset[GraphRow]): GraphDb =
    new GraphDb(ds.collect().sortBy(_.id).map(toGraph).toIndexedSeq)

  /** Table-2 statistics (E_max, V_max, E_avg, V_avg, |D|) as a one-row
    * DataFrame: one aggregate scan over the per-graph array lengths, which
    * the DuckDB oracle diffs against driver-side counts.
    */
  def stats(ds: Dataset[GraphRow]): DataFrame = {
    val e = size(col("src")); val v = size(col("vlabels"))
    ds.agg(
      max(e).cast("long").as("e_max"),
      max(v).cast("long").as("v_max"),
      round(avg(e), 1).as("e_avg"),
      round(avg(v), 1).as("v_avg"),
      count("*").cast("long").as("d"),
    )
  }
}
