package repro.dist

import repro.{Oracle, SparkSpec, TestGraphs}
import repro.data.{MoleculeGen, SampleDb}

class GraphFramesSpec extends SparkSpec {

  private lazy val db = SampleDb.db
  private lazy val ds = GraphFrames.toDS(spark, db)

  test("GraphRow round-trips through the codec") {
    val back = GraphFrames.collectDb(ds)
    assert(back.numGraphs == db.numGraphs)
    back.graphs.zip(db.graphs).foreach { case (a, b) =>
      assert(a.id == b.id && TestGraphs.labelSignature(a) == TestGraphs.labelSignature(b))
    }
  }

  test("generateDS is deterministic and matches driver-side generation") {
    val p = MoleculeGen.aidsLike(30)
    val distDb = GraphFrames.collectDb(GraphFrames.generateDS(spark, p, partitions = 4))
    val localDb = MoleculeGen.db(p)
    assert(distDb.numGraphs == localDb.numGraphs)
    distDb.graphs.zip(localDb.graphs).foreach { case (a, b) =>
      assert(TestGraphs.labelSignature(a) == TestGraphs.labelSignature(b))
    }
  }

  test("stats matches the DuckDB oracle (Table 2 aggregation)") {
    // DuckDB aggregates per-graph counts taken on the driver from the
    // graphs themselves, not from any Spark plan.
    import spark.implicits._
    Seq(db, MoleculeGen.db(MoleculeGen.aidsLike(200))).foreach { d =>
      val perGraph = d.graphs.map(g => (g.id, g.numEdges, g.numVertices)).toDF("graph_id", "e_cnt", "v_cnt")
      Oracle.assertEquivalent(
        GraphFrames.stats(GraphFrames.toDS(spark, d)),
        """SELECT max(e_cnt)::BIGINT AS e_max, max(v_cnt)::BIGINT AS v_max,
          |       round(avg(e_cnt), 1) AS e_avg, round(avg(v_cnt), 1) AS v_avg,
          |       count(*)::BIGINT AS d
          |FROM (SELECT e_cnt::DOUBLE AS e_cnt, v_cnt::DOUBLE AS v_cnt FROM per_graph)""".stripMargin,
        "per_graph" -> perGraph,
      )
    }
  }

  test("stats values are correct on the hand-built sample db") {
    val row = GraphFrames.stats(ds).collect()(0)
    assert(row.getLong(0) == 8)  // e_max: G1
    assert(row.getLong(1) == 8)  // v_max: G1
    assert(row.getLong(4) == 4)  // |D|
  }

  test("molecule generator stats land near Table-2 shape targets") {
    val p = MoleculeGen.aidsLike(200)
    val row = GraphFrames.stats(GraphFrames.generateDS(spark, p)).collect()(0)
    val eAvg = row.getDouble(2); val vAvg = row.getDouble(3)
    assert(math.abs(vAvg - 25.4) < 4.0, s"v_avg $vAvg vs AIDS 25.4")
    assert(eAvg >= vAvg - 1, s"e_avg $eAvg should exceed v_avg - 1 (rings)")
    val local = MoleculeGen.db(p)
    assert(row.getLong(0) == local.graphs.map(_.numEdges).max)
    assert(row.getLong(1) == local.graphs.map(_.numVertices).max)
    assert(row.getLong(4) == local.numGraphs)
  }
}
