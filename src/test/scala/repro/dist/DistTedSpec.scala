package repro.dist

import repro.{SparkSpec, TestGraphs}
import repro.core.{Baselines, Ted, TedConfig}
import repro.data.{MoleculeGen, SampleDb}
import repro.cover.MaxCover
import repro.graph.DfsCode

class DistTedSpec extends SparkSpec {

  private lazy val db = SampleDb.db
  private lazy val ds = GraphFrames.toDS(spark, db).repartition(2)
  private val cfg = TedConfig(k = 3, eMax = 3)

  test("local candidates are canonical codes") {
    val cands = DistTed.localCandidates(spark, ds, cfg)
    assert(cands.nonEmpty)
    cands.foreach { c =>
      assert(repro.graph.CanonicalCode.isMin(DfsCode.parse(c)), s"non-canonical $c")
    }
  }

  test("coverDS matches the driver-side SubIso cover sets") {
    val cands = DistTed.localCandidates(spark, ds, cfg)
    val covers = DistTed.coverDS(spark, ds, cands).collect()
    covers.foreach { pc =>
      val p = DfsCode.toGraph(DfsCode.parse(pc.code))
      val gi = db.graphs.indexWhere(_.id == pc.graph_id)
      val expected = repro.iso.SubIso.coverSet(p, db.graphs(gi)).toSet
      assert(pc.edges.toSet == expected, s"${pc.code} over graph ${pc.graph_id}")
    }
  }

  test("distributed TED coverage tracks sequential TED") {
    val seq = Ted.full(db, cfg)
    val dist = DistTed.run(spark, ds, cfg)
    assert(dist.result.totalEdges == db.totalEdges)
    assert(dist.result.coverage >= (0.8 * seq.coverage).toInt,
      s"dist ${dist.result.coverage} vs seq ${seq.coverage}")
  }

  test("distributed TED respects k and eMax") {
    val dist = DistTed.run(spark, ds, cfg)
    assert(dist.result.patterns.size <= cfg.k)
    assert(dist.result.patterns.forall(_.numEdges <= cfg.eMax))
  }

  test("distributed TED records each pattern's containing graphs as its support") {
    val dist = DistTed.run(spark, ds, cfg)
    assert(dist.result.patterns.nonEmpty)
    dist.result.patterns.foreach { p =>
      assert(p.support == db.graphs.count(g => repro.iso.SubIso.exists(p.graph, g)), s"pattern ${p.key}")
    }
  }

  test("single-partition distributed run reproduces sequential coverage") {
    val one = GraphFrames.toDS(spark, db).coalesce(1)
    val seq = Ted.full(db, cfg)
    val dist = DistTed.run(spark, one, cfg)
    // One partition => the local phase is exactly sequential TED; the
    // final greedy over its k patterns can only reorder, not lose edges.
    assert(dist.result.coverage == seq.coverage)
  }

  test("a partition's timeout is reported in the result") {
    assert(DistTed.run(spark, ds, cfg.copy(timeoutMillis = 0)).result.timedOut)
  }

  test("a run within its deadline is not timed out") {
    assert(!DistTed.run(spark, ds, cfg).result.timedOut)
  }

  test("distributed TED on generated molecules reaches sane coverage") {
    val p = MoleculeGen.aidsLike(30)
    val mds = GraphFrames.generateDS(spark, p, partitions = 4)
    val mdb = MoleculeGen.db(p)
    val dist = DistTed.run(spark, mds, TedConfig(k = 4, eMax = 3))
    val allg = Baselines.allG(mdb, 4, 3)
    assert(dist.result.coverage >= (0.6 * allg.coverage).toInt,
      s"dist ${dist.result.coverage} vs ALL_g ${allg.coverage}")
  }

  test("distributed TED is greedy MaxCover over its own candidate pool") {
    val molecules = GraphFrames.generateDS(spark, MoleculeGen.aidsLike(30), partitions = 4)
    Seq((ds, cfg), (molecules, TedConfig(k = 4, eMax = 3))).foreach { case (d, c) =>
      assert(d.rdd.getNumPartitions >= 2)
      val db = GraphFrames.collectDb(d)
      val pool = DistTed.localCandidates(spark, d, c).map { key =>
        key -> TestGraphs.coverViaSubIso(DfsCode.toGraph(DfsCode.parse(key)), db).toArray.sorted
      }.filter(_._2.nonEmpty).toIndexedSeq
      val (chosen, coverage) = MaxCover.greedy(pool.map(_._2), c.k, db.totalEdges)
      val dist = DistTed.run(spark, d, c).result
      assert(dist.totalEdges == db.totalEdges)
      assert(dist.patterns.map(_.key) == chosen.map(pool(_)._1))
      assert(dist.coverage == coverage)
      dist.patterns.zip(chosen).foreach { case (p, ci) => assert(p.cover.toSeq == pool(ci)._2.toSeq, p.key) }
    }
  }

  test("duplicate graph ids are rejected, naming the id") {
    val g = db.graphs(1)
    val dup = GraphFrames.toDS(spark, TestGraphs.db(db.graphs(0), g, g)).repartition(2)
    val e = intercept[IllegalArgumentException](DistTed.run(spark, dup, cfg))
    assert(e.getMessage.contains(s"duplicate graph id ${g.id}"))
  }
}
