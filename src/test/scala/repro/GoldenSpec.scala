package repro

import org.apache.spark.sql.SparkSession
import scala.io.Source
import repro.core.{Baselines, Pattern, RunResult, Ted, TedConfig}
import repro.cover.MaxCover
import repro.data.{MoleculeGen, SampleDb}
import repro.dist.{DistTed, GraphFrames}
import repro.exp.Experiments

/** Golden outputs: (preset, size, method) -> coverage, `enumerated` and
  * the sorted pattern keys, for TED, PRM, BASE, FSG_g, ALL_g, FSG_t and TED
  * at MinE = 3 on small AIDS/eMol/PubChem-like databases; for the FS and
  * CATAPULT sets of `Experiments.vqfSets` on the same databases (the
  * coverage of the set's union, `-` for `enumerated`); for `DistTed.run`
  * over the same graphs generated as a Spark dataset in 4 partitions
  * (`enumerated` = its candidate pool); for OPT on the sample database;
  * and for TED and BASE at k = 5 on `aidsLike(1600)`, whose edge count
  * and largest root expansions are large enough for the enumerator to
  * split its loops into ranges. A speed-up must leave every line
  * unchanged. Only when results are meant to change, regenerate: run
  * `sbt "Test/runMain repro.Golden"` and copy the lines it prints, without
  * sbt's `[info] ` prefix, to `src/test/resources/golden.txt`.
  */
object Golden {
  val k = 10
  val eMax = 6
  val supMin = 0.1

  val cases: Seq[(String, Int)] = Seq(("aids", 60), ("emol", 40), ("pubchem", 30))

  private val methods: Seq[(String, repro.graph.GraphDb => RunResult)] = Seq(
    "TED" -> (db => Ted.full(db, TedConfig(k = k, eMax = eMax))),
    "PRM" -> (db => Ted.prm(db, TedConfig(k = k, eMax = eMax))),
    "BASE" -> (db => Ted.base(db, TedConfig(k = k, eMax = eMax))),
    "FSG_g" -> (db => Baselines.fsgG(db, k, eMax, supMin)),
    "ALL_g" -> (db => Baselines.allG(db, k, eMax)),
    "FSG_t" -> (db => Baselines.fsgT(db, k, eMax, supMin)),
    "TED_MinE3" -> (db => Ted.full(db, TedConfig(k = k, eMax = eMax, minEdges = 3))),
  )

  /** A database large enough for the enumerator to split its loops into
    * ranges, and the methods run on it at k = 5.
    */
  val splitCase: (String, Int) = ("aids", 1600)
  private val splitMethods: Seq[(String, repro.graph.GraphDb => RunResult)] = Seq(
    "TED_k5" -> (db => Ted.full(db, TedConfig(k = 5, eMax = eMax))),
    "BASE_k5" -> (db => Ted.base(db, TedConfig(k = 5, eMax = eMax))),
  )

  private def line(preset: String, n: Int, name: String, r: RunResult): String =
    line(preset, n, name, r.coverage.toString, r.enumerated.toString, r.patterns)

  /** `preset size method coverage enumerated key...` with sorted keys. */
  private def line(preset: String, n: Int, name: String, coverage: String, enumerated: String,
                   patterns: Seq[Pattern]): String =
    (Seq(preset, n.toString, name, coverage, enumerated) ++ patterns.map(_.key).sorted).mkString(" ")

  /** One line per (preset, size, method), then the VQF sets and DistTed,
    * then OPT, then the split case.
    */
  def lines(spark: SparkSession): Seq[String] =
    cases.flatMap { case (preset, n) =>
      val params = MoleculeGen.preset(preset, n)
      val db = MoleculeGen.db(params)
      val sets = Experiments.vqfSets(db, k, eMax, supMin)
      val dist = DistTed.run(spark, GraphFrames.generateDS(spark, params, partitions = 4),
        TedConfig(k = k, eMax = eMax)).result
      methods.map { case (name, run) => line(preset, n, name, run(db)) } ++
        Seq("FS" -> sets.fs, "CAT" -> sets.catapult).map { case (name, ps) =>
          line(preset, n, name, MaxCover.coverageOf(ps.map(_.cover)).toString, "-", ps)
        } :+ line(preset, n, "DistTed", dist)
    } :+ line("sample", SampleDb.db.numGraphs, "OPT", Baselines.optimal(SampleDb.db, 3, 3)) :++ {
      val (preset, n) = splitCase
      val db = MoleculeGen.db(MoleculeGen.preset(preset, n))
      splitMethods.map { case (name, run) => line(preset, n, name, run(db)) }
    }

  def main(args: Array[String]): Unit =
    try lines(SparkSpec.shared).foreach(println) finally SparkSpec.shared.stop()
}

class GoldenSpec extends SparkSpec {

  test("results equal the golden file") {
    val src = Source.fromResource("golden.txt")
    val expected = try src.getLines().filter(_.nonEmpty).toVector finally src.close()
    val got = Golden.lines(spark)
    assert(got.length == expected.length)
    got.zip(expected).foreach { case (g, e) => assert(g == e) }
  }
}
