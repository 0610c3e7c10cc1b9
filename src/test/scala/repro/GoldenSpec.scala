package repro

import org.scalatest.funsuite.AnyFunSuite
import scala.io.Source
import repro.core.{Baselines, RunResult, Ted, TedConfig}
import repro.data.MoleculeGen

/** Golden outputs: (preset, size, method) -> coverage, `enumerated` and
  * the sorted pattern keys, for TED, PRM, BASE and FSG_g on small
  * AIDS/eMol/PubChem-like databases. A speed-up must leave every line
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
  )

  /** One line per (preset, size, method):
    * `preset size method coverage enumerated key...` with sorted keys.
    */
  def lines(): Seq[String] =
    for {
      (preset, n) <- cases
      db = MoleculeGen.db(MoleculeGen.preset(preset, n))
      (name, run) <- methods
    } yield {
      val r = run(db)
      (Seq(preset, n.toString, name, r.coverage.toString, r.enumerated.toString) ++
        r.patterns.map(_.key).sorted).mkString(" ")
    }

  def main(args: Array[String]): Unit = lines().foreach(println)
}

class GoldenSpec extends AnyFunSuite {

  test("results equal the golden file") {
    val src = Source.fromResource("golden.txt")
    val expected = try src.getLines().filter(_.nonEmpty).toVector finally src.close()
    val got = Golden.lines()
    assert(got.length == expected.length)
    got.zip(expected).foreach { case (g, e) => assert(g == e) }
  }
}
