package repro.data

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs

class MoleculeGenSpec extends AnyFunSuite {

  private val params = MoleculeGen.aidsLike(50)

  test("generation is deterministic in (params, idx)") {
    val a = MoleculeGen.graph(params, 7)
    val b = MoleculeGen.graph(params, 7)
    assert(TestGraphs.labelSignature(a) == TestGraphs.labelSignature(b))
    assert(a.src.toSeq == b.src.toSeq && a.dst.toSeq == b.dst.toSeq)
  }

  test("different indices give different graphs") {
    val a = MoleculeGen.graph(params, 1)
    val b = MoleculeGen.graph(params, 2)
    assert(TestGraphs.labelSignature(a) != TestGraphs.labelSignature(b) || a.numVertices != b.numVertices)
  }

  test("all graphs are connected") {
    assert(MoleculeGen.db(params).graphs.forall(TestGraphs.isConnected))
  }

  test("valence bound: degree <= 4 everywhere") {
    MoleculeGen.db(params).graphs.foreach { g =>
      (0 until g.numVertices).foreach(v => assert(g.degree(v) <= 4))
    }
  }

  test("vertex counts respect the configured bounds") {
    MoleculeGen.db(params).graphs.foreach { g =>
      assert(g.numVertices >= params.vMin && g.numVertices <= params.vMax)
    }
  }

  test("mean vertex count lands near the target") {
    val db = MoleculeGen.db(MoleculeGen.aidsLike(300))
    val mean = db.graphs.map(_.numVertices).sum.toDouble / db.numGraphs
    assert(math.abs(mean - 25.0) < 3.0, s"mean vertex count $mean")
  }

  test("atom distribution is carbon-dominated") {
    val db = MoleculeGen.db(params)
    val labels = db.graphs.flatMap(_.vertexLabels)
    val carbonShare = labels.count(_ == 0).toDouble / labels.size
    assert(carbonShare > 0.4, s"carbon share $carbonShare")
  }

  test("unlabeled-edge presets emit label 0; AIDSL emits bond labels") {
    val plain = MoleculeGen.db(MoleculeGen.aidsLike(20))
    assert(plain.graphs.forall(_.edgeLabels.forall(_ == 0)))
    val labeled = MoleculeGen.db(MoleculeGen.aidsLabeledLike(60))
    assert(labeled.graphs.exists(_.edgeLabels.exists(_ != 0)))
  }

  test("rings produce more edges than a tree") {
    val db = MoleculeGen.db(MoleculeGen.aidsLike(100))
    val extra = db.graphs.map(g => g.numEdges - (g.numVertices - 1))
    assert(extra.sum > 0, "expected some ring closures")
    assert(extra.forall(_ >= 0))
  }

  test("eMol graphs are smaller than PubChem graphs on average") {
    val eMol = MoleculeGen.db(MoleculeGen.eMolLike(100))
    val pub = MoleculeGen.db(MoleculeGen.pubChemLike(100))
    val vE = eMol.graphs.map(_.numVertices).sum.toDouble / eMol.numGraphs
    val vP = pub.graphs.map(_.numVertices).sum.toDouble / pub.numGraphs
    assert(vE < vP)
  }

  test("pubChemBand restricts vertex counts to the band") {
    val db = MoleculeGen.db(MoleculeGen.pubChemBand(50, 20, 50))
    db.graphs.foreach(g => assert(g.numVertices >= 21 && g.numVertices <= 50))
  }

  test("preset resolves every name, each with its own default seed") {
    val expected = Seq(
      "aids" -> MoleculeGen.aidsLike(10), "aidsl" -> MoleculeGen.aidsLabeledLike(10),
      "emol" -> MoleculeGen.eMolLike(10), "pubchem" -> MoleculeGen.pubChemLike(10))
    expected.foreach { case (name, params) =>
      assert(MoleculeGen.preset(name, 10) == params, name)
      assert(MoleculeGen.preset(name.toUpperCase, 10) == params, name.toUpperCase)
    }
    assert(MoleculeGen.db(MoleculeGen.preset("emol", 10)).numGraphs == 10)
  }

  test("preset aidsl carries bond labels") {
    val db = MoleculeGen.db(MoleculeGen.preset("aidsl", 50))
    assert(db.graphs.exists(_.edgeLabels.exists(_ != 0)))
  }

  test("preset rejects unknown names") {
    Seq("nope", "pub", "").foreach { name =>
      val e = intercept[IllegalArgumentException](MoleculeGen.preset(name, 5))
      assert(e.getMessage.contains("unknown dataset preset"), name)
    }
  }

  test("no duplicate edges") {
    MoleculeGen.db(params).graphs.foreach { g =>
      val pairs = (0 until g.numEdges).map { e =>
        (math.min(g.src(e), g.dst(e)), math.max(g.src(e), g.dst(e)))
      }
      assert(pairs.distinct.size == pairs.size)
    }
  }
}
