package repro.data

import scala.collection.mutable
import scala.util.Random
import repro.graph.{GraphDb, LabeledGraph}

/** Synthetic molecule-like graph databases — the substitute for the AIDS
  * antiviral, eMolecules and PubChem repositories (DESIGN.md §4).
  *
  * Each graph is a valence-bounded (degree <= 4) connected graph: a
  * chain-biased random tree plus ring-closing extra edges, vertices
  * labeled by a skewed atom alphabet (C dominates, as in organic
  * chemistry), optionally with bond-type edge labels (the AIDSL variant).
  * Deterministic in (seed, graphId).
  */
object MoleculeGen {

  /** Chemistry-flavoured atom frequencies (C-heavy, long tail), by vertex
    * label: C, O, N, S, P, Cl, F, Br, I, Na.
    */
  val DefaultAtomWeights: Array[Double] =
    Array(0.62, 0.13, 0.11, 0.05, 0.03, 0.025, 0.02, 0.01, 0.005, 0.01)

  /** Bond-type weights: single / double / triple. */
  val DefaultBondWeights: Array[Double] = Array(0.80, 0.17, 0.03)

  final case class Params(
      nGraphs: Int,
      vMean: Double,
      vSigma: Double,
      vMin: Int,
      vMax: Int,
      tailProb: Double,      // probability of a heavy-tail (large) graph
      tailFactor: Double,    // size multiplier for tail graphs
      ringsPerVertex: Double,
      labeledEdges: Boolean,
      seed: Long,
      name: String,
  )

  /** AIDS-like: V_avg ~25, heavy tail toward V_max ~222, unlabeled bonds. */
  def aidsLike(nGraphs: Int, seed: Long = 7): Params =
    Params(nGraphs, vMean = 25.0, vSigma = 8.0, vMin = 4, vMax = 222,
      tailProb = 0.006, tailFactor = 5.0, ringsPerVertex = 0.08,
      labeledEdges = false, seed = seed, name = "AIDS")

  /** AIDSL: the AIDS variant with labeled bonds. */
  def aidsLabeledLike(nGraphs: Int, seed: Long = 7): Params =
    aidsLike(nGraphs, seed).copy(labeledEdges = true, name = "AIDSL")

  /** eMol-like: smaller compounds, V_avg ~15.5, V_max ~104. */
  def eMolLike(nGraphs: Int, seed: Long = 11): Params =
    Params(nGraphs, vMean = 15.5, vSigma = 5.0, vMin = 4, vMax = 104,
      tailProb = 0.002, tailFactor = 4.0, ringsPerVertex = 0.06,
      labeledEdges = false, seed = seed, name = "eMol")

  /** PubChem-like: larger compounds, V_avg ~42. The paper's V_max is 801;
    * we cap the tail at 150 so embedding counts stay container-scale
    * (DESIGN.md §4) while preserving the "has much larger graphs than the
    * average" shape that drives Figure 12.
    */
  def pubChemLike(nGraphs: Int, seed: Long = 13): Params =
    Params(nGraphs, vMean = 42.0, vSigma = 14.0, vMin = 6, vMax = 150,
      tailProb = 0.005, tailFactor = 3.0, ringsPerVertex = 0.05,
      labeledEdges = false, seed = seed, name = "PubChem")

  /** A library of small whole molecules (pattern-sized, 4..14 vertices) —
    * the synthetic stand-in for "compounds with a CID" in the Table 7
    * biological-importance check (DESIGN.md §4).
    */
  def fragmentRepo(nGraphs: Int, seed: Long = 99): Params =
    Params(nGraphs, vMean = 7.0, vSigma = 2.5, vMin = 4, vMax = 14,
      tailProb = 0.0, tailFactor = 1.0, ringsPerVertex = 0.07,
      labeledEdges = false, seed = seed, name = "FragmentRepo")

  /** PubChem-like restricted to a vertex-count band — the D_(r,l] slices
    * of Figure 12.
    */
  def pubChemBand(nGraphs: Int, lo: Int, hi: Int, seed: Long = 13): Params =
    Params(nGraphs, vMean = (lo + hi) / 2.0, vSigma = (hi - lo) / 4.0,
      vMin = math.max(4, lo + 1), vMax = hi, tailProb = 0.0, tailFactor = 1.0,
      ringsPerVertex = 0.05, labeledEdges = false, seed = seed,
      name = s"PubChem($lo,$hi]")

  /** The named dataset presets (`aids`, `aidsl`, `emol`, `pubchem`, any
    * case), each with its own default seed.
    */
  def preset(name: String, nGraphs: Int): Params = name.toLowerCase match {
    case "aids"    => aidsLike(nGraphs)
    case "aidsl"   => aidsLabeledLike(nGraphs)
    case "emol"    => eMolLike(nGraphs)
    case "pubchem" => pubChemLike(nGraphs)
    case other     => throw new IllegalArgumentException(s"unknown dataset preset: $other")
  }

  private def weightedPick(rng: Random, weights: Array[Double]): Int = {
    var r = rng.nextDouble() * weights.sum
    var i = 0
    while (i < weights.length - 1) {
      r -= weights(i)
      if (r <= 0) return i
      i += 1
    }
    weights.length - 1
  }

  /** Generate graph number `idx` of the dataset — pure in (params, idx). */
  def graph(p: Params, idx: Long): LabeledGraph = {
    val rng = new Random(p.seed * 0x9E3779B97F4A7C15L + idx * 0x2545F4914F6CDD1DL + 1)
    var nV = math.round(p.vMean + p.vSigma * rng.nextGaussian()).toInt
    if (rng.nextDouble() < p.tailProb) nV = math.round(nV * p.tailFactor).toInt
    nV = math.max(p.vMin, math.min(p.vMax, nV))

    val labels = Array.fill(nV)(weightedPick(rng, DefaultAtomWeights))
    val deg = new Array[Int](nV)
    val edges = mutable.ArrayBuffer.empty[(Int, Int, Int)]
    val adj = Array.fill(nV)(mutable.Set.empty[Int])

    def bondLabel(): Int = if (p.labeledEdges) weightedPick(rng, DefaultBondWeights) else 0

    def addEdge(u: Int, v: Int): Unit = {
      edges += ((u, v, bondLabel()))
      deg(u) += 1; deg(v) += 1
      adj(u) += v; adj(v) += u
    }

    // Chain-biased random tree under the valence bound: attach vertex v to
    // the previous vertex with probability 0.6 (carbon-chain feel),
    // otherwise to a uniformly random earlier vertex with spare valence.
    var v = 1
    while (v < nV) {
      var parent = -1
      if (rng.nextDouble() < 0.6 && deg(v - 1) < 4) parent = v - 1
      else {
        var tries = 0
        while (parent < 0 && tries < 20) {
          val c = rng.nextInt(v)
          if (deg(c) < 4) parent = c
          tries += 1
        }
        if (parent < 0) parent = (0 until v).find(deg(_) < 4).getOrElse(v - 1)
      }
      addEdge(parent, v)
      v += 1
    }

    // Ring closures: a short random walk from u lands on w; the chord
    // (u, w) closes a 3..7-cycle, as in carbon rings.
    val nRings = math.round(p.ringsPerVertex * nV).toInt
    var r = 0
    while (r < nRings) {
      val u = rng.nextInt(nV)
      if (deg(u) < 4) {
        var w = u
        val steps = 2 + rng.nextInt(4)
        var s = 0
        while (s < steps) {
          val ns = adj(w)
          if (ns.nonEmpty) w = ns.iterator.drop(rng.nextInt(ns.size)).next()
          s += 1
        }
        if (w != u && deg(w) < 4 && !adj(u).contains(w)) addEdge(u, w)
      }
      r += 1
    }

    LabeledGraph(idx, labels.toIndexedSeq, edges.toSeq)
  }

  /** Materialize the whole database on the driver. */
  def db(p: Params): GraphDb =
    new GraphDb((0L until p.nGraphs.toLong).map(graph(p, _)))
}
