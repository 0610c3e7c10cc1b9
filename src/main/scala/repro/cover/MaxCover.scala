package repro.cover

import java.util.BitSet
import scala.collection.mutable

/** Greedy and exact solvers for the max k-cover subproblem (MaxCover in
  * Algorithms 1–2). Candidates are (key, sorted distinct global edge ids).
  */
object MaxCover {

  /** The classic (1 - 1/e)-approximate greedy: k rounds, each picking the
    * candidate with the largest marginal cover (the lowest index among
    * equal gains). Returns chosen candidate indices in selection order
    * plus the final covered-edge count.
    */
  def greedy(candidates: IndexedSeq[Array[Int]], k: Int, totalEdges: Int): (Seq[Int], Int) = {
    val covered = new BitSet(totalEdges)
    val chosen = mutable.ArrayBuffer.empty[Int]
    val available = new BitSet(candidates.length)
    available.set(0, candidates.length)
    var coveredCount = 0
    var round = 0
    while (round < k && !available.isEmpty) {
      var best = -1
      var bestGain = -1
      var ci = available.nextSetBit(0)
      while (ci >= 0) {
        var gain = 0
        val cov = candidates(ci)
        var i = 0
        while (i < cov.length) { if (!covered.get(cov(i))) gain += 1; i += 1 }
        if (gain > bestGain) { bestGain = gain; best = ci }
        ci = available.nextSetBit(ci + 1)
      }
      chosen += best
      available.clear(best)
      val cov = candidates(best)
      var i = 0
      while (i < cov.length) {
        if (!covered.get(cov(i))) { covered.set(cov(i)); coveredCount += 1 }
        i += 1
      }
      round += 1
    }
    (chosen.toSeq, coveredCount)
  }

  /** Exhaustive optimum — tiny instances only (the OPT reference of the
    * paper's Figure-13 comparison). Enumerates all k-subsets.
    */
  def optimal(candidates: IndexedSeq[Array[Int]], k: Int): (Seq[Int], Int) = {
    require(candidates.nonEmpty, "no candidates")
    var bestSet: List[Int] = Nil
    var bestCover = -1
    val n = candidates.length
    val idx = new Array[Int](math.min(k, n))

    def rec(pos: Int, from: Int): Unit = {
      if (pos == idx.length) {
        val sel = idx.toList
        val c = coverageOf(sel.map(candidates))
        if (c > bestCover) { bestCover = c; bestSet = sel }
      } else {
        var i = from
        while (i <= n - (idx.length - pos)) {
          idx(pos) = i
          rec(pos + 1, i + 1)
          i += 1
        }
      }
    }
    rec(0, 0)
    (bestSet, bestCover)
  }

  /** Coverage of a fixed selection (distinct union size). */
  def coverageOf(selection: Seq[Array[Int]]): Int = {
    val s = new BitSet()
    selection.foreach(_.foreach(s.set))
    s.cardinality
  }
}
