package repro.cover

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class MaxCoverSpec extends AnyFunSuite {

  private def sets(ss: Seq[Int]*): IndexedSeq[Array[Int]] = ss.toIndexedSeq.map(_.toArray)

  test("greedy picks the largest set first") {
    val cands = sets(Seq(0, 1), Seq(2, 3, 4), Seq(5))
    val (chosen, cov) = MaxCover.greedy(cands, 1, 6)
    assert(chosen == Seq(1) && cov == 3)
  }

  test("greedy counts marginal coverage, not absolute size") {
    // Second pick should be the disjoint pair, not the larger overlap.
    val cands = sets(Seq(0, 1, 2, 3), Seq(2, 3, 4), Seq(8, 9))
    val (chosen, cov) = MaxCover.greedy(cands, 2, 10)
    assert(chosen == Seq(0, 2) && cov == 6)
  }

  test("greedy breaks equal gains by the lowest index, zero gains included") {
    val cands = sets(Seq(5), Seq(0, 1), Seq(2, 3), Seq(1, 2))
    val (chosen, cov) = MaxCover.greedy(cands, 4, 6)
    assert(chosen == Seq(1, 2, 0, 3) && cov == 5)
  }

  test("greedy with k larger than candidate count selects everything") {
    val cands = sets(Seq(0), Seq(1))
    val (chosen, cov) = MaxCover.greedy(cands, 5, 2)
    assert(chosen.toSet == Set(0, 1) && cov == 2)
  }

  test("greedy coverage equals distinct union of chosen sets") {
    val rng = new Random(1)
    (1 to 10).foreach { _ =>
      val cands = IndexedSeq.fill(8)(Array.fill(6)(rng.nextInt(30)).distinct.sorted)
      val (chosen, cov) = MaxCover.greedy(cands, 3, 30)
      assert(cov == MaxCover.coverageOf(chosen.map(cands(_))))
    }
  }

  test("optimal beats or matches greedy") {
    val rng = new Random(2)
    (1 to 10).foreach { _ =>
      val cands = IndexedSeq.fill(7)(Array.fill(5)(rng.nextInt(20)).distinct.sorted)
      val (_, g) = MaxCover.greedy(cands, 3, 20)
      val (_, o) = MaxCover.optimal(cands, 3)
      assert(o >= g)
    }
  }

  test("greedy achieves at least (1 - 1/e) of optimal") {
    val rng = new Random(3)
    (1 to 10).foreach { _ =>
      val cands = IndexedSeq.fill(8)(Array.fill(6)(rng.nextInt(25)).distinct.sorted)
      val (_, g) = MaxCover.greedy(cands, 3, 25)
      val (_, o) = MaxCover.optimal(cands, 3)
      assert(g.toDouble >= (1.0 - 1.0 / math.E) * o - 1e-9)
    }
  }

  test("optimal on the classic greedy-trap instance") {
    // Universe {0..5}; greedy takes {0,1,2,3} then covers 6 total in 3
    // picks; optimal 2 picks {0,1,2} and {3,4,5} cover all 6.
    val cands = sets(Seq(0, 1, 2, 3), Seq(0, 1, 2), Seq(3, 4, 5))
    val (chosenO, covO) = MaxCover.optimal(cands, 2)
    assert(covO == 6)
    assert(MaxCover.coverageOf(chosenO.map(cands(_))) == 6)
    val (_, covG) = MaxCover.greedy(cands, 2, 6)
    assert(covG == 6) // greedy recovers here too: {0} then {3,4,5}
  }

  test("coverageOf on empty selection is zero") {
    assert(MaxCover.coverageOf(Nil) == 0)
  }

  test("optimal with k >= n covers the full union") {
    val cands = sets(Seq(0, 1), Seq(1, 2))
    val (_, cov) = MaxCover.optimal(cands, 5)
    assert(cov == 3)
  }
}
