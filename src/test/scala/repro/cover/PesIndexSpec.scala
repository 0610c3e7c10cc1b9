package repro.cover

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable
import scala.util.Random
import repro.TestGraphs
import repro.data.SampleDb
import repro.graph.{CodeEdge, GraphDb}

class PesIndexSpec extends AnyFunSuite {

  /** Synthetic "pattern" codes — the index never inspects code structure,
    * only uses keys, so opaque one-edge codes with distinct labels do.
    */
  private def code(n: Int): Vector[CodeEdge] = Vector(CodeEdge(0, 1, n, n, n))
  private def key(n: Int): String = repro.graph.DfsCode.key(code(n))

  private def newIndex(k: Int = 3, db: GraphDb = SampleDb.db) = new PesIndex(k, db)

  /** Naive recomputation of every component of `pes` from its live cover
    * sets — the oracle for the incremental maintenance.
    */
  private def naiveRecompute(pes: PesIndex): (Int, Map[Int, Int], Array[Int]) = {
    val coveredBy = mutable.Map.empty[Int, Long]
    pes.patternSlots.foreach { s =>
      pes.coverAt(s).foreach(e => coveredBy(e) = coveredBy.getOrElse(e, 0L) | (1L << s))
    }
    val total = coveredBy.size
    val priv = pes.patternSlots.map { s =>
      s -> coveredBy.count { case (_, m) => m == (1L << s) }
    }.toMap
    val unc = Array.tabulate(pes.db.numGraphs) { gi =>
      val lo = pes.db.edgeOffset(gi); val hi = pes.db.edgeOffset(gi + 1)
      (lo until hi).count(e => !coveredBy.contains(e))
    }
    (total, priv, unc)
  }

  private def assertConsistent(pes: PesIndex): Unit = {
    val (total, priv, unc) = naiveRecompute(pes)
    assert(pes.totalCoverage == total, "totalCoverage drifted")
    priv.foreach { case (slot, v) =>
      assert(pes.privateCoverage(slot) == v, s"pCov($slot) drifted")
    }
    assert(pes.uncovered.toSeq == unc.toSeq, "uncovered counts drifted")
    // Table 3's footprint: one (edge, mask) entry per covered edge, the
    // cover lists, k slots, one rCnt entry per distinct private coverage.
    val coverInts = pes.patternSlots.map(pes.coverAt(_).length.toLong).sum
    assert(pes.sizeBytes == 12L * total + 4L * coverInts + 8L * pes.k + 12L * priv.values.toSet.size + 16L,
      "sizeBytes drifted")
  }

  test("insert into empty index sets total and private coverage") {
    val pes = newIndex()
    pes.insert(code(1), key(1), Array(0, 1, 2))
    assert(pes.totalCoverage == 3)
    assert(pes.privateCoverage(0) == 3)
    assert(pes.size == 1)
    assertConsistent(pes)
  }

  test("overlapping insert demotes private edges") {
    val pes = newIndex()
    val s1 = pes.insert(code(1), key(1), Array(0, 1, 2))
    val s2 = pes.insert(code(2), key(2), Array(2, 3))
    assert(pes.totalCoverage == 4)
    assert(pes.privateCoverage(s1) == 2) // edge 2 now shared
    assert(pes.privateCoverage(s2) == 1)
    assertConsistent(pes)
  }

  test("benefit counts only uncovered edges") {
    val pes = newIndex()
    pes.insert(code(1), key(1), Array(0, 1, 2))
    assert(pes.benefit(Array(1, 2, 3, 4)) == 2)
    assert(pes.benefit(Array(0, 1)) == 0)
    assert(pes.benefit(Array(10, 11)) == 2)
  }

  test("minLoss selects the slot with smallest private coverage") {
    val pes = newIndex()
    val s1 = pes.insert(code(1), key(1), Array(0, 1, 2, 3))
    val s2 = pes.insert(code(2), key(2), Array(5))
    val (loss, slot) = pes.minLoss
    assert(loss == 1 && slot == s2)
    assert(s1 != s2)
  }

  test("minLoss breaks a tie by the slot whose private coverage changed first") {
    val pes = newIndex()
    val a = pes.insert(code(1), key(1), Array(0, 1))
    val b = pes.insert(code(2), key(2), Array(2, 3))
    assert(pes.minLoss == ((2, a)))
    // A leaves the tie (edge 1 becomes shared) and returns to it.
    val c = pes.insert(code(3), key(3), Array(1, 10, 11, 12))
    assert(pes.minLoss == ((1, a)))
    pes.delete(c)
    assert(a < b && pes.minLoss == ((2, b)))
  }

  test("delete restores coverage and promotes shared edges to private") {
    val pes = newIndex()
    val s1 = pes.insert(code(1), key(1), Array(0, 1, 2))
    val s2 = pes.insert(code(2), key(2), Array(2, 3))
    pes.delete(s2)
    assert(pes.size == 1)
    assert(!pes.contains(key(2)) && pes.contains(key(1)))
    assert(pes.totalCoverage == 3)
    assert(pes.privateCoverage(s1) == 3) // edge 2 exclusively owned again
    assertConsistent(pes)
  }

  test("update swaps a pattern in place") {
    val pes = newIndex()
    pes.insert(code(1), key(1), Array(0, 1))
    val (_, slot) = pes.minLoss
    pes.update(slot, code(9), key(9), Array(5, 6, 7))
    assert(pes.size == 1)
    assert(pes.totalCoverage == 3)
    assert(!pes.contains(key(1)) && pes.contains(key(9)))
    assertConsistent(pes)
  }

  test("uncovered per-graph counts track rCov zero-transitions") {
    val db = SampleDb.db // G1 has 8 edges at offset 0
    val pes = newIndex(3, db)
    assert(pes.uncovered(0) == 8)
    pes.insert(code(1), key(1), Array(0, 1, 2))
    assert(pes.uncovered(0) == 5)
    pes.insert(code(2), key(2), Array(2, 3, db.edgeOffset(1)))
    assert(pes.uncovered(0) == 4)
    assert(pes.uncovered(1) == db.graphs(1).numEdges - 1)
    pes.delete(pes.minLoss._2)
    assertConsistent(pes)
  }

  test("isCovered reflects the live pattern set") {
    val pes = newIndex()
    val s = pes.insert(code(1), key(1), Array(4))
    assert(pes.isCovered(4) && !pes.isCovered(5))
    pes.delete(s)
    assert(!pes.isCovered(4))
  }

  test("contains/codeAt by code key") {
    val pes = newIndex()
    val s = pes.insert(code(7), key(7), Array(0))
    assert(pes.contains(key(7)))
    assert(pes.codeAt(s) == code(7))
    assert(!pes.contains(key(8)))
    pes.delete(s)
    assert(!pes.contains(key(7)) && pes.codeAt(s) == null)
  }

  test("insert past capacity is rejected") {
    val pes = newIndex(2)
    pes.insert(code(1), key(1), Array(0))
    pes.insert(code(2), key(2), Array(1))
    intercept[IllegalArgumentException] {
      pes.insert(code(3), key(3), Array(2))
    }
  }

  test("duplicate insert is rejected") {
    val pes = newIndex()
    pes.insert(code(1), key(1), Array(0))
    intercept[IllegalArgumentException] {
      pes.insert(code(1), key(1), Array(1))
    }
  }

  test("maintenance time accumulates") {
    val pes = newIndex()
    pes.insert(code(1), key(1), Array.tabulate(10)(identity))
    assert(pes.maintenanceNanos > 0)
  }

  test("sizeBytes grows with covered edges and shrinks on delete") {
    val pes = newIndex()
    val empty = pes.sizeBytes
    val s = pes.insert(code(1), key(1), Array.tabulate(10)(identity))
    val after = pes.sizeBytes
    assert(after > empty)
    pes.delete(s)
    assert(pes.sizeBytes < after)
  }

  test("randomized insert/delete/update stays consistent with naive recomputation") {
    val rng = new Random(13)
    val db = SampleDb.db10
    val pes = new PesIndex(5, db)
    var nextCode = 0
    // Model of SELECT's tie order: when each live slot's private coverage
    // last changed, replayed edge by edge in cover order. An edge left
    // with one owner changes that owner's private coverage.
    val changedAt = mutable.Map.empty[Int, Int]
    var clock = 0
    def changed(slot: Int): Unit = { clock += 1; changedAt(slot) = clock }
    def owners(e: Int, gone: Int): Seq[Int] =
      pes.patternSlots.filter(s => s != gone && pes.coverAt(s).contains(e))
    /** Replays the DELETE of slot `gone` (none if -1), then the INSERT of
      * `cover` up to the new slot's own change.
      */
    def replay(gone: Int, cover: Array[Int]): Unit = {
      if (gone >= 0) {
        pes.coverAt(gone).foreach { e => val o = owners(e, gone); if (o.size == 1) changed(o.head) }
        changedAt -= gone
      }
      cover.foreach { e => val o = owners(e, gone); if (o.size == 1) changed(o.head) }
    }
    (1 to 200).foreach { _ =>
      val op = rng.nextInt(3)
      if (op == 0 && pes.size < 5) {
        nextCode += 1
        val cover = Array.fill(1 + rng.nextInt(12))(rng.nextInt(db.totalEdges)).distinct.sorted
        replay(-1, cover)
        changed(pes.insert(code(nextCode), key(nextCode), cover))
      } else if (op == 1 && pes.size > 0) {
        val slots = pes.patternSlots
        val gone = slots(rng.nextInt(slots.length))
        replay(gone, Array.empty)
        pes.delete(gone)
      } else if (pes.size > 0) {
        nextCode += 1
        val cover = Array.fill(1 + rng.nextInt(12))(rng.nextInt(db.totalEdges)).distinct.sorted
        val gone = pes.minLoss._2
        replay(gone, cover)
        pes.update(gone, code(nextCode), key(nextCode), cover)
        changed(pes.patternSlots.find(pes.codeAt(_) == code(nextCode)).get)
      }
      assertConsistent(pes)
      // Exactly the live slots' keys are indexed: delete and update drop
      // the removed pattern's key.
      val live = pes.patternSlots.map(s => repro.graph.DfsCode.key(pes.codeAt(s))).toSet
      (1 to nextCode).foreach(n => assert(pes.contains(key(n)) == live.contains(key(n)), s"key of code $n"))
      if (pes.size > 0) {
        val slot = pes.minLossSlot
        assert(pes.minLoss == ((pes.privateCoverage(slot), slot)))
        assert(slot == pes.patternSlots.minBy(s => (pes.privateCoverage(s), changedAt(s))),
          "minLoss broke a tie otherwise than by the earliest change")
      }
    }
  }

  test("example-4 style swap arithmetic") {
    // P = {p_a, p_b, p_c} with private coverages 2, 10, 8; Score_L = 2.
    val db = SampleDb.db10
    val pes = new PesIndex(3, db)
    pes.insert(code(1), key(1), Array(0, 1))                         // private 2
    pes.insert(code(2), key(2), Array.tabulate(10)(_ + 2))           // private 10
    pes.insert(code(3), key(3), Array.tabulate(8)(_ + 12))           // private 8
    val (loss, slot) = pes.minLoss
    assert(loss == 2 && slot == 0)
    // Candidate g with benefit 7 (7 new edges): swap since 7 > (1+1)*2.
    val cand = Array.tabulate(7)(_ + 20)
    val b = pes.benefit(cand)
    assert(b == 7)
    assert(b > 2 * loss)
    pes.update(slot, code(4), key(4), cand)
    assert(pes.totalCoverage == 10 + 8 + 7)
    assertConsistent(pes)
  }
}
