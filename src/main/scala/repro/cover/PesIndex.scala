package repro.cover

import repro.graph.{CodeEdge, GraphDb}

/** The Private-Edge-Set index of Section 4.2, holding the five components
  * |Cov(P)|, |pCov(p)|, rCov(e), rCnt(i) and p_min, with the INSERT /
  * DELETE / UPDATE / SELECT operations.
  *
  * Patterns occupy slots 0..k-1 (k <= 64), so the reverse cover set
  * rCov(e) is a Long bitmask per global edge. rCnt and p_min are not
  * stored: with at most 64 slots, SELECT scans the live slots for the
  * least private coverage. Each slot stamps when its private coverage
  * last changed; among equal values the oldest stamp wins, so p_min is
  * the slot that has sat longest in the least-valued rCnt bucket.
  *
  * Beyond the paper, the index also maintains the per-graph uncovered-edge
  * count needed by the PRM rules (Definition 7) — a transition of rCov(e)
  * between zero and non-zero adjusts `uncovered(graphOf(e))`.
  *
  * Every mutating/scoring entry point is wrapped with nano timing so Table
  * 4's "Index Time" is measured, and `sizeBytes` reports the logical
  * (sparse) footprint for Table 3.
  */
final class PesIndex(val k: Int, val db: GraphDb) {
  require(k >= 1 && k <= 64, s"PES-Index supports 1..64 pattern slots, got $k")

  private val rCov = new Array[Long](db.totalEdges)
  private val slotCover = new Array[Array[Int]](k)
  private val slotCode  = new Array[Vector[CodeEdge]](k)
  private val slotKey   = new Array[String](k)
  private val pCov = new Array[Int](k)
  // When each slot's pCov last changed, from `clock`: SELECT's tie order.
  private val pCovStamp = new Array[Long](k)
  private var clock = 0L
  private var live = 0

  /** |Cov(P, D)|: total edges of D covered by the current pattern set. */
  var totalCoverage: Int = 0

  /** uncovered(i) = |E(G_i) \ Cov(P, G_i)| — the PRM bound ingredient. */
  val uncovered: Array[Int] = Array.tabulate(db.numGraphs)(i => db.graphs(i).numEdges)

  /** Cumulative time spent maintaining/querying the index (Table 4). */
  var maintenanceNanos: Long = 0L

  @inline private def timed[A](body: => A): A = {
    val t0 = System.nanoTime()
    val r = body
    maintenanceNanos += System.nanoTime() - t0
    r
  }

  def size: Int = live
  def isFull: Boolean = live == k
  def contains(codeKey: String): Boolean = slotKey.contains(codeKey)

  def patternSlots: Seq[Int] = (0 until k).filter(slotCode(_) != null)
  def codeAt(slot: Int): Vector[CodeEdge] = slotCode(slot)
  def coverAt(slot: Int): Array[Int] = slotCover(slot)
  def privateCoverage(slot: Int): Int = pCov(slot)

  /** Edge-level membership: is global edge `e` covered by any pattern? */
  def isCovered(e: Int): Boolean = rCov(e) != 0L

  private def setPCov(slot: Int, value: Int): Unit = {
    pCov(slot) = value
    clock += 1
    pCovStamp(slot) = clock
  }

  /** SELECT: the slot of the pattern p_min with minimum private
    * coverage; its loss score Score_L = |pCov(p_min)| (Section 4.2) is
    * `privateCoverage(minLossSlot)`.
    */
  def minLossSlot: Int = timed {
    require(live > 0, "minLoss on an empty pattern set")
    var best = -1
    var s = 0
    while (s < k) {
      if (slotCode(s) != null && (best < 0 || pCov(s) < pCov(best) ||
          pCov(s) == pCov(best) && pCovStamp(s) < pCovStamp(best))) best = s
      s += 1
    }
    best
  }

  /** SELECT as (lossScore, slot). */
  def minLoss: (Int, Int) = {
    val s = minLossSlot
    (pCov(s), s)
  }

  /** Benefit score of a candidate cover set: |{e in cov : rCov(e) = 0}|. */
  def benefit(cover: Array[Int]): Int = timed {
    var b = 0
    var i = 0
    while (i < cover.length) { if (rCov(cover(i)) == 0L) b += 1; i += 1 }
    b
  }

  /** INSERT: add pattern `code` with cover set `cover` into a free slot. */
  def insert(code: Vector[CodeEdge], codeKey: String, cover: Array[Int]): Int = timed {
    require(size < k, "INSERT on a full pattern set — use update")
    require(!contains(codeKey), s"pattern already present: $codeKey")
    val slot = slotCode.indexOf(null)
    slotCover(slot) = cover
    slotCode(slot) = code
    slotKey(slot) = codeKey
    live += 1
    var priv = 0
    val bit = 1L << slot
    var i = 0
    while (i < cover.length) {
      val e = cover(i)
      val old = rCov(e)
      if (old == 0L) {
        totalCoverage += 1
        uncovered(db.graphOfEdge(e)) -= 1
        priv += 1
      } else if (java.lang.Long.bitCount(old) == 1) {
        val p = java.lang.Long.numberOfTrailingZeros(old)
        setPCov(p, pCov(p) - 1)
      }
      rCov(e) = old | bit
      i += 1
    }
    setPCov(slot, priv)
    slot
  }

  /** DELETE: remove the pattern at `slot`, restoring private coverage of
    * newly-exclusive owners and the per-graph uncovered counts.
    */
  def delete(slot: Int): Unit = timed {
    require(slotCode(slot) != null, s"DELETE on empty slot $slot")
    val cover = slotCover(slot)
    val bit = 1L << slot
    var i = 0
    while (i < cover.length) {
      val e = cover(i)
      val now = rCov(e) & ~bit
      rCov(e) = now
      if (now == 0L) {
        totalCoverage -= 1
        uncovered(db.graphOfEdge(e)) += 1
      } else if (java.lang.Long.bitCount(now) == 1) {
        val p = java.lang.Long.numberOfTrailingZeros(now)
        setPCov(p, pCov(p) + 1)
      }
      i += 1
    }
    slotCover(slot) = null
    slotCode(slot) = null
    slotKey(slot) = null
    pCov(slot) = 0
    live -= 1
  }

  /** UPDATE: swap `code` in for the pattern at `slot` (DELETE + INSERT). */
  def update(slot: Int, code: Vector[CodeEdge], codeKey: String, cover: Array[Int]): Unit = {
    delete(slot)
    insert(code, codeKey, cover)
  }

  /** Logical (sparse) index footprint in bytes for Table 3: one
    * (edgeId, mask) entry per covered edge, the per-pattern cover lists,
    * the scalar components, and one rCnt entry per distinct private
    * coverage among the live slots.
    */
  def sizeBytes: Long = {
    val slots = patternSlots
    12L * totalCoverage + 4L * slots.map(slotCover(_).length.toLong).sum + 8L * k +
      12L * slots.map(pCov).distinct.size + 16L
  }
}
