package repro.core

import repro.cover.MaxCover
import repro.enumeration.{Enumerator, PatternNode, TedTimeout}
import repro.graph.GraphDb

/** The four baseline solutions of Sections 3 and 7.1:
  *
  *  - ALL_g (Algorithm 1): enumerate-and-store every subgraph, then greedy
  *    MaxCover — (1 - 1/e) quality, exponential memory;
  *  - FSG_g (Algorithm 2): same with only frequent subgraphs;
  *  - ALL_t / FSG_t: the swapping variants — stream the (frequent)
  *    enumeration through the PES-Index maintenance instead of storing.
  *    ALL_t is exactly TED_BASE ([[Ted.base]]); FSG_t is BASE over the
  *    frequent-only space.
  */
object Baselines {

  /** Shared enumerate-collect-then-select path of Algorithms 1 and 2 and
    * of OPT; `select` solves max k-cover over the collected cover sets.
    */
  private def collectThenSelect(
      db: GraphDb, k: Int, minSupport: Int, eMax: Int, timeoutMillis: Long, method: String)(
      select: (IndexedSeq[Array[Int]], Int) => (Seq[Int], Int)): RunResult = {
    require(k >= 1, s"k must be at least 1, got $k")
    val t0 = System.nanoTime()
    val en = new Enumerator(db, eMax, minSupport, timeoutMillis)
    var collected: IndexedSeq[PatternNode] = IndexedSeq.empty
    var timedOut = false
    try collected = en.collectAll()
    catch { case _: TedTimeout => timedOut = true }

    if (timedOut)
      return RunResult(method, Nil, 0, db.totalEdges,
        (System.nanoTime() - t0) / 1000000L, collected.size.toLong, 0L, 0L, timedOut = true)

    val (chosen, coverage) = select(collected.map(_.coverGlobal(db)), k)
    RunResult(method, chosen.map(ci => Pattern.of(collected(ci), db)), coverage, db.totalEdges,
      (System.nanoTime() - t0) / 1000000L, collected.size.toLong, 0L, 0L, timedOut = false)
  }

  def allG(db: GraphDb, k: Int, eMax: Int, timeoutMillis: Long = Long.MaxValue): RunResult =
    collectThenSelect(db, k, minSupport = 1, eMax, timeoutMillis, "ALL_g")(
      MaxCover.greedy(_, _, db.totalEdges))

  def fsgG(db: GraphDb, k: Int, eMax: Int, supMin: Double,
           timeoutMillis: Long = Long.MaxValue): RunResult =
    collectThenSelect(db, k, supportCount(db, supMin), eMax, timeoutMillis, "FSG_g")(
      MaxCover.greedy(_, _, db.totalEdges))

  /** FSG_t: BASE over the frequent-only space with Swap_1 (alpha = 1).
    * [[TedConfig]] checks `k`.
    */
  def fsgT(db: GraphDb, k: Int, eMax: Int, supMin: Double,
           timeoutMillis: Long = Long.MaxValue): RunResult =
    Ted.run(db,
      TedConfig(k = k, eMax = eMax, usePrm = false, useIps = false,
        minSupport = supportCount(db, supMin), timeoutMillis = timeoutMillis),
      "FSG_t")

  /** sup_min in [0,1] -> absolute graph-count threshold (at least 1). */
  def supportCount(db: GraphDb, supMin: Double): Int = {
    require(supMin >= 0.0 && supMin <= 1.0, s"supMin must lie in [0, 1], got $supMin")
    math.max(1, math.ceil(supMin * db.numGraphs).toInt)
  }

  /** Exhaustive optimum over the full pattern space — the OPT reference;
    * only feasible on tiny databases (PubChem100/AIDS100-scale analogue).
    */
  def optimal(db: GraphDb, k: Int, eMax: Int): RunResult =
    collectThenSelect(db, k, minSupport = 1, eMax, Long.MaxValue, "OPT")(MaxCover.optimal)

  /** Top-k frequent subgraphs of a frequent `pool` (the FS comparator of
    * Exps 6–7): highest support first, larger patterns breaking ties.
    */
  def topKFrequent(db: GraphDb, pool: Seq[PatternNode], k: Int): Seq[Pattern] =
    pool.sortBy(n => (-n.support, -n.numEdges, n.key))
      .take(k)
      .map(Pattern.of(_, db))
}
