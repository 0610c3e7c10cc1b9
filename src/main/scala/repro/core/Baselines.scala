package repro.core

import scala.collection.mutable
import repro.cover.MaxCover
import repro.enumeration.{Enumerator, TedTimeout}
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
    * A timed-out run selects nothing and reports the pool size it reached.
    */
  private def collectThenSelect(
      db: GraphDb, k: Int, minSupport: Int, eMax: Int, timeoutMillis: Long, method: String)(
      select: (IndexedSeq[Array[Int]], Int) => (Seq[Int], Int)): RunResult = {
    require(k >= 1, s"k must be at least 1, got $k")
    val t0 = System.nanoTime()
    val pool = mutable.ArrayBuffer.empty[Pattern]
    val timedOut =
      try { new Enumerator(db, eMax, minSupport, timeoutMillis).walk(n => pool += Pattern.of(n, db)); false }
      catch { case _: TedTimeout => true }
    val (chosen, coverage) = if (timedOut) (Nil, 0) else select(pool.view.map(_.cover).toIndexedSeq, k)
    RunResult(method, chosen.map(pool), coverage, db.totalEdges,
      (System.nanoTime() - t0) / 1000000L, pool.size.toLong, 0L, 0L, timedOut)
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
  def topKFrequent(pool: Seq[Pattern], k: Int): Seq[Pattern] =
    pool.map(p => ((-p.support, -p.numEdges, p.key), p)).sortBy(_._1).take(k).map(_._2)
}
