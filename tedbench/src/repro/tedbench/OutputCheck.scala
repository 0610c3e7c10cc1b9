package repro.tedbench

import scala.io.Source
import repro.core.{RunResult, TedConfig}
import repro.cover.MaxCover
import repro.graph.{CanonicalCode, DfsCode, GraphDb}
import repro.iso.SubIso

/** Golden outputs: per workload and seed (`*` = every seed), the coverage
  * and the sorted pattern keys. One line each:
  * `<workload> <seed|*> <coverage> <key> <key> ...`.
  */
final class Golden(entries: Map[(String, String), (Int, Seq[String])]) {
  def lookup(workload: String, seed: Long): Option[(Int, Seq[String])] =
    entries.get((workload, seed.toString)).orElse(entries.get((workload, "*")))
}

object Golden {
  def load(path: String): Golden = {
    val src = Source.fromFile(path)
    try {
      new Golden(src.getLines().map(_.trim).filter(l => l.nonEmpty && !l.startsWith("#")).map { l =>
        val f = l.split("\\s+")
        (f(0), f(1)) -> (f(2).toInt, f.drop(3).toSeq)
      }.toMap)
    } finally src.close()
  }

  def line(workload: String, seed: String, r: RunResult): String =
    (Seq(workload, seed, r.coverage.toString) ++ r.patterns.map(_.key).sorted).mkString(" ")
}

/** Checks one call's output independently of the search that made it:
  *  - no timeout, `totalEdges` equal to the database's, 1..k patterns with
  *    distinct keys, each canonical (its own minimum DFS code) with
  *    1..E_max edges;
  *  - each pattern's cover equal to its cover recomputed with
  *    `SubIso.coverSet` over every graph, and `coverage` equal to the
  *    union of the recomputed covers;
  *  - where a golden entry exists, the sorted keys and coverage equal it.
  *
  * Calls are deterministic, so an output identical (keys, covers,
  * coverage) to one already verified reuses its verdict.
  */
final class OutputCheck(db: GraphDb, cfg: TedConfig, golden: Option[(Int, Seq[String])]) {
  private var verified: RunResult = _

  /** `None` if `r` passes, else the first failed condition. */
  def apply(r: RunResult): Option[String] =
    if (r.timedOut) Some("timed out")
    else if (verified != null && sameOutput(r, verified)) None
    else {
      val err = verify(r)
      if (err.isEmpty) verified = r
      err
    }

  private def sameOutput(a: RunResult, b: RunResult): Boolean =
    a.coverage == b.coverage && a.totalEdges == b.totalEdges &&
      a.patterns.length == b.patterns.length &&
      a.patterns.zip(b.patterns).forall { case (p, q) =>
        p.key == q.key && java.util.Arrays.equals(p.cover, q.cover)
      }

  private def verify(r: RunResult): Option[String] = {
    val keys = r.patterns.map(_.key)
    if (r.totalEdges != db.totalEdges) return Some(s"totalEdges ${r.totalEdges} != ${db.totalEdges}")
    if (keys.isEmpty || keys.length > cfg.k) return Some(s"${keys.length} patterns, want 1..${cfg.k}")
    if (keys.distinct.length != keys.length) return Some("duplicate pattern keys")
    r.patterns.foreach { p =>
      if (p.numEdges < 1 || p.numEdges > cfg.eMax) return Some(s"pattern ${p.key} has ${p.numEdges} edges")
      if (CanonicalCode.minCodeOf(DfsCode.toGraph(p.code)) != p.code) return Some(s"pattern ${p.key} is not canonical")
    }
    val covers = r.patterns.toIndexedSeq.map(p => recomputedCover(DfsCode.toGraph(p.code)))
    r.patterns.zip(covers).foreach { case (p, c) =>
      if (!java.util.Arrays.equals(p.cover, c)) return Some(s"cover of ${p.key} differs from SubIso's")
    }
    val union = MaxCover.greedy(covers, covers.length, db.totalEdges)._2
    if (union != r.coverage) return Some(s"coverage ${r.coverage} != recomputed union $union")
    golden.foreach { case (cov, gkeys) =>
      if (cov != r.coverage || gkeys != keys.sorted)
        return Some(s"output differs from golden (coverage ${r.coverage} vs $cov)")
    }
    None
  }

  /** Cover of `pattern` over the whole database as sorted global edge ids. */
  private def recomputedCover(pattern: repro.graph.LabeledGraph): Array[Int] = {
    val out = Array.newBuilder[Int]
    var gi = 0
    while (gi < db.numGraphs) {
      val off = db.edgeOffset(gi)
      SubIso.coverSet(pattern, db.graphs(gi)).foreach(e => out += off + e)
      gi += 1
    }
    out.result()
  }
}
