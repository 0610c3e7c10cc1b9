package repro.jobs

import repro.core.{RunResult, Ted, TedConfig}
import repro.data.MoleculeGen
import repro.exp.Experiments
import repro.graph.GraphDb

/** Scratch entrypoint for calibrating bench-scale dataset sizes: run TED
  * on one dataset and print timing. Usage:
  *   sbt "runMain repro.jobs.CalibrateJob <preset> <nGraphs> <eMax> <timeoutMs> <method>"
  * where `preset` is a [[MoleculeGen.preset]] name and `method` one of
  * ted, base, allg, fsgg.
  */
object CalibrateJob {
  def main(args: Array[String]): Unit = {
    val preset = if (args.length > 0) args(0) else "aids"
    val n = if (args.length > 1) args(1).toInt else 800
    val eMax = if (args.length > 2) args(2).toInt else 10
    val timeout = if (args.length > 3) args(3).toLong else 120000L
    val params = MoleculeGen.preset(preset, n)
    val method = if (args.length > 4) args(4) else "ted"
    val run: GraphDb => RunResult = method match {
      case "ted"  => Ted.full(_, TedConfig(k = 5, eMax = eMax, timeoutMillis = timeout))
      case "base" => Ted.base(_, TedConfig(k = 5, eMax = eMax, timeoutMillis = timeout))
      case "allg" => repro.core.Baselines.allG(_, 5, eMax, timeout)
      case "fsgg" => repro.core.Baselines.fsgG(_, 5, eMax, 0.1, timeout)
      case other  =>
        throw new IllegalArgumentException(s"unknown method '$other': expected one of ted, base, allg, fsgg")
    }
    val t0 = System.currentTimeMillis()
    val db = MoleculeGen.db(params)
    println(s"generated ${db.numGraphs} graphs, ${db.totalEdges} edges in ${System.currentTimeMillis() - t0} ms")
    val res = run(db)
    println(Experiments.renderResult(res))
    println(f"indexTime=${res.indexNanos / 1e9}%.2f s indexKB=${res.indexBytes / 1024.0}%.1f")
  }
}
