package repro.tedbench

import scala.collection.mutable
import scala.util.control.NonFatal
import repro.core.{RunResult, Ted}

/** Entry point of one benchmark run:
  * `--workload <name> --seed <n> --seconds <s> --trace <0|1>
  *  [--golden <file>] [--spans <file>] [--work-dir <dir>]`.
  *
  * Prints each metric by name with its unit, then, as the last line, one
  * JSON object `{"correct", "attempted", "failed", "metrics"}`: the
  * end-to-end metrics with `--trace 0`, the per-layer ones with
  * `--trace 1`.
  */
object Main {

  final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean,
      golden: Option[String], spans: Option[String], workDir: String)

  private def parse(args: Array[String]): Opts = {
    val m = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(need("workload"), need("seed").toLong, need("seconds").toDouble,
      need("trace") match { case "0" => false; case "1" => true; case t => throw new IllegalArgumentException(s"--trace $t") },
      m.get("golden"), m.get("spans"), m.getOrElse("work-dir", "."))
  }

  /** Calls attempted and failed; a failure is an exception, a timeout or
    * a failed output check.
    */
  final class Tally {
    var attempted = 0
    var failed = 0
    val errors = mutable.ArrayBuffer.empty[String]
    def fail(msg: String): Unit = { failed += 1; if (errors.length < 5) errors += msg }
  }

  final case class Sample(result: RunResult, wallNs: Long, alloc: Alloc)

  private def attempt(w: Workload, check: RunResult => Option[String], tally: Tally,
      onStart: () => Unit = () => ()): Option[Sample] = {
    tally.attempted += 1
    System.gc()
    onStart()
    try {
      val mark = JvmProbe.allocMark()
      val t0 = System.nanoTime()
      val r = w.call()
      val wall = System.nanoTime() - t0
      val alloc = JvmProbe.allocSince(mark)
      check(r) match {
        case None => Some(Sample(r, wall, alloc))
        case Some(err) => tally.fail(err); None
      }
    } catch { case NonFatal(e) => tally.fail(e.toString); None }
  }

  private def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0 else {
      val s = xs.sorted; val n = s.length
      if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
    }

  /** Time repeated builds of the input (the first, cold one is already
    * done): at least 5, and up to 200 until 2 s have passed; returns their times.
    */
  private def setupTimes(w: Workload): Seq[Double] = {
    val times = mutable.ArrayBuffer.empty[Double]
    val start = System.nanoTime()
    while (times.length < 5 || (System.nanoTime() - start < 2000000000L && times.length < 200)) {
      w.release()
      System.gc()
      val t0 = System.nanoTime()
      w.build()
      times += (System.nanoTime() - t0) / 1e9
    }
    times.toSeq
  }

  final class Metrics {
    val values = mutable.LinkedHashMap.empty[String, (Double, String)]
    def apply(name: String, unit: String, v: Double): Unit = values(name) = (v, unit)
  }

  private def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "0" else if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString else v.toString

  def main(args: Array[String]): Unit = {
    val o = parse(args)
    val threads = math.min(4, Runtime.getRuntime.availableProcessors)
    val w = Workloads(o.workload, o.seed, threads, o.workDir)
    println(s"# tedbench workload=${w.name} seed=${o.seed} seconds=${o.seconds} trace=${if (o.trace) 1 else 0} " +
      s"nproc=${Runtime.getRuntime.availableProcessors} spark_threads=$threads " +
      s"max_heap_mb=${Runtime.getRuntime.maxMemory >> 20} jvm_flags=[${JvmProbe.heapFlags}]")
    val tally = new Tally
    val golden = o.golden.flatMap(p => Golden.load(p).lookup(w.name, o.seed))
    if (golden.isEmpty) tally.fail(s"no golden entry for ${w.name} at seed ${o.seed}")
    val metrics = new Metrics
    try {
      w.build()
      val coldStart = JvmProbe.uptimeSeconds()
      if (o.trace) traced(w, o, golden, tally, metrics, coldStart)
      else timed(w, o, golden, tally, metrics)
    } catch { case NonFatal(e) => tally.attempted += 1; tally.fail(e.toString) }
    finally w.close()

    tally.errors.foreach(e => println(s"# FAILED: $e"))
    metrics.values.foreach { case (k, (v, u)) => println(f"$k%-32s ${num(v)}%s $u") }
    val ms = metrics.values.map { case (k, (v, u)) => s""""$k": {"value": ${num(v)}, "unit": "$u"}""" }
    println(s"""{"correct": ${tally.failed == 0 && tally.attempted > 0}, "attempted": ${math.max(1, tally.attempted)}, """ +
      s""""failed": ${if (tally.attempted == 0) 1 else tally.failed}, "metrics": {${ms.mkString(", ")}}}""")
  }

  private def timed(w: Workload, o: Opts, golden: Option[(Int, Seq[String])], tally: Tally, m: Metrics): Unit = {
    val setups = setupTimes(w)
    val check = new OutputCheck(w.db, w.cfg, golden)
    (0 until w.warmupCalls).foreach(_ => attempt(w, check(_), tally))
    val samples = mutable.ArrayBuffer.empty[Sample]
    val start = System.nanoTime()
    var calls = 0
    while (calls < w.minCalls || System.nanoTime() - start < (o.seconds * 1e9).toLong) {
      attempt(w, check(_), tally).foreach(samples += _)
      calls += 1
    }
    samples.headOption.foreach(s => println(s"# golden ${Golden.line(w.name, o.seed.toString, s.result)}"))
    val mb = (f: Alloc => Long) => median(samples.map(s => f(s.alloc) / 1e6).toSeq)
    val walls = samples.map(_.wallNs / 1e9).sorted
    if (walls.nonEmpty) println(f"# wall s: min=${walls.head}%.4f median=${median(walls.toSeq)}%.4f max=${walls.last}%.4f")
    println(f"# calls measured=${samples.length} setups=${setups.length} alloc split MB (medians): " +
      f"calling_thread=${mb(_.caller)}%.1f task_threads=${mb(_.tasks)}%.1f all_threads=${mb(_.total)}%.1f")
    m("wall_s", "s", median(samples.map(_.wallNs / 1e9).toSeq))
    m("coverage_rate", "ratio", samples.headOption.fold(0.0)(_.result.coverageRate))
    m("alloc_mb", "MB", mb(_.total))
    m("setup_s", "s", median(setups))
  }

  private def traced(w: Workload, o: Opts, golden: Option[(Int, Seq[String])], tally: Tally,
      m: Metrics, coldStart: Double): Unit = {
    val tr = new Trace()
    val counters = new SearchCounters
    val listener = w match {
      case d: DistWorkload =>
        val l = new TaskListener; d.spark.sparkContext.addSparkListener(l); Some((d, l))
      case _ => None
    }
    val check = new OutputCheck(w.db, w.cfg, golden)
    (0 until w.warmupCalls).foreach(_ => attempt(w, check(_), tally))

    // Reference call, untraced: JVM and Spark task figures, and the
    // outcome the traced re-drive must reproduce.
    var gc0 = (0L, 0L)
    val ref = attempt(w, check(_), tally, () => {
      listener.foreach { case (d, _) => d.spark.sparkContext.setJobGroup(TaskListener.Group, "reference call") }
      JvmProbe.resetHeapPeaks()
      gc0 = JvmProbe.gcTotals()
    })
    val (gcCount0, gcMs0) = gc0
    val (gcCount1, gcMs1) = JvmProbe.gcTotals()
    val peakHeap = JvmProbe.heapPeakBytes()
    val tasks = listener.fold(Seq.empty[TaskListener.Task]) { case (d, l) => l.await(d.spark.sparkContext) }
    ref.foreach(s => println(s"# golden ${Golden.line(w.name, o.seed.toString, s.result)}"))

    var overhead = 0.0
    var candidates = 0L
    ref.foreach { s =>
      val expect = SearchOutcome(s.result.patterns.map(_.key), s.result.coverage, s.result.enumerated)
      w match {
        case t: TedWorkload =>
          System.gc()
          tally.attempted += 1
          val got = new TracedTed(t.db, t.searchCfg, tr, counters).run()
          if (got != expect) tally.fail(s"traced re-drive $got differs from Ted.run $expect")
          val searchMs = tr.inclusiveMs("core.call") - tr.inclusiveMs("graph.rightmost") - tr.inclusiveMs("graph.ismin")
          overhead = searchMs * 1e6 / s.wallNs
        case d: DistWorkload =>
          System.gc()
          tally.attempted += 1
          val ph = DistProbe.phases(d, d.cfg, tr)
          if (ph.keys != expect.keys || ph.coverage != expect.coverage || ph.candidates.length != expect.enumerated)
            tally.fail(s"phase replay (${ph.keys}, ${ph.coverage}) differs from DistTed.run (${expect.keys}, ${expect.coverage})")
          val phaseMs = tr.inclusiveMs("dist.local") + tr.inclusiveMs("dist.cover") + tr.inclusiveMs("dist.select")
          overhead = phaseMs * 1e6 / s.wallNs
          candidates = ph.candidates.length
          val shards = DistProbe.shards(d)
          if (DistProbe.localReplay(shards, d.cfg, tr, counters) != ph.candidates)
            tally.fail("single-thread replay of phase 1 gives other candidates")
          DistProbe.coverReplay(d.db, ph.candidates, tr)
          val mark = JvmProbe.allocMark()
          shards.foreach(db => Ted.run(db, d.cfg))
          val localTed = JvmProbe.allocSince(mark).caller
          println(f"# sanity: DistTed.run allocated ${s.alloc.total / 1e6}%.1f MB over all threads " +
            f"(calling thread ${s.alloc.caller / 1e6}%.1f MB, Spark task threads ${s.alloc.tasks / 1e6}%.1f MB); " +
            f"the partitions' local Ted.run alone allocates ${localTed / 1e6}%.1f MB on one thread")
      }
    }
    o.spans.foreach(tr.writeTo)

    val c = counters
    def ratio(a: Long, b: Long, none: Double) = if (b == 0) none else a.toDouble / b
    m("core.ips_ms", "ms", tr.inclusiveMs("core.ips"))
    m("core.prm_ms", "ms", tr.selfMs("core.prm"))
    m("core.maintained", "count", c.maintained)
    m("core.prm_pass_ratio", "ratio", ratio(c.prmKept, c.prmChecked, 1.0))
    m("core.swaps_tried", "count", c.swapsTried)
    m("core.swaps_accepted", "count", c.swapsAccepted)
    m("enumeration.roots_ms", "ms", tr.inclusiveMs("enumeration.roots"))
    m("enumeration.children_ms", "ms", tr.inclusiveMs("enumeration.children"))
    m("enumeration.children_calls", "count", c.childrenCalls)
    m("enumeration.children_out", "count", c.childrenOut)
    m("enumeration.embeddings_in", "count", c.embeddingsIn)
    m("enumeration.cover_ms", "ms", tr.inclusiveMs("enumeration.cover"))
    m("enumeration.cover_calls", "count", c.coverCalls)
    m("graph.rightmost_ms", "ms", tr.inclusiveMs("graph.rightmost"))
    m("graph.extensions", "count", c.extensions)
    m("graph.ismin_ms", "ms", tr.inclusiveMs("graph.ismin"))
    m("graph.ismin_calls", "count", c.isminCalls)
    m("graph.ismin_pass_ratio", "ratio", ratio(c.isminPass, c.isminCalls, 0.0))
    m("cover.pes_ms", "ms", tr.inclusiveMs("cover.pes"))
    m("cover.pes_calls", "count", c.pesCalls)
    m("cover.pes_kb", "KB", c.pesBytes / 1024.0)
    m("cover.greedy_ms", "ms", tr.inclusiveMs("cover.greedy"))
    m("iso.coverset_ms", "ms", tr.inclusiveMs("iso.coverset"))
    m("iso.coverset_calls", "count", tr.calls("iso.coverset"))
    m("dist.local_ms", "ms", tr.inclusiveMs("dist.local"))
    m("dist.cover_ms", "ms", tr.inclusiveMs("dist.cover"))
    m("dist.select_ms", "ms", tr.inclusiveMs("dist.select"))
    m("dist.candidates", "count", candidates)
    val runMs = tasks.map(_.runMs.toDouble)
    // Skew is taken in the stage with the most task time: phase 1's scan.
    val heavy = tasks.groupBy(_.stage).values.maxByOption(_.map(_.runMs).sum).getOrElse(Seq.empty)
    val heavyMedian = median(heavy.map(_.runMs.toDouble))
    m("dist.tasks", "count", tasks.length)
    m("dist.task_max_ms", "ms", if (runMs.isEmpty) 0.0 else runMs.max)
    m("dist.task_median_ms", "ms", median(runMs))
    m("dist.skew", "ratio", if (heavyMedian == 0) 0.0 else heavy.map(_.runMs).max / heavyMedian)
    m("dist.result_kb", "KB", tasks.map(_.resultBytes).sum / 1024.0)
    m("dist.executor_gc_ms", "ms", tasks.map(_.gcMs).sum.toDouble)
    m("jvm.gc_ms", "ms", (gcMs1 - gcMs0).toDouble)
    m("jvm.gc_count", "count", (gcCount1 - gcCount0).toDouble)
    m("jvm.peak_heap_mb", "MB", peakHeap / 1e6)
    m("jvm.alloc_other_threads_mb", "MB", ref.fold(0.0)(_.alloc.others / 1e6))
    m("jvm.cold_start_s", "s", coldStart)
    m("trace.overhead_ratio", "ratio", overhead)
  }
}
