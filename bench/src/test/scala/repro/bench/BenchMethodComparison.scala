package repro.bench

import repro.SparkSpec
import repro.core.{Baselines, Ted, TedConfig}
import repro.data.MoleculeGen
import repro.exp.Experiments
import repro.exp.Experiments.{bench => B}

/** Supplementary method-comparison benches behind Figures 9–15 (the
  * paper's Results 1–2) — the context for Tables 3–4 and the headline
  * claims: TED is comparable to ALL_g in coverage, strictly faster, and
  * the baselines blow up (INF) as data or E_max grow.
  */
class BenchMethodComparison extends SparkSpec {

  private val T = B.timeoutMillis

  private def show(tag: String, rs: Seq[repro.core.RunResult]): Unit = {
    println(s"-- $tag")
    rs.foreach(r => println("   " + Experiments.renderResult(r)))
  }

  test("Fig 11 shape: dataset scaling on AIDS") {
    BenchShared.banner("Fig 11 (supplementary): baseline comparison on AIDS, k=5, E_max=10")
    val small = MoleculeGen.db(MoleculeGen.aidsLike(200))
    val mid = MoleculeGen.db(MoleculeGen.aidsLike(B.aidsSmall))
    val smallRes = Experiments.methodComparison(small, B.k, B.eMax, B.supMin, T)
    show("AIDS200", smallRes)
    val midRes = Experiments.methodComparison(mid, B.k, B.eMax, B.supMin, T)
    show(s"AIDS${B.aidsSmall}", midRes)
    val big = MoleculeGen.db(MoleculeGen.aidsLike(B.aidsLarge))
    val bigRes = Seq(
      Baselines.allG(big, B.k, B.eMax, T),
      Baselines.fsgG(big, B.k, B.eMax, B.supMin, T),
      Ted.full(big, TedConfig(k = B.k, eMax = B.eMax, timeoutMillis = T)),
    )
    show(s"AIDS${B.aidsLarge}", bigRes)

    val s = smallRes.map(r => r.method -> r).toMap
    // Result 1: TED comparable to ALL_g in coverage, faster than it.
    assert(s("TED").coverage >= (0.9 * s("ALL_g").coverage).toInt)
    assert(s("TED").millis < s("ALL_g").millis)
    // Result 1: greedy methods cost more time than TED.
    assert(s("TED").millis <= s("BASE").millis)
    // Paper: ALL_g degrades to INF as the dataset grows; TED stays fast.
    val bigTed = bigRes.find(_.method == "TED").get
    val bigAllG = bigRes.find(_.method == "ALL_g").get
    assert(!bigTed.timedOut, "TED must finish on the large dataset")
    assert(bigAllG.timedOut || bigAllG.millis > 10 * bigTed.millis,
      "ALL_g should blow up (INF) or be an order slower on the large dataset")
  }

  test("Fig 9 shape: effect of k") {
    BenchShared.banner("Fig 9 (supplementary): effect of number of patterns k on AIDS200")
    val db = MoleculeGen.db(MoleculeGen.aidsLike(200))
    val ks = Seq(3, 5, 10, 20)
    val ted = ks.map(k => Ted.full(db, TedConfig(k = k, eMax = B.eMax, timeoutMillis = T)))
    val fsg = ks.map(k => Baselines.fsgG(db, k, B.eMax, B.supMin, T))
    ks.zip(ted.zip(fsg)).foreach { case (k, (t, f)) =>
      println(f"k=$k%-3d TED covRate=${t.coverageRate}%.4f ${t.millis}%5d ms | FSG_g covRate=${f.coverageRate}%.4f ${f.millis}%5d ms")
    }
    // Coverage is non-decreasing in k for both methods.
    ted.sliding(2).foreach { case Seq(a, b) => assert(b.coverage >= a.coverage - 2) }
    fsg.sliding(2).foreach { case Seq(a, b) => assert(b.coverage >= a.coverage) }
  }

  test("Fig 10 shape: effect of E_max") {
    BenchShared.banner("Fig 10 (supplementary): effect of E_max on AIDS200 (paper: ALL_g INF at E_max=15)")
    val db = MoleculeGen.db(MoleculeGen.aidsLike(200))
    Seq(5, 10, 15).foreach { em =>
      val t = Ted.full(db, TedConfig(k = B.k, eMax = em, timeoutMillis = T))
      val a = Baselines.allG(db, B.k, em, T)
      println(f"E_max=$em%-3d TED covRate=${t.coverageRate}%.4f ${t.millis}%6d ms | " +
        f"ALL_g covRate=${a.coverageRate}%.4f ${if (a.timedOut) "INF" else s"${a.millis} ms"}")
      assert(!t.timedOut, s"TED must finish at E_max=$em")
      if (em >= 15) assert(a.timedOut || a.millis > 10 * math.max(1, t.millis),
        "ALL_g should hit INF (or near) at E_max=15 as in the paper")
    }
  }

  test("Fig 13 shape: comparison with the optimal solution") {
    BenchShared.banner("Fig 13 (supplementary): TED vs OPT on a tiny database (paper: ratio >= 0.945)")
    val db = MoleculeGen.db(MoleculeGen.aidsLike(12))
    val opt = Baselines.optimal(db, 3, 3)
    val ted = Ted.full(db, TedConfig(k = 3, eMax = 3, timeoutMillis = T))
    val allg = Baselines.allG(db, 3, 3, T)
    println(f"OPT covRate=${opt.coverageRate}%.4f | TED covRate=${ted.coverageRate}%.4f " +
      f"(ratio ${ted.coverage.toDouble / opt.coverage}%.3f) | ALL_g covRate=${allg.coverageRate}%.4f")
    assert(ted.coverage * 4 >= opt.coverage, "the 1/4 guarantee")
    assert(ted.coverage.toDouble / opt.coverage >= 0.85,
      "TED should be far better than the guarantee in practice")
  }

  test("Fig 14 shape: effect of optimization strategies") {
    BenchShared.banner("Fig 14 (supplementary): BASE vs PRM vs TED on AIDS" + B.aidsSmall)
    val db = MoleculeGen.db(MoleculeGen.aidsLike(B.aidsSmall))
    val cfg = TedConfig(k = B.k, eMax = B.eMax, timeoutMillis = T)
    val base = Ted.base(db, cfg)
    val prm = Ted.prm(db, cfg)
    val ted = Ted.full(db, cfg)
    show("optimizations", Seq(base, prm, ted))
    // Paper: processing time of BASE, PRM, TED shows a decreasing trend
    // without decreasing coverage.
    assert(prm.millis <= math.max(base.millis, 1), "PRM should not be slower than BASE")
    assert(ted.millis <= math.max(base.millis, 1), "TED should not be slower than BASE")
    assert(ted.coverage >= (0.9 * base.coverage).toInt, "optimizations must not hurt coverage")
    assert(prm.enumerated <= base.enumerated, "PRM prunes the search space")
  }

  test("Fig 15 shape: effect of swapping criteria") {
    BenchShared.banner("Fig 15 (supplementary): Swap_1 / Swap_2 / Swap_alpha on AIDS200 and eMol" + B.eMolSmall)
    for ((name, db) <- Seq("AIDS200" -> MoleculeGen.db(MoleculeGen.aidsLike(200)),
                           s"eMol${B.eMolSmall}" -> MoleculeGen.db(MoleculeGen.eMolLike(B.eMolSmall)))) {
      val res = Seq("Swap_1" -> 1.0, "Swap_2" -> 0.0, "Swap_a" -> 0.5).map { case (tag, a) =>
        tag -> Ted.full(db, TedConfig(k = B.k, eMax = B.eMax, alpha = a, timeoutMillis = T))
      }
      res.foreach { case (tag, r) =>
        println(f"$name%-10s $tag%-7s covRate=${r.coverageRate}%.4f ${r.millis}%6d ms")
      }
      // TED produces solid coverage under every criterion (paper: TED wins
      // regardless of the swapping threshold).
      res.foreach { case (tag, r) =>
        assert(!r.timedOut && r.coverageRate > 0.3, s"$name/$tag collapsed")
      }
    }
  }

  test("Fig 12 shape: effect of maximum number of nodes") {
    BenchShared.banner("Fig 12 (supplementary): PubChem vertex-count bands, 300 graphs each")
    val bands = Seq((0, 20), (20, 50), (50, 80))
    val rates = bands.map { case (lo, hi) =>
      val db = MoleculeGen.db(MoleculeGen.pubChemBand(300, lo, hi))
      val t = Ted.full(db, TedConfig(k = B.k, eMax = B.eMax, timeoutMillis = T))
      val f = Baselines.fsgG(db, B.k, B.eMax, B.supMin, T)
      println(f"D($lo,$hi]  TED covRate=${t.coverageRate}%.4f ${t.millis}%5d ms | FSG_g covRate=${f.coverageRate}%.4f ${if (f.timedOut) "INF" else s"${f.millis} ms"}")
      assert(!t.timedOut)
      t.coverageRate
    }
    rates.foreach(r => assert(r > 0.3, "coverage should stay healthy across bands"))
  }

  test("distributed TED tracks sequential TED at bench scale") {
    BenchShared.banner("Distributed TED (scan/aggregate framework) on AIDS" + B.aidsSmall)
    val db = MoleculeGen.db(MoleculeGen.aidsLike(B.aidsSmall))
    val seq = Ted.full(db, TedConfig(k = B.k, eMax = B.eMax, timeoutMillis = T))
    val dist = Experiments.distComparison(spark, db, B.k, B.eMax, T, partitions = 8)
    println("   " + Experiments.renderResult(seq))
    println("   " + Experiments.renderResult(dist))
    assert(dist.coverage >= (0.85 * seq.coverage).toInt,
      s"distributed ${dist.coverage} vs sequential ${seq.coverage}")
  }
}
