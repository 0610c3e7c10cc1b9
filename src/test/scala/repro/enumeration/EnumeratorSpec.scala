package repro.enumeration

import java.util.concurrent.{ConcurrentLinkedQueue, CountDownLatch, ForkJoinPool, FutureTask, TimeUnit}
import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.Random
import repro.TestGraphs
import repro.core.{Baselines, Ips, TedConfig}
import repro.data.{MoleculeGen, SampleDb}
import repro.graph.{CanonicalCode, CodeEdge, DfsCode, GraphDb, LabeledGraph, RightMost}

class EnumeratorSpec extends AnyFunSuite {

  private def enumerate(db: GraphDb, eMax: Int, minSupport: Int = 1): Seq[PatternNode] =
    TestGraphs.nodes(new Enumerator(db, eMax, minSupport))

  /** The children of `p` built eagerly from its embeddings `embs` (by
    * default `p.embeddings`) with `RightMost.foreachExtension`: extension
    * -> embeddings, in order.
    */
  private def eagerChildren(db: GraphDb, p: PatternNode, embs: Seq[Emb] = null): Map[CodeEdge, Seq[Emb]] = {
    val byExt = mutable.Map.empty[CodeEdge, mutable.ArrayBuffer[Emb]]
    (if (embs == null) p.embeddings.toSeq else embs).foreach { emb =>
      RightMost.foreachExtension(db.graphs(emb.graphIdx), p.rmPath, p.nVerts, emb.vmap, emb.eids) { (ce, w, e) =>
        byExt.getOrElseUpdate(ce, mutable.ArrayBuffer.empty) +=
          Emb(emb.graphIdx, if (w >= 0) emb.vmap :+ w else emb.vmap, emb.eids :+ e)
      }
    }
    byExt.toMap.map { case (ce, embs) => ce -> embs.toSeq }
  }

  /** Depth-first pre-order walk, calling `f(parent, child)`: a reference
    * for the order of `Enumerator.walk`, written without it.
    */
  private def walk(en: Enumerator)(f: (PatternNode, PatternNode) => Unit): Seq[String] = {
    val keys = mutable.ArrayBuffer.empty[String]
    def go(p: PatternNode): Unit = {
      keys += p.key
      if (p.numEdges < en.eMax) en.children(p).foreach { c => f(p, c); go(c) }
    }
    en.roots.foreach(go)
    keys.toSeq
  }

  test("walk tests every sibling with keep before descending, and skips the subtrees keep rejects") {
    // A filter that rejects about a third of the children, by key.
    val keep: (PatternNode, PatternNode) => Boolean = (_, c) => Math.floorMod(c.key.hashCode, 3) != 0
    var rejected = 0
    TestGraphs.randomDbs(14).foreach { db =>
      // Reference: visit, test all children, then descend into those kept.
      val expected = mutable.ArrayBuffer.empty[String]
      val ref = new Enumerator(db, 4)
      def go(p: PatternNode): Unit = {
        expected += s"visit ${p.key}"
        if (p.numEdges < ref.eMax) ref.children(p).filter { c =>
          expected += s"keep ${p.key} ${c.key}"
          val kept = keep(p, c)
          if (!kept) rejected += 1
          kept
        }.foreach(go)
      }
      ref.roots.foreach(go)
      val got = mutable.ArrayBuffer.empty[String]
      new Enumerator(db, 4).walk(n => got += s"visit ${n.key}",
        Some((p, c) => { got += s"keep ${p.key} ${c.key}"; keep(p, c) }))
      assert(got == expected)
      // A filter that keeps everything walks what no filter walks.
      val all = mutable.ArrayBuffer.empty[String]
      new Enumerator(db, 4).walk(n => all += n.key, Some((_, _) => true))
      assert(all.toSeq == enumerate(db, 4).map(_.key))
    }
    assert(rejected > 0)
  }

  test("the enumerator rejects eMax < 1, so ALL_g does too") {
    Seq(0, -1).foreach { eMax =>
      val e = intercept[IllegalArgumentException](new Enumerator(SampleDb.db, eMax))
      assert(e.getMessage.contains(s"eMax must be at least 1, got $eMax"), s"eMax $eMax")
    }
    val e = intercept[IllegalArgumentException](Baselines.allG(SampleDb.db, 3, eMax = 0))
    assert(e.getMessage.contains("eMax must be at least 1, got 0"))
  }

  test("the enumerator rejects minSupport < 1") {
    Seq(0, -1).foreach { s =>
      val e = intercept[IllegalArgumentException](new Enumerator(SampleDb.db, 3, s))
      assert(e.getMessage.contains(s"minSupport must be at least 1, got $s"), s"minSupport $s")
    }
  }

  test("roots are the distinct labeled edges") {
    val db = SampleDb.db
    val roots = new Enumerator(db, 1).roots
    // Sample DB edge types: C-C, C-O, N-C, S-O.
    assert(roots.length == 4)
    assert(roots.forall(_.numEdges == 1))
  }

  test("root embeddings include both orientations for symmetric labels") {
    val t = LabeledGraph(0, Seq(0, 0), Seq((0, 1, 0)))
    val roots = new Enumerator(new GraphDb(IndexedSeq(t)), 1).roots
    assert(roots.length == 1)
    assert(roots.head.embeddings.length == 2)
  }

  test("enumeration matches brute force on a triangle with pendant") {
    val g = LabeledGraph(0, Seq(0, 0, 0, 1), Seq((0, 1, 0), (1, 2, 0), (2, 0, 0), (0, 3, 0)))
    val db = new GraphDb(IndexedSeq(g))
    val expected = TestGraphs.bruteForceSubgraphs(g, 4)
    val got = enumerate(db, 4).map(_.key)
    assert(got.toSet == expected.keySet)
    assert(got.distinct.length == got.length, "duplicate canonical codes enumerated")
  }

  test("enumeration matches brute force on random graphs") {
    val rng = new Random(97)
    (1 to 8).foreach { i =>
      val g = TestGraphs.randomConnected(rng, 6, 2, 2, 2, id = i)
      val db = new GraphDb(IndexedSeq(g))
      val expected = TestGraphs.bruteForceSubgraphs(g, 3).keySet
      val got = enumerate(db, 3).map(_.key)
      assert(got.toSet == expected, s"iteration $i on $g")
      assert(got.distinct.length == got.length, s"duplicates at iteration $i")
    }
  }

  test("enumeration over a database unions per-graph pattern sets") {
    val db = SampleDb.db
    val expected = db.graphs
      .flatMap(g => TestGraphs.bruteForceSubgraphs(g, 2).keySet)
      .toSet
    val got = enumerate(db, 2).map(_.key).toSet
    assert(got == expected)
  }

  test("cover sets agree with the independent SubIso path") {
    val db = SampleDb.db
    enumerate(db, 3).foreach { node =>
      val viaIso = TestGraphs.coverViaSubIso(DfsCode.toGraph(node.code), db)
      assert(node.coverGlobal(db).toSet == viaIso, s"pattern ${node.key}")
    }
  }

  test("support counts distinct containing graphs") {
    val db = SampleDb.db
    val bySupport = enumerate(db, 1).map(n => n.key -> n.support).toMap
    // C-C edges appear in G1 (ring), G2 (chain) and G3 (tail) — not G4.
    val ccKey = enumerate(db, 1).find(n =>
      DfsCode.toGraph(n.code).vertexLabels.toSeq == Seq(SampleDb.C, SampleDb.C)).get.key
    assert(bySupport(ccKey) == 3)
  }

  test("minSupport prunes infrequent patterns and their descendants") {
    // (db, eMax, minSupport): the sample DB, and generated molecules at
    // a quarter of the database.
    val cases = Seq(
      (SampleDb.db, 3, 2),
      (MoleculeGen.db(MoleculeGen.aidsLike(24)), 2, 6),
    )
    cases.foreach { case (db, eMax, minSup) =>
      val all = enumerate(db, eMax)
      val frequent = enumerate(db, eMax, minSupport = minSup)
      assert(frequent.map(_.key).toSet.subsetOf(all.map(_.key).toSet))
      assert(frequent.forall(_.support >= minSup))
      // Anti-monotonicity: every frequent pattern of the full run is kept.
      val expectedFrequent = all.filter(_.support >= minSup).map(_.key).toSet
      assert(expectedFrequent.nonEmpty && expectedFrequent.size < all.size)
      assert(frequent.map(_.key).toSet == expectedFrequent)
    }
  }

  test("eMax bounds pattern size") {
    val db = SampleDb.db
    assert(enumerate(db, 2).forall(_.numEdges <= 2))
  }

  test("pattern graphs are connected") {
    assert(enumerate(SampleDb.db, 3).forall(n => TestGraphs.isConnected(DfsCode.toGraph(n.code))))
  }

  test("every enumerated code is canonical") {
    enumerate(SampleDb.db, 3).foreach { n =>
      assert(repro.graph.CanonicalCode.isMin(n.code), s"non-minimal ${n.key}")
    }
  }

  test("embeddings are valid") {
    val db = SampleDb.db
    enumerate(db, 3).foreach { n =>
      val pg = DfsCode.toGraph(n.code)
      n.embeddings.foreach { emb =>
        val g = db.graphs(emb.graphIdx)
        assert(emb.vmap.distinct.length == emb.vmap.length)
        (0 until n.numEdges).foreach { e =>
          val te = g.edgeBetween(emb.vmap(pg.src(e)), emb.vmap(pg.dst(e)))
          assert(te == emb.eids(e))
        }
      }
    }
  }

  test("graphIds are sorted and distinct") {
    enumerate(SampleDb.db10, 2).foreach { n =>
      val ids = n.graphIds
      assert(ids.toSeq == ids.toSeq.distinct.sorted)
    }
  }

  test("coverGlobal and graphIds equal a naive Set-based reference") {
    var sharedEdges = 0
    var sharedGraphs = 0
    TestGraphs.randomDbs(43).foreach { db =>
      enumerate(db, 3).foreach { n =>
        val edgeImages = n.embeddings.toSeq.flatMap(e => e.eids.toSeq.map(db.edgeOffset(e.graphIdx) + _))
        val naiveCover = edgeImages.toSet.toSeq.sorted
        val naiveIds = n.embeddings.map(_.graphIdx).toSet.toSeq.sorted
        assert(n.coverGlobal(db).toSeq == naiveCover, s"cover of ${n.key}")
        assert(n.graphIds.toSeq == naiveIds, s"graphIds of ${n.key}")
        if (edgeImages.length > naiveCover.length) sharedEdges += 1
        if (n.embeddings.length > naiveIds.length) sharedGraphs += 1
      }
    }
    assert(sharedEdges > 0 && sharedGraphs > 0)
  }

  test("every node's embeddings equal an eager reference built from its parent") {
    var multi = 0
    TestGraphs.randomDbs(11).foreach { db =>
      val keys = walk(new Enumerator(db, 4)) { (p, c) =>
        val expected = eagerChildren(db, p)(c.code.last)
        val got = c.embeddings
        assert(got.length == expected.length, c.key)
        got.zip(expected).foreach { case (a, b) =>
          assert(a.graphIdx == b.graphIdx && a.vmap.toSeq == b.vmap.toSeq && a.eids.toSeq == b.eids.toSeq, c.key)
        }
        if (got.length > c.support) multi += 1
      }
      assert(keys == enumerate(db, 4).map(_.key))
    }
    assert(multi > 0)
  }

  test("graphIds and coverGlobal read before the embeddings are built equal those after") {
    var sharedEdges = 0
    TestGraphs.randomDbs(12).foreach { db =>
      walk(new Enumerator(db, 4)) { (_, c) =>
        val ids = c.graphIds.toSeq
        val cover = c.coverGlobal(db).toSeq
        val built = new PatternNode(c.code, c.rmPath, c.embeddings)
        assert(built.graphIds.toSeq == ids, c.key)
        assert(built.coverGlobal(db).toSeq == cover, c.key)
        if (c.embeddings.map(_.eids.length).sum > cover.length) sharedEdges += 1
      }
    }
    assert(sharedEdges > 0)
  }

  test("coverGlobal returns a fresh exact-length array that later covers leave unchanged") {
    TestGraphs.randomDbs(44).foreach { db =>
      val nodes = enumerate(db, 4)
      // Each cover with a copy taken right after its call.
      val covers = nodes.map { n => val c = n.coverGlobal(db); (c, c.toVector) }
      val distinct = java.util.Collections.newSetFromMap(new java.util.IdentityHashMap[Array[Int], java.lang.Boolean])
      nodes.zip(covers).foreach { case (n, (c, atCall)) =>
        assert(c.toVector == atCall, n.key)
        assert(c.length == n.embeddings.iterator.flatMap(e => e.eids.map(db.edgeOffset(e.graphIdx) + _)).toSet.size, n.key)
        assert(n.coverGlobal(db) eq c, n.key)
        distinct.add(c)
      }
      assert(distinct.size == nodes.length)
    }
    // On a fresh thread, whose workspace buffer starts small: the cover of
    // the 0-1 edge of a star with s leaves (s edges after graph 0's one
    // edge, one embedding each), then another cover on the same thread. As
    // s grows, some s meets the buffer's exact length.
    val errors = new java.util.concurrent.ConcurrentLinkedQueue[Throwable]
    val worker = new Thread(() =>
      try {
        (1 to 300).foreach { s =>
          val star = LabeledGraph(1, 0 +: Seq.fill(s)(1), (1 to s).map(v => (0, v, 0)))
          val db = TestGraphs.db(LabeledGraph(0, Seq(2, 2), Seq((0, 1, 0))), star)
          val roots = new Enumerator(db, 1).roots
          assert(roots.length == 2)
          val cover = roots(0).coverGlobal(db)
          roots(1).coverGlobal(db)
          assert(cover.toSeq == (1 to s), s"star of $s edges")
        }
      } catch { case e: Throwable => errors.add(e) })
    worker.start()
    worker.join()
    assert(errors.isEmpty, errors.toString)
  }

  test("covers built on 4 threads at once equal the sequential ones") {
    val db = MoleculeGen.db(MoleculeGen.aidsLike(60))
    val expected = enumerate(db, 4).map(_.coverGlobal(db).toVector)
    val nodes = enumerate(db, 4) // fresh nodes, no cover built yet
    val got = new Array[Array[Int]](nodes.length)
    val errors = new java.util.concurrent.ConcurrentLinkedQueue[Throwable]
    val start = new java.util.concurrent.CountDownLatch(1)
    val threads = (0 until 4).map { t =>
      new Thread(() =>
        try {
          start.await()
          var i = t
          while (i < nodes.length) { got(i) = nodes(i).coverGlobal(db); i += 4 }
        } catch { case e: Throwable => errors.add(e) })
    }
    threads.foreach(_.start())
    start.countDown()
    threads.foreach(_.join())
    assert(errors.isEmpty, errors.toString)
    assert(nodes.length > 1000)
    nodes.indices.foreach(i => assert(got(i).toVector == expected(i), nodes(i).key))
  }

  test("roots are built once per enumerator") {
    val en = new Enumerator(SampleDb.db, 3)
    assert(en.roots eq en.roots)
  }

  /** Keys, graph ids, covers and then embeddings of two children lists
    * agree, in order.
    */
  private def assertSameChildren(db: GraphDb, a: Seq[PatternNode], b: Seq[PatternNode]): Unit = {
    assert(a.map(_.key) == b.map(_.key))
    a.zip(b).foreach { case (x, y) =>
      assert(x.graphIds.toSeq == y.graphIds.toSeq, x.key)
      assert(x.coverGlobal(db).toSeq == y.coverGlobal(db).toSeq, x.key)
      assert(x.embeddings.length == y.embeddings.length, x.key)
      x.embeddings.zip(y.embeddings).foreach { case (e, f) =>
        assert(e.graphIdx == f.graphIdx && e.vmap.toSeq == f.vmap.toSeq && e.eids.toSeq == f.eids.toSeq, x.key)
      }
    }
  }

  /** A database whose edge pass, largest root expansions and the
    * embedding builds of their children each run in two or more ranges.
    */
  private lazy val splitDb = MoleculeGen.db(MoleculeGen.aidsLike(1600))

  /** The roots built eagerly, edge by edge, from each endpoint whose label
    * is at most the other's: tuple -> embeddings, in order.
    */
  private def eagerRoots(db: GraphDb): Map[CodeEdge, Seq[Emb]] = {
    val byTuple = mutable.Map.empty[CodeEdge, mutable.ArrayBuffer[Emb]]
    db.graphs.indices.foreach { gi =>
      val g = db.graphs(gi)
      (0 until g.numEdges).foreach { e =>
        Seq((g.src(e), g.dst(e)), (g.dst(e), g.src(e))).foreach { case (u, v) =>
          if (g.vertexLabel(u) <= g.vertexLabel(v))
            byTuple.getOrElseUpdate(CodeEdge(0, 1, g.vertexLabel(u), g.edgeLabel(e), g.vertexLabel(v)),
              mutable.ArrayBuffer.empty) += Emb(gi, Array(u, v), Array(e))
        }
      }
    }
    byTuple.toMap.map { case (ce, embs) => ce -> embs.toSeq }
  }

  /** `got` holds the tuples of `ref` that `keep` accepts, appended to
    * `prefix`, in `CodeEdge` order; each with the graph ids, cover and then
    * embeddings of its reference embeddings, in order.
    */
  private def assertMatches(db: GraphDb, prefix: Vector[CodeEdge], got: Seq[PatternNode],
                            ref: Map[CodeEdge, Seq[Emb]], keep: CodeEdge => Boolean): Unit = {
    assert(got.map(_.key) == ref.keys.filter(keep).toSeq.sorted.map(ce => DfsCode.key(prefix :+ ce)))
    got.foreach { n =>
      val embs = ref(n.code.last)
      assert(n.graphIds.toSeq == embs.map(_.graphIdx).distinct, n.key)
      assert(n.coverGlobal(db).toSeq == embs.flatMap(e => e.eids.map(db.edgeOffset(e.graphIdx) + _)).distinct.sorted, n.key)
      assert(n.embeddings.length == embs.length, n.key)
      n.embeddings.zip(embs).foreach { case (a, b) =>
        assert(a.graphIdx == b.graphIdx && a.vmap.toSeq == b.vmap.toSeq && a.eids.toSeq == b.eids.toSeq, n.key)
      }
    }
  }

  test("Ranges cuts [0, n) into contiguous ranges by its rule, runs each once and rethrows a range's exception") {
    assert(Ranges.max == Ranges.maxRanges(ForkJoinPool.getCommonPoolParallelism, Runtime.getRuntime.availableProcessors))
    // A scan item weighs a sixteenth of an extension item.
    assert(Ranges.MinWork / Ranges.Extend == 512 && Ranges.MinWork / Ranges.Scan == 8192)
    Seq(Ranges.Extend, Ranges.Scan).foreach { cost =>
      val perRange = Ranges.MinWork / cost
      assert(Seq(0, 1, 2 * perRange - 1).forall(Ranges.count(_, cost) == 1), s"cost $cost")
      assert(Ranges.count(2 * perRange, cost) == math.min(2, Ranges.max), s"cost $cost")
      assert(Ranges.count(Int.MaxValue, cost) == Ranges.max, s"cost $cost")
      Seq(0, 1, 2 * perRange, 3 * perRange * Ranges.max + 7).foreach { n =>
        val seen = new ConcurrentLinkedQueue[(Int, Int, Int)]
        val count = Ranges.run[Unit](n, cost, (), (_, r, from, until) => { seen.add((r, from, until)); () })
        val ranges = seen.asScala.toSeq.sortBy(_._1)
        assert(count == Ranges.count(n, cost), s"n $n, cost $cost")
        assert(ranges.map(_._1) == (0 until count), s"n $n, cost $cost")
        assert(ranges.head._2 == 0 && ranges.last._3 == n, s"n $n, cost $cost")
        ranges.zip(ranges.tail).foreach { case (a, b) => assert(a._3 == b._2, s"n $n, cost $cost") }
        assert(ranges.forall { case (r, from, _) => from == Ranges.start(n, count, r) }, s"n $n, cost $cost")
        if (count > 1) assert(ranges.forall { case (_, from, until) => until - from >= perRange }, s"n $n, cost $cost")
      }
    }
    (0 until Ranges.count(Ranges.MinWork, 2)).foreach { bad =>
      val e = intercept[IllegalStateException] {
        Ranges.run[Unit](Ranges.MinWork, 2, (), (_, r, _, _) => if (r == bad) throw new IllegalStateException(s"range $r"))
      }
      assert(e.getMessage == s"range $bad")
    }
  }

  test("Ranges.maxRanges is the pool's workers plus the caller, at most the processors, at least one") {
    Seq((1, 1, 1), (0, 1, 1), (1, 2, 2), (3, 4, 4), (3, 8, 4), (7, 4, 4), (15, 16, 16), (0, 4, 1)).foreach {
      case (parallelism, cpus, expected) =>
        assert(Ranges.maxRanges(parallelism, cpus) == expected, s"parallelism $parallelism, $cpus cpus")
    }
  }

  test("on a database large enough to split, roots, children and embeddings equal an eager reference") {
    val db = splitDb
    val en = new Enumerator(db, 3)
    assert(Ranges.count(db.totalEdges, Ranges.Extend) >= 2)
    val roots = eagerRoots(db)
    assertMatches(db, Vector.empty, en.roots, roots, _ => true)
    var splitChildren = 0
    var splitEmbeddings = 0
    // The reference descends from its own embeddings, not the node's.
    def go(p: PatternNode, embs: Seq[Emb]): Unit = if (p.numEdges < en.eMax) {
      val ref = eagerChildren(db, p, embs)
      val kids = en.children(p)
      if (Ranges.count(embs.length, Ranges.Extend) >= 2) splitChildren += 1
      kids.foreach(c => if (Ranges.count(ref(c.code.last).length, Ranges.Extend) >= 2) splitEmbeddings += 1)
      assertMatches(db, p.code, kids, ref, ce => CanonicalCode.isMin(p.code :+ ce))
      kids.foreach(c => go(c, ref(c.code.last)))
    }
    en.roots.foreach(r => go(r, roots(r.code.last)))
    assert(splitChildren > 0 && splitEmbeddings > 0)
  }

  /** The graph ids of `embs` (ordered by graph), by a plain loop. */
  private def refIds(embs: Array[Emb]): Array[Int] = embs.iterator.map(_.graphIdx).distinct.toArray

  /** The cover of `embs`, by a plain loop over one bitset of the whole
    * database: the one-range reference, built without [[Ranges]].
    */
  private def refCover(db: GraphDb, embs: Array[Emb]): Array[Int] = {
    val bits = new java.util.BitSet(db.totalEdges)
    embs.foreach(e => e.eids.foreach(x => bits.set(db.edgeOffset(e.graphIdx) + x)))
    bits.stream.toArray
  }

  /** Does the scan of `n` embeddings run in two or more ranges? */
  private def scanSplits(n: Int): Boolean = Ranges.count(n, Ranges.Scan) >= 2

  /** The nodes of `en` whose graph ids and covers split into ranges, down
    * to two edges, in walk order.
    */
  private def splitNodes(en: Enumerator): IndexedSeq[PatternNode] =
    en.roots.filter(r => scanSplits(r.embeddings.length)).flatMap { r =>
      r +: en.children(r).filter(c => scanSplits(c.embeddings.length))
    }

  /** The roots of `en` whose extension pass runs in two or more ranges,
    * each followed by its children whose pass does, in walk order.
    */
  private def extendNodes(en: Enumerator): IndexedSeq[PatternNode] = {
    def splits(p: PatternNode): Boolean = Ranges.count(p.embeddings.length, Ranges.Extend) >= 2
    en.roots.filter(splits).flatMap(r => r +: en.children(r).filter(splits))
  }

  /** The children of `p` by key, with a hash of their graph ids, covers
    * and embeddings; with `reference`, of the reference graph ids and
    * covers of their embeddings instead.
    */
  private def digest(db: GraphDb, kids: Seq[PatternNode], reference: Boolean = false): Seq[(String, Int)] = kids.map { n =>
    val ids = if (reference) refIds(n.embeddings) else n.graphIds
    val cover = if (reference) refCover(db, n.embeddings) else n.coverGlobal(db)
    var h = 31 * java.util.Arrays.hashCode(ids) + java.util.Arrays.hashCode(cover)
    n.embeddings.foreach { e =>
      h = 31 * (31 * (31 * h + e.graphIdx) + java.util.Arrays.hashCode(e.vmap)) + java.util.Arrays.hashCode(e.eids)
    }
    n.key -> h
  }

  /** Compares the graph ids and covers of every node of `en`'s walk with
    * the one-range reference: each root, each child before its embeddings
    * are built and a node made from those embeddings. Returns, per kind,
    * how many ran in two or more ranges, and under "emptied" how many of
    * those had a range left empty once its ends moved to graph starts.
    */
  private def checkScans(db: GraphDb, en: Enumerator): Map[String, Int] = {
    val splits = mutable.Map.empty[String, Int].withDefaultValue(0)
    def check(kind: String, key: String, ids: Array[Int], cover: Array[Int], embs: Array[Emb]): Unit = {
      assert(ids.toSeq == refIds(embs).toSeq, s"graph ids of $kind $key")
      assert(cover.toSeq == refCover(db, embs).toSeq, s"cover of $kind $key")
      val n = embs.length
      val count = Ranges.count(n, Ranges.Scan)
      if (count >= 2) {
        splits(kind) += 1
        def snap(k: Int): Int = {
          var a = k
          while (a > 0 && a < n && embs(a).graphIdx == embs(a - 1).graphIdx) a += 1
          a
        }
        val ends = (0 to count).map(r => snap(Ranges.start(n, count, r)))
        if (ends.zip(ends.tail).exists { case (a, b) => a == b }) splits("emptied") += 1
      }
    }
    en.roots.foreach(r => check("root", r.key, r.graphIds, r.coverGlobal(db), r.embeddings))
    walk(en) { (_, c) =>
      val ids = c.graphIds
      val cover = c.coverGlobal(db)
      check("child", c.key, ids, cover, c.embeddings)
      val built = new PatternNode(c.code, c.rmPath, c.embeddings)
      check("built", c.key, built.graphIds, built.coverGlobal(db), c.embeddings)
    }
    splits.toMap
  }

  test("on a database large enough to split, graph ids and covers equal a one-range reference") {
    val splits = checkScans(splitDb, new Enumerator(splitDb, 3))
    Seq("root", "child", "built").foreach(kind => assert(splits.getOrElse(kind, 0) > 0, s"no $kind split: $splits"))
  }

  /** Three small graphs, a 50 x 50 grid of 4,900 edges and three more
    * small graphs, every label 0: the grid's embeddings of a pattern fill
    * several ranges.
    */
  private lazy val gridDb = {
    val side = 50
    val grid = LabeledGraph(3, Seq.fill(side * side)(0),
      for {
        r <- 0 until side; c <- 0 until side; (dr, dc) <- Seq((0, 1), (1, 0))
        if r + dr < side && c + dc < side
      } yield (r * side + c, (r + dr) * side + c + dc, 0))
    // A 4-cycle with a pendant edge.
    def small(id: Int) = LabeledGraph(id, Seq.fill(5)(0), Seq((0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0), (0, 4, 0)))
    new GraphDb((0 until 3).map(small) ++ Seq(grid) ++ (4 until 7).map(small))
  }

  test("graph ids and covers equal the reference when one graph's embeddings fill several ranges and leave some empty") {
    val splits = checkScans(gridDb, new Enumerator(gridDb, 3))
    Seq("child", "built", "emptied").foreach(kind => assert(splits.getOrElse(kind, 0) > 0, s"no $kind split: $splits"))
  }

  /** Runs `body(t)` on threads t = 0 to 3, started at once, and fails
    * with what they threw.
    */
  private def onFourThreads(body: Int => Unit): Unit = {
    val errors = new ConcurrentLinkedQueue[Throwable]
    val start = new CountDownLatch(1)
    val threads = (0 until 4).map { t =>
      new Thread(() => try { start.await(); body(t) } catch { case e: Throwable => errors.add(e) })
    }
    threads.foreach(_.start())
    start.countDown()
    threads.foreach(_.join())
    assert(errors.isEmpty, errors.toString)
  }

  test("four enumerators expanding one large database at once give the sequential children") {
    val db = splitDb
    // The reference digests, and the split nodes' reference graph ids and
    // covers.
    val (expected, expectedNodes, splitKids) = {
      val en = new Enumerator(db, 3)
      val nodes = splitNodes(en)
      val kids = nodes.map(en.children)
      (kids.map(digest(db, _, reference = true)), nodes.map(p => digest(db, Seq(p), reference = true)),
        kids.flatten.count(c => scanSplits(c.embeddings.length)))
    }
    assert(expected.length >= 2 && splitKids > 0)
    // Each thread expands every split node 8 times, from its own offset,
    // so that the threads expand different nodes at once.
    onFourThreads { t =>
      val en = new Enumerator(db, 3)
      val nodes = splitNodes(en)
      nodes.indices.foreach(a => assert(digest(db, Seq(nodes(a))) == expectedNodes(a), s"thread $t, node ${nodes(a).key}"))
      (0 until 8 * nodes.length).foreach { i =>
        val a = (t * nodes.length / 4 + i) % nodes.length
        assert(digest(db, en.children(nodes(a))) == expected(a), s"thread $t, node ${nodes(a).key}")
      }
    }
    // One enumerator shared by the four threads, each expanding its own
    // quarter of the nodes whose extension pass splits, 8 times over:
    // distinct nodes at once.
    val shared = {
      val en = new Enumerator(db, 3)
      extendNodes(en).map(p => digest(db, en.children(p)))
    }
    val en = new Enumerator(db, 3)
    val nodes = extendNodes(en)
    assert(nodes.length == shared.length && nodes.length >= 8, nodes.length)
    onFourThreads { t =>
      (0 until 8).foreach { _ =>
        (t until nodes.length by 4).foreach { a =>
          assert(digest(db, en.children(nodes(a))) == shared(a), s"shared, thread $t, node ${nodes(a).key}")
        }
      }
    }
  }

  /** The hash of table `t`'s groups: each one's tuple and records. */
  private def tableHash(t: ExtensionTable): Int =
    (0 until t.numGroups).map(g => (t.codeEdge(g), java.util.Arrays.hashCode(t.records(g)))).hashCode

  /** Wraps range loops of calls that this thread makes on `db`, so that
    * their ranges run one at a time, pool workers taking some, and each
    * range is checked to touch only this thread's workspace at its own
    * slot `r`. Around range r, every other slot's bitset is all ones (wide
    * enough for any graph, so a range that marks in it goes wrong) and
    * slot r's is a clean one; after it, the other slots' tables must be as
    * they were, their bitsets all ones, and slot r's bitset the clean one,
    * all zero again. On a pool worker, the worker's own workspace is given
    * all-ones bitsets too, and must be left as it was: tables, buffer and
    * bitsets.
    */
  private final class OwnedRanges(db: GraphDb) {
    private val caller = Thread.currentThread
    private val w = Workspace.get
    private val words = (db.graphs.map(_.numEdges).max + 63) / 64
    private val clean = new Array[Long](words)
    private val lock = new Object

    /** The ranges run on pool workers so far. */
    var onWorker = 0

    private def poison(marks: Array[Array[Long]], except: Int): Unit =
      marks.indices.foreach(x => if (x != except) marks(x) = Array.fill(words)(-1L))

    def apply(loop: Ranges.Loop[Workspace]): Ranges.Loop[Workspace] = (ws, r, from, until) => {
      lock.synchronized {
        assert(ws eq w, s"range $r was handed another thread's workspace")
        val others = ws.tables.indices.filter(_ != r)
        val tables = others.map(x => tableHash(ws.tables(x)))
        val marks = ws.marks.clone
        poison(ws.marks, r)
        ws.marks(r) = clean
        val worker = Thread.currentThread ne caller
        val own = if (worker) Workspace.get else null
        val ownMarks = if (worker) own.marks.clone else null
        val ownState = if (worker) { poison(own.marks, -1); (own.tables.map(tableHash).toSeq, own.buf.clone) } else null
        try {
          loop(ws, r, from, until)
          assert(others.map(x => tableHash(ws.tables(x))) == tables, s"range $r changed another range's table")
          assert(others.forall(x => ws.marks(x).forall(_ == -1L)), s"range $r marked in another range's bitset")
          assert((ws.marks(r) eq clean) && clean.forall(_ == 0L), s"range $r left its bitset")
          if (worker) {
            val name = Thread.currentThread.getName
            assert(own.tables.map(tableHash).toSeq == ownState._1, s"range $r wrote to $name's tables")
            assert(java.util.Arrays.equals(own.buf, ownState._2), s"range $r wrote to $name's buffer")
            assert(own.marks.forall(_.forall(_ == -1L)), s"range $r marked in $name's bitset")
            onWorker += 1
          }
        } finally {
          System.arraycopy(marks, 0, ws.marks, 0, marks.length)
          if (worker) System.arraycopy(ownMarks, 0, own.marks, 0, ownMarks.length)
        }
      }
      // The caller waits, so that the pool's workers claim ranges.
      if (Thread.currentThread eq caller) Thread.sleep(5)
    }
  }

  test("a split fill hands each range one of the calling thread's tables, also on a pool worker") {
    val db = splitDb
    val root = new Enumerator(db, 3).roots.maxBy(_.embeddings.length)
    val (n, nv, ne) = (root.graphs.length, root.nVerts, root.numEdges)
    assert(Ranges.count(n, Ranges.Extend) >= 2)
    // The groups of a table, in order, each with its tuple and records.
    def groups(t: ExtensionTable): Seq[(CodeEdge, Int, Int)] =
      t.sortedGroups().take(t.numGroups).toSeq.map(g => (t.codeEdge(g), t.records(g).length, java.util.Arrays.hashCode(t.records(g))))
    // The one-range reference, by a plain loop into a table of its own.
    val ref = new ExtensionTable
    (0 until n).foreach { k =>
      ref.source = k
      RightMost.extend(db.graphs(root.graphs(k)), root.rmPath, nv, root.vmaps, k * nv, root.eids, k * ne, ne, ref)
    }
    val owned = new OwnedRanges(db)
    (1 to 5).foreach(_ => assert(groups(Workspace.get.extend(root, db, n, owned(PatternNode.extendRange))) == groups(ref)))
    assert(owned.onWorker > 0, "no range ran on a pool worker")
  }

  test("split graph ids and covers use only the calling thread's workspace, at each range's own slot") {
    val db = splitDb
    // The reference: the largest root and a child whose scans split, by
    // index, from another enumerator.
    val ref = new Enumerator(db, 3)
    val a = ref.roots.indices.maxBy(ref.roots(_).embeddings.length)
    val refKids = ref.children(ref.roots(a))
    val b = refKids.indexWhere(c => scanSplits(c.embeddings.length))
    assert(scanSplits(ref.roots(a).embeddings.length) && b >= 0)
    val en = new Enumerator(db, 3)
    val root = en.roots(a)
    val child = en.children(root)(b) // not built: its scans read the records
    val w = Workspace.get
    val owned = new OwnedRanges(db)
    (1 to 5).foreach { _ =>
      Seq((root, ref.roots(a)), (child, refKids(b))).foreach { case (node, r) =>
        val n = r.embeddings.length
        assert(w.scan(node, null, n, n, owned(PatternNode.graphIdsRange)).toSeq == refIds(r.embeddings).toSeq, node.key)
        assert(w.scan(node, db, n, db.totalEdges, owned(PatternNode.coverRange)).toSeq == refCover(db, r.embeddings).toSeq, node.key)
      }
    }
    assert(owned.onWorker > 0, "no range ran on a pool worker")
  }

  test("RightMost.extend at a row offset gives the array form's extensions of the copied row, in order") {
    var rows = 0
    TestGraphs.randomDbs(31).foreach { db =>
      enumerate(db, 3).foreach { n =>
        n.build()
        val (nv, ne) = (n.nVerts, n.numEdges)
        n.graphs.indices.foreach { k =>
          def extensions(f: RightMost.Sink => Unit): Seq[Seq[Int]] = {
            val out = mutable.ArrayBuffer.empty[Seq[Int]]
            f((i, j, li, le, lj, w, e) => out += Seq(i, j, li, le, lj, w, e))
            out.toSeq
          }
          val g = db.graphs(n.graphs(k))
          val atOffset = extensions(RightMost.extend(g, n.rmPath, nv, n.vmaps, k * nv, n.eids, k * ne, ne, _))
          val copied = extensions(RightMost.extend(g, n.rmPath, nv, n.vmaps.slice(k * nv, (k + 1) * nv),
            n.eids.slice(k * ne, (k + 1) * ne), _))
          assert(atOffset == copied, s"${n.key} row $k")
          if (k > 0 && atOffset.nonEmpty) rows += 1
        }
      }
    }
    assert(rows > 0)
  }

  test("the embeddings view is built once, and its rows equal the node's flat rows") {
    TestGraphs.randomDbs(32).foreach { db =>
      val en = new Enumerator(db, 4)
      def check(n: PatternNode): Unit = {
        val view = n.embeddings
        assert(n.embeddings eq view, n.key)
        val (nv, ne) = (n.nVerts, n.numEdges)
        assert(view.length == n.graphs.length && n.vmaps.length == nv * view.length && n.eids.length == ne * view.length, n.key)
        view.indices.foreach { k =>
          val e = view(k)
          assert(e.graphIdx == n.graphs(k) && e.vmap.toSeq == n.vmaps.slice(k * nv, (k + 1) * nv).toSeq &&
            e.eids.toSeq == n.eids.slice(k * ne, (k + 1) * ne).toSeq, s"${n.key} row $k")
        }
      }
      en.roots.foreach(check)
      walk(en)((_, c) => check(c))
    }
  }

  test("the workspace holds no node or database once an extension pass or a scan throws") {
    val db = SampleDb.db
    val en = new Enumerator(db, 3)
    val roots = en.roots
    val w = Workspace.get
    roots(0).vmaps = new Array[Int](0) // the extension pass reads past its end
    intercept[ArrayIndexOutOfBoundsException](en.children(roots(0)))
    assert(w.node == null && w.db == null)
    roots(1).eids = new Array[Int](0) // the cover scan reads past its end
    intercept[ArrayIndexOutOfBoundsException](roots(1).coverGlobal(db))
    assert(w.node == null && w.db == null)
  }

  test("roots and children on a large node finish while every common-pool worker is blocked") {
    val db = splitDb
    val en = new Enumerator(db, 3)
    val root = en.roots.maxBy(_.embeddings.length)
    assert(scanSplits(root.embeddings.length))
    val expected = en.children(root)
    assert(expected.exists(c => scanSplits(c.embeddings.length)))
    val workers = ForkJoinPool.getCommonPoolParallelism
    val blocked = new CountDownLatch(workers)
    val release = new CountDownLatch(1)
    (1 to workers).foreach { _ =>
      ForkJoinPool.commonPool.execute(() => { blocked.countDown(); release.await() })
    }
    try {
      assert(blocked.await(30, TimeUnit.SECONDS), "the pool's workers did not all start")
      val call = new FutureTask(() => {
        val fresh = new Enumerator(db, 3)
        val r = fresh.roots.maxBy(_.embeddings.length)
        (r.graphIds, r.coverGlobal(db), fresh.children(r))
      })
      new Thread(call).start()
      val (ids, cover, kids) = call.get(60, TimeUnit.SECONDS)
      assert(ids.toSeq == refIds(root.embeddings).toSeq)
      assert(cover.toSeq == refCover(db, root.embeddings).toSeq)
      assertSameChildren(db, kids, expected)
      assert(digest(db, kids) == digest(db, expected, reference = true))
    } finally release.countDown()
  }

  test("children hands IPS's expansions to the next call once, then recomputes") {
    val cfg = TedConfig(k = 3, eMax = 4)
    var handed = 0
    (SampleDb.db +: TestGraphs.randomDbs(21)).foreach { db =>
      val en = new Enumerator(db, cfg.eMax)
      val climbed = Ips.initialPatterns(en, db, cfg)
      val fresh = new Enumerator(db, cfg.eMax)
      val reached = java.util.Collections.newSetFromMap(new java.util.IdentityHashMap[PatternNode, java.lang.Boolean])
      def go(a: PatternNode, b: PatternNode): Unit = if (a.numEdges < cfg.eMax) {
        val kids = en.children(a)
        val ref = fresh.children(b)
        assertSameChildren(db, kids, ref)
        kids.foreach(reached.add)
        val again = en.children(a)
        if (kids.nonEmpty) assert(!(again eq kids), a.key)
        assertSameChildren(db, again, kids)
        kids.zip(ref).foreach { case (x, y) => go(x, y) }
      }
      en.roots.zip(fresh.roots).foreach { case (a, b) => go(a, b) }
      // IPS's climbed nodes are reached as the very objects IPS built.
      climbed.filter(_.numEdges > 1).foreach { c => assert(reached.contains(c), c.key); handed += 1 }
    }
    assert(handed > 0)
  }

  test("a handed-off children call still checks the deadline") {
    val db = SampleDb.db
    val cfg = TedConfig(k = 3, eMax = 3)
    val en = new Enumerator(db, cfg.eMax, 1, timeoutMillis = 1000)
    val deadline = System.nanoTime() + 1000000000L // no earlier than en's
    Ips.initialPatterns(en, db, cfg)
    while (System.nanoTime() <= deadline) Thread.sleep(20)
    intercept[TedTimeout](en.children(en.roots.head))
  }

  test("extension grouping keeps labels over the full Int range") {
    // A star of 40 leaves under extreme labels: 40 root tuples and 39
    // children per root pass the grouping table's initial capacity.
    val rng = new Random(3)
    val labels = Seq(Int.MinValue, Int.MaxValue, -1, 0, 1) ++ Seq.fill(36)(rng.nextInt())
    val star = LabeledGraph(0, labels, (1 to 40).map(v => (0, v, if (v % 2 == 0) Int.MinValue else Int.MaxValue)))
    val got = enumerate(new GraphDb(IndexedSeq(star)), 2).map(_.key)
    assert(got.toSet == TestGraphs.bruteForceSubgraphs(star, 2).keySet)
    assert(got.distinct.length == got.length)
  }

  test("a pattern node requires its embeddings in graph order") {
    val t = LabeledGraph(0, Seq(0, 0), Seq((0, 1, 0)))
    val root = new Enumerator(new GraphDb(IndexedSeq(t, t)), 1).roots.head
    val e = intercept[IllegalArgumentException] {
      new PatternNode(root.code, root.rmPath, root.embeddings.reverse)
    }
    assert(e.getMessage.contains("embeddings must be ordered by graphIdx"))
  }

  test("deadline aborts with TedTimeout") {
    val rng = new Random(5)
    val graphs = (1 to 12).map(i => TestGraphs.randomConnected(rng, 14, 6, 2, 1, id = i))
    val db = new GraphDb(graphs)
    val en = new Enumerator(db, 10, 1, timeoutMillis = 10)
    intercept[TedTimeout] {
      en.walk(_ => ())
    }
  }

  test("a timeout beyond the nanosecond range saturates to no deadline") {
    Seq(Long.MaxValue, Long.MaxValue / 1000, Long.MaxValue / 1000000L).foreach { ms =>
      assert(TestGraphs.nodes(new Enumerator(SampleDb.db, 3, 1, ms)).nonEmpty, s"timeout $ms ms")
    }
  }

  test("1-labeled path counts: path graph P4 has expected pattern counts") {
    // Unlabeled P4 (4 vertices, 3 edges): connected subgraphs = paths of
    // length 1..3: 3 + 2 + 1 = 6 subgraph occurrences, but as patterns
    // (canonical forms) they collapse to P2, P3, P4.
    val g = LabeledGraph(0, Seq(0, 0, 0, 0), Seq((0, 1, 0), (1, 2, 0), (2, 3, 0)))
    val patterns = enumerate(new GraphDb(IndexedSeq(g)), 3)
    assert(patterns.length == 3)
  }
}
