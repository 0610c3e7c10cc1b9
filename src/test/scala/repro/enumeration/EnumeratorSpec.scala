package repro.enumeration

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable
import scala.util.Random
import repro.TestGraphs
import repro.core.{Baselines, Ips, TedConfig}
import repro.data.{MoleculeGen, SampleDb}
import repro.graph.{CodeEdge, DfsCode, GraphDb, LabeledGraph, RightMost}

class EnumeratorSpec extends AnyFunSuite {

  private def enumerate(db: GraphDb, eMax: Int, minSupport: Int = 1): Seq[PatternNode] =
    TestGraphs.nodes(new Enumerator(db, eMax, minSupport))

  /** The children of `p` built eagerly from its embeddings with
    * `RightMost.foreachExtension`: extension -> embeddings, in order.
    */
  private def eagerChildren(db: GraphDb, p: PatternNode): Map[CodeEdge, Seq[Emb]] = {
    val byExt = mutable.Map.empty[CodeEdge, mutable.ArrayBuffer[Emb]]
    p.embeddings.foreach { emb =>
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
        val built = new PatternNode(c.code, c.rmPath, c.nVerts, c.embeddings)
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
    // On a fresh thread, whose scratch buffer starts small: the cover of
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
    intercept[IllegalArgumentException] {
      new PatternNode(root.code, root.rmPath, root.nVerts, root.embeddings.reverse)
    }
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
