package repro.graph

/** One edge of a gSpan DFS code: pattern-vertex indices `i -> j` with the
  * vertex labels `li`/`lj` and edge label `le`. Forward edges have `i < j`
  * (they introduce vertex `j`); backward edges have `i > j`.
  */
final case class CodeEdge(i: Int, j: Int, li: Int, le: Int, lj: Int) {
  def isForward: Boolean = i < j
  override def toString: String = s"($i,$j,$li,$le,$lj)"
}

object CodeEdge {
  /** gSpan's extension-tuple order (Yan & Han, ICDM'02). Only ever applied
    * to candidate extensions of the same partial code, where it is total:
    *  - backward vs backward: by (i asc, j asc), then labels;
    *  - forward vs forward: by (j asc, i desc), then labels — an extension
    *    from a deeper right-most-path vertex precedes one nearer the root;
    *  - backward precedes forward (`i_b < j_f` always holds there).
    */
  implicit val ordering: Ordering[CodeEdge] = new Ordering[CodeEdge] {
    def compare(a: CodeEdge, b: CodeEdge): Int =
      CodeEdge.compare(a.i, a.j, a.li, a.le, a.lj, b.i, b.j, b.li, b.le, b.lj)
  }

  /** [[ordering]] on unpacked tuples, for hot paths that compare candidate
    * extensions without allocating a `CodeEdge`.
    */
  def compare(ai: Int, aj: Int, ali: Int, ale: Int, alj: Int,
              bi: Int, bj: Int, bli: Int, ble: Int, blj: Int): Int = {
    val aFwd = ai < aj
    val bFwd = bi < bj
    val s =
      if (aFwd && bFwd) {
        if (aj != bj) aj - bj else bi - ai
      } else if (!aFwd && !bFwd) {
        if (ai != bi) ai - bi else aj - bj
      } else if (!aFwd) {
        if (ai < bj) -1 else 1
      } else {
        if (aj <= bi) -1 else 1
      }
    if (s != 0) s
    else if (ali != bli) Integer.compare(ali, bli)
    else if (ale != ble) Integer.compare(ale, ble)
    else Integer.compare(alj, blj)
  }
}

/** Utilities over DFS codes: pattern-graph reconstruction, right-most path
  * maintenance, and string (de)serialization for the Spark layer.
  */
object DfsCode {

  type Code = Vector[CodeEdge]

  /** Number of pattern vertices described by `code`. */
  def numVertices(code: Seq[CodeEdge]): Int =
    code.iterator.map(e => math.max(e.i, e.j)).max + 1

  /** Materialize the pattern graph; edge ids follow code order, so the
    * e-th embedding edge maps pattern edge e.
    */
  def toGraph(code: Seq[CodeEdge]): LabeledGraph = {
    val n = numVertices(code)
    val vlabels = new Array[Int](n)
    java.util.Arrays.fill(vlabels, Int.MinValue)
    code.foreach { e =>
      vlabels(e.i) = e.li
      vlabels(e.j) = e.lj
    }
    require(!vlabels.contains(Int.MinValue), s"code leaves a vertex unlabeled: $code")
    LabeledGraph(-1L, vlabels.toSeq, code.map(e => (e.i, e.j, e.le)))
  }

  /** Incremental right-most-path update for a forward extension from
    * vertex `e.i`: drop everything deeper than `e.i`, push `e.j`.
    */
  def extendRmPath(path: List[Int], e: CodeEdge): List[Int] = {
    require(e.isForward, s"only forward edges change the right-most path: $e")
    e.j :: path.dropWhile(_ != e.i)
  }

  def key(code: Seq[CodeEdge]): String =
    code.iterator.map(e => s"${e.i},${e.j},${e.li},${e.le},${e.lj}").mkString(";")

  def parse(key: String): Code =
    key.split(';').iterator.map { s =>
      val p = s.split(',')
      CodeEdge(p(0).toInt, p(1).toInt, p(2).toInt, p(3).toInt, p(4).toInt)
    }.toVector
}
