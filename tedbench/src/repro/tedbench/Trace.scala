package repro.tedbench

import java.io.{BufferedWriter, FileOutputStream, OutputStreamWriter}
import java.nio.charset.StandardCharsets
import java.util.zip.GZIPOutputStream
import scala.collection.mutable

/** In-memory span recorder of the traced run.
  *
  * A span is (name, start, end, parent). Spans are kept in flat arrays, up
  * to `Cap` of them, and written out once at the end. Per-name totals
  * (count, inclusive time, self time) are accumulated exactly for every
  * span, kept or not, so a deep enumeration with millions of calls still
  * reports exact layer times.
  */
final class Trace {
  private val Cap = 1 << 20
  private val nameIds = mutable.LinkedHashMap.empty[String, Int]
  private val count = mutable.ArrayBuffer.empty[Long]
  private val inclusive = mutable.ArrayBuffer.empty[Long]
  private val self = mutable.ArrayBuffer.empty[Long]

  private var recName = new Array[Int](4096)
  private var recParent = new Array[Int](4096)
  private var recStart = new Array[Long](4096)
  private var recEnd = new Array[Long](4096)
  private var recorded = 0
  private var dropped = 0L

  private val MaxDepth = 64
  private val openName = new Array[Int](MaxDepth)
  private val openStart = new Array[Long](MaxDepth)
  private val openChild = new Array[Long](MaxDepth)
  private val openRec = new Array[Int](MaxDepth)
  private var depth = 0

  val origin: Long = System.nanoTime()

  def id(name: String): Int =
    nameIds.getOrElseUpdate(name, { count += 0L; inclusive += 0L; self += 0L; nameIds.size })

  def begin(name: Int): Unit = {
    require(depth < MaxDepth, "span nesting too deep")
    val parent = if (depth == 0) -1 else openRec(depth - 1)
    var rec = -1
    if (recorded < Cap) {
      if (recorded == recName.length) grow()
      rec = recorded
      recName(rec) = name; recParent(rec) = parent
      recorded += 1
    } else dropped += 1
    openName(depth) = name; openRec(depth) = rec; openChild(depth) = 0L
    depth += 1
    val t = System.nanoTime()
    openStart(depth - 1) = t
    if (rec >= 0) recStart(rec) = t
  }

  def end(): Unit = {
    val t = System.nanoTime()
    depth -= 1
    val name = openName(depth)
    val d = t - openStart(depth)
    count(name) += 1
    inclusive(name) += d
    self(name) += d - openChild(depth)
    if (depth > 0) openChild(depth - 1) += d
    val rec = openRec(depth)
    if (rec >= 0) recEnd(rec) = t
  }

  @inline def span[A](name: Int)(body: => A): A = {
    begin(name)
    try body finally end()
  }

  private def grow(): Unit = {
    val n = math.min(Cap, recName.length * 2)
    recName = java.util.Arrays.copyOf(recName, n)
    recParent = java.util.Arrays.copyOf(recParent, n)
    recStart = java.util.Arrays.copyOf(recStart, n)
    recEnd = java.util.Arrays.copyOf(recEnd, n)
  }

  private def idOf(name: String): Option[Int] = nameIds.get(name)

  def calls(name: String): Long = idOf(name).fold(0L)(count(_))
  def inclusiveMs(name: String): Double = idOf(name).fold(0.0)(inclusive(_) / 1e6)
  def selfMs(name: String): Double = idOf(name).fold(0.0)(self(_) / 1e6)

  /** Write every kept span as gzipped TSV (id, parent, name, start and end
    * in ns since the trace began), followed by the per-name totals as
    * comment lines.
    */
  def writeTo(path: String): Unit = {
    val file = new java.io.File(path)
    Option(file.getParentFile).foreach(_.mkdirs())
    val names = nameIds.toSeq.sortBy(_._2).map(_._1).toArray
    val out = new BufferedWriter(new OutputStreamWriter(
      new GZIPOutputStream(new FileOutputStream(file), 1 << 16), StandardCharsets.UTF_8), 1 << 16)
    try {
      out.write("id\tparent\tname\tstart_ns\tend_ns\n")
      var i = 0
      while (i < recorded) {
        out.write(s"$i\t${recParent(i)}\t${names(recName(i))}\t${recStart(i) - origin}\t${recEnd(i) - origin}\n")
        i += 1
      }
      out.write(s"# spans kept $recorded, dropped $dropped\n")
      names.indices.foreach { n =>
        out.write(f"# total ${names(n)} calls=${count(n)} inclusive_ms=${inclusive(n) / 1e6}%.3f self_ms=${self(n) / 1e6}%.3f%n")
      }
    } finally out.close()
  }
}
