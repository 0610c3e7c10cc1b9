package repro.tedbench

import java.lang.management.{ManagementFactory, MemoryType}
import scala.jdk.CollectionConverters._

/** Bytes allocated during one call, split by thread. */
final case class Alloc(total: Long, caller: Long, tasks: Long) {
  def others: Long = total - caller
}

/** JVM-wide probes read around a call: allocation summed over every live
  * thread (the calling thread, Spark's task threads and the rest), GC
  * counts and time, and heap peaks.
  */
object JvmProbe {
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  threads.setThreadAllocatedMemoryEnabled(true)

  /** Name prefix Spark gives the threads that run tasks. */
  private val TaskThread = "Executor task launch worker"

  final class AllocMark private[JvmProbe] (val bytes: Map[Long, Long])

  private def perThread(): Map[Long, Long] = {
    val ids = threads.getAllThreadIds
    val bytes = threads.getThreadAllocatedBytes(ids)
    ids.indices.filter(i => bytes(i) >= 0).map(i => ids(i) -> bytes(i)).toMap
  }

  def allocMark(): AllocMark = new AllocMark(perThread())

  /** Allocation since `mark` by every thread alive now. Threads that ended
    * in between are not counted; Spark keeps its task threads pooled, so
    * they outlive a call.
    */
  def allocSince(mark: AllocMark): Alloc = {
    val now = perThread()
    val me = Thread.currentThread().getId
    var total = 0L; var caller = 0L; var tasks = 0L
    val infos = threads.getThreadInfo(now.keys.toArray).filter(_ != null)
      .map(i => i.getThreadId -> i.getThreadName).toMap
    now.foreach { case (id, b) =>
      val d = b - mark.bytes.getOrElse(id, 0L)
      total += d
      if (id == me) caller += d
      else if (infos.get(id).exists(_.startsWith(TaskThread))) tasks += d
    }
    Alloc(total, caller, tasks)
  }

  private def collectors = ManagementFactory.getGarbageCollectorMXBeans.asScala

  /** (collections, collection ms) so far, summed over collectors. */
  def gcTotals(): (Long, Long) =
    (collectors.map(_.getCollectionCount.max(0L)).sum, collectors.map(_.getCollectionTime.max(0L)).sum)

  private def heapPools =
    ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP)

  def resetHeapPeaks(): Unit = heapPools.foreach(_.resetPeakUsage())

  /** Sum of the heap pools' peaks since the last reset: an upper bound on
    * the peak heap in use, since pools may peak at different moments.
    */
  def heapPeakBytes(): Long = heapPools.map(_.getPeakUsage.getUsed).sum

  def uptimeSeconds(): Double = ManagementFactory.getRuntimeMXBean.getUptime / 1000.0

  def heapFlags: String =
    ManagementFactory.getRuntimeMXBean.getInputArguments.asScala
      .filter(a => a.startsWith("-Xm") || a.startsWith("-XX:")).mkString(" ")
}
