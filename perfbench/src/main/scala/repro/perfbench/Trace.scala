package repro.perfbench

import java.lang.management.{ManagementFactory, MemoryType}

import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Order statistics over timing samples. */
object Stats {
  /** Linear-interpolated quantile `q` in [0, 1] (numpy's default rule). */
  def quantile(xs: Iterable[Double], q: Double): Double = {
    val s = xs.toArray.sorted
    require(s.nonEmpty, "quantile of no samples")
    val pos = q * (s.length - 1)
    val lo = pos.toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }
  def median(xs: Iterable[Double]): Double = quantile(xs, 0.5)
  def mean(xs: Iterable[Double]): Double = xs.sum / xs.size
}

/** Heap and collector readings of this JVM. */
object Jvm {
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  private val heapPools =
    ManagementFactory.getMemoryPoolMXBeans.asScala.toSeq.filter(_.getType == MemoryType.HEAP)

  def gcMillis: Long = gcs.map(g => math.max(0L, g.getCollectionTime)).sum
  def gcCount: Long = gcs.map(g => math.max(0L, g.getCollectionCount)).sum

  /** Live heap bytes: what the heap pools held right after a full
    * collection (their collection usage), so allocation by other threads
    * after the collection does not count. Two passes let objects freed by
    * the first (finalizable, soft-reachable) go in the second.
    */
  def retainedBytes(): Long = {
    System.gc(); System.gc()
    heapPools.map(p => Option(p.getCollectionUsage).map(_.getUsed).getOrElse(0L)).sum
  }

  def resetPeak(): Unit = heapPools.foreach(_.resetPeakUsage())
  /** Sum of the heap pools' peaks since the last [[resetPeak]]. */
  def peakBytes: Long = heapPools.map(_.getPeakUsage.getUsed).sum

  /** Seconds from JVM start to now (millisecond clock of the runtime bean). */
  def sinceStartSecs: Double =
    (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1000.0
}

/** One recorded span: a call into a layer, timed from outside. */
final case class SpanRec(id: Int, name: String, parent: Int, rep: Int,
                         startNs: Long, endNs: Long, gcMs: Long, gcCount: Long, peakMb: Double) {
  def secs: Double = (endNs - startNs) / 1e9
}

/** In-memory span recorder. When off, `span` runs its body and records
  * nothing, so the untraced run pays one branch per call.
  */
final class Tracer(val on: Boolean) {
  private val recs = mutable.ArrayBuffer.empty[SpanRec]
  private var open: List[Int] = Nil
  private var nextId = 0
  /** Repetition (round) the next spans belong to; set by the runner. */
  var rep: Int = -1

  private var paused = false
  /** Largest heap peak seen since [[resetPeak]]: top-level spans reset the
    * pools' peaks to read their own, so the running peak is kept here.
    */
  private var maxPeakBytes = 0L

  def resetPeak(): Unit = { Jvm.resetPeak(); maxPeakBytes = 0L }
  /** Heap peak since [[resetPeak]], across the spans' own resets. */
  def peakBytes: Long = math.max(maxPeakBytes, Jvm.peakBytes)

  /** Run `body` with recording off (to measure what tracing costs). */
  def untraced[A](body: => A): A = {
    val was = paused
    paused = true
    try body finally paused = was
  }

  def span[A](name: String)(body: => A): A =
    if (!on || paused) body
    else {
      val id = nextId; nextId += 1
      val parent = open.headOption.getOrElse(-1)
      val topLevel = open.isEmpty
      if (topLevel) { maxPeakBytes = peakBytes; Jvm.resetPeak() }
      open ::= id
      val g0 = Jvm.gcMillis; val c0 = Jvm.gcCount
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        open = open.tail
        val peak = if (topLevel) { val b = Jvm.peakBytes; maxPeakBytes = math.max(maxPeakBytes, b); b / 1e6 }
                   else Double.NaN
        recs += SpanRec(id, name, parent, rep, t0, t1, Jvm.gcMillis - g0, Jvm.gcCount - c0, peak)
      }
    }

  def spans: Seq[SpanRec] = recs.toSeq

  /** Durations (s) of the spans called `name` in the timed rounds, or with
    * `timed = false` in set-up and warm-up.
    */
  def secsOf(name: String, timed: Boolean = true): Seq[Double] =
    recs.iterator.filter(r => r.name == name && (r.rep >= 0) == timed).map(_.secs).toSeq

  /** Self time of each span: its duration minus the union of its children's
    * intervals (children never overlap here: calls are sequential).
    */
  def selfSecs: Map[Int, Double] = {
    val childNs = mutable.HashMap.empty[Int, Long].withDefaultValue(0L)
    recs.foreach(r => if (r.parent >= 0) childNs(r.parent) += r.endNs - r.startNs)
    recs.iterator.map(r => r.id -> (r.endNs - r.startNs - childNs(r.id)) / 1e9).toMap
  }
}

/** Minimal JSON writer for the result line and the trace file. */
object Json {
  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    b += '"'
    b.result()
  }
  /** A finite double with all its digits; non-finite values become null. */
  def num(d: Double): String = if (d.isNaN || d.isInfinite) "null" else java.lang.Double.toString(d)
  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
  def arr(items: Seq[String]): String = items.mkString("[", ", ", "]")
}
