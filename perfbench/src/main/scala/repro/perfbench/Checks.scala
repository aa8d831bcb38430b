package repro.perfbench

import repro.core._
import repro.data.RecordModel
import repro.kvs.{Blob, KeyValueStore, SimulatedKVS, Tally}
import repro.online.OnlinePartitioner
import repro.query.QueryProcessor

import scala.collection.mutable

/** A full offline layout, as the query path serves it. */
final case class Layout(ds: VersionedDataset, sc: SubChunking, a: Assignment, kvs: SimulatedKVS,
                        qp: QueryProcessor)

/** Delegating store that records which chunk ids were fetched. */
final class RecordingKVS(inner: KeyValueStore) extends KeyValueStore {
  val fetched: mutable.ArrayBuffer[Long] = mutable.ArrayBuffer.empty
  override def put(key: Long, value: Blob): Unit = inner.put(key, value)
  override def get(key: Long): Blob = { fetched += key; inner.get(key) }
  override def multiGet(keys: Seq[Long]): Seq[Blob] = keys.map(get)
  override def tally: Tally = inner.tally
}

/** Output checks. Each returns the problems it found; none means the
  * output holds. They compare against [[Reference]] or against a property
  * the method must have, never against a stored copy of earlier output.
  */
object Checks {
  import Workload.Capacity

  /** Membership and distinct records equal the replay (the layout checks
    * rely on the program's record ids following the reference's order).
    */
  def membership(ref: Reference, ds: VersionedDataset): Seq[String] =
    if (ds.members.length != ref.size) Seq(s"${ds.members.length} versions, reference has ${ref.size}")
    else (0 until ref.size).iterator.filterNot(v => java.util.Arrays.equals(ds.members(v), ref.members(v)))
      .take(3).map(v => s"membership of version $v differs from the replayed deltas").toSeq ++
      (if (java.util.Arrays.equals(ds.uniqueCks, ref.records)) Nil
       else Seq(s"${ds.uniqueCks.length} distinct records, the replay has ${ref.records.length}"))

  /** Layout properties, plus agreement of the benchmark's span count with `Span.total`. */
  def layout(ref: Reference, sc: SubChunking, a: Assignment): (LayoutFacts, Seq[String]) = {
    val f = LayoutFacts.of(ref, sc.recordSc, sc.scSizes, a, Capacity)
    if (f.problems.nonEmpty) (f, f.problems)
    else {
      val total = Span.total(sc.scMembersOrig, a)
      (f, if (total != f.totalSpan) Seq(s"Span.total gives $total, the benchmark counts ${f.totalSpan}") else Nil)
    }
  }

  def same(a: Assignment, b: Assignment, what: String): Seq[String] =
    if (a.numChunks == b.numChunks && java.util.Arrays.equals(a.itemChunk, b.itemChunk)) Nil
    else Seq(s"$what differs between repetitions with the same seed")

  def permutation(order: Array[Int], n: Int): Seq[String] =
    if (order.length == n && order.sorted.sameElements(0 until n)) Nil
    else Seq(s"SHINGLE order of ${order.length} entries is not a permutation of $n items")

  /** Every record of the history placed exactly once, in a chunk ≤ 1.25·C. */
  def online(ref: Reference, ds: VersionedDataset, st: OnlinePartitioner#State): Seq[String] = {
    val ps = mutable.ArrayBuffer.empty[String]
    if (st.ckChunk.size != ref.records.length)
      ps += s"${st.ckChunk.size} records placed, ${ref.records.length} originated"
    val bytes = new Array[Long](st.numChunks)
    var missing = 0
    ref.records.foreach { ck =>
      st.ckChunk.get(ck) match {
        case Some(c) if c >= 0 && c < st.numChunks => bytes(c) += RecordModel.size(ck, ds.spec)
        case _ => missing += 1
      }
    }
    if (missing > 0) ps += s"$missing records not placed in a valid chunk"
    if (bytes.exists(_ > Capacity + Capacity / 4)) ps += "an online chunk is above 1.25·C"
    ps.toSeq
  }
}

/** Checks of query answers and of the chunks each query fetches. A second
  * query processor over the same layout, on a recording store, shows which
  * chunks a call fetches; the timed processor's store stays the program's own.
  */
final class QueryChecks(ref: Reference, lay: Layout, chunkBytes: Array[Long]) {
  private val kvs = new RecordingKVS(new SimulatedKVS(Workload.Nodes))
  private val qp = new QueryProcessor(lay.ds, lay.sc, lay.a, kvs)
  qp.populate()

  /** Chunk holding record `ck` in the layout, or -1 if it is not stored. */
  def chunkOf(ck: Long): Int = {
    val i = java.util.Arrays.binarySearch(lay.ds.uniqueCks, ck)
    if (i < 0) -1 else lay.a.itemChunk(lay.sc.recordSc(i))
  }
  def chunksOf(cks: Array[Long]): Set[Int] = cks.iterator.map(chunkOf).toSet

  private val versionChunks = mutable.HashMap.empty[Int, Set[Int]]
  private val keyChunks = mutable.LongMap.empty[Set[Int]]
  /** Chunks holding the records of version `v` (memoized: streams repeat versions). */
  def chunksOfVersion(v: Int): Set[Int] = versionChunks.getOrElseUpdate(v, chunksOf(ref.members(v)))
  /** Chunks holding the records of `key`. */
  def chunksOfKey(key: Long): Set[Int] = keyChunks.getOrElseUpdate(key, chunksOf(ref.recordsOfKey(key)))

  /** (requests, bytes) of fetching the chunks `cs`. */
  def traffic(cs: Set[Int]): (Long, Long) =
    (cs.size.toLong, cs.iterator.map(c => if (c < 0) 0L else chunkBytes(c)).sum)

  /** Run each query type once on the recording processor, so that the
    * program's call sites have seen both stores before they are compiled
    * (a store first met during the timed rounds would deoptimize them).
    */
  def warm(v: Int, lo: Long, hi: Long, key: Long): Unit = {
    qp.fullVersion(v); qp.range(v, lo, hi); qp.evolution(key); qp.point(v, Ck.key(ref.members(v).head))
  }

  private def fetchedBy(call: => Unit): Set[Int] = {
    kvs.fetched.clear(); call
    kvs.fetched.iterator.map(_.toInt).toSet
  }
  private def covers(what: String, fetched: Set[Int], needed: Set[Int]): Seq[String] =
    if (needed.subsetOf(fetched)) Nil else Seq(s"$what misses a chunk of its answer")

  def q1(v: Int, ans: Array[Long], got: (Long, Long), expect: (Long, Long), fetch: Boolean): Seq[String] =
    (if (java.util.Arrays.equals(ans, ref.members(v))) Nil else Seq(s"Q1($v) answer differs from the replay")) ++
      (if (got == expect) Nil else Seq(s"Q1($v) traffic $got, its chunks make $expect")) ++
      (if (fetch) covers(s"Q1($v)", fetchedBy(qp.fullVersion(v)), chunksOfVersion(v)) else Nil)

  /** Problems, plus (chunks fetched, fetched chunks holding an answer record). */
  def q2(v: Int, lo: Long, hi: Long, ans: Array[Long], fetch: Boolean): (Seq[String], Int, Int) = {
    val want = ref.members(v).filter { ck => val k = Ck.key(ck); k >= lo && k <= hi }
    val p = if (java.util.Arrays.equals(ans, want)) Nil else Seq(s"Q2($v, $lo, $hi) answer differs from the replay")
    if (!fetch) (p, 0, 0)
    else {
      val f = fetchedBy(qp.range(v, lo, hi))
      val needed = chunksOf(want)
      (p ++ covers(s"Q2($v, $lo, $hi)", f, needed), f.size, f.count(needed.contains))
    }
  }

  def q3(key: Long, ans: Array[Long], got: (Long, Long), expect: (Long, Long), fetch: Boolean): Seq[String] = {
    val want = ref.recordsOfKey(key)
    (if (java.util.Arrays.equals(ans, want)) Nil else Seq(s"Q3($key) answer differs from the reference")) ++
      (if (got == expect) Nil else Seq(s"Q3($key) traffic $got, its chunks make $expect")) ++
      (if (fetch) covers(s"Q3($key)", fetchedBy(qp.evolution(key)), chunksOfKey(key)) else Nil)
  }

  def point(v: Int, key: Long, ans: Option[Long], fetch: Boolean): Seq[String] = {
    val want = ref.live(v, key)
    (if (ans == want) Nil else Seq(s"point($v, $key) answered ${ans.map(Ck.show)}, reference ${want.map(Ck.show)}")) ++
      (if (fetch) covers(s"point($v, $key)", fetchedBy(qp.point(v, key)), chunksOf(want.toArray)) else Nil)
  }
}
