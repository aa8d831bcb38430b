package repro.perfbench

import repro.core.{Assignment, Ck, Delta}

import scala.collection.mutable

/** What the benchmark computes apart from the program, to check its outputs:
  * membership replayed from the generated deltas with a sorted merge (the
  * program uses a hash set), the sorted distinct records, and each member's
  * record index. Nothing here is copied from a run of the program.
  */
final class Reference(val parent: Array[Int], val members: Array[Array[Long]]) {
  val size: Int = parent.length

  /** Every distinct record, sorted. Built by union, not from the adds. */
  val records: Array[Long] = {
    val all = members.iterator.flatMap(_.iterator).toArray
    java.util.Arrays.sort(all)
    var n = 0
    var i = 0
    while (i < all.length) { if (n == 0 || all(n - 1) != all(i)) { all(n) = all(i); n += 1 }; i += 1 }
    java.util.Arrays.copyOf(all, n)
  }

  /** Index in [[records]] of every member, per version. */
  val memberIdx: Array[Array[Int]] =
    members.map(_.map(ck => java.util.Arrays.binarySearch(records, ck)))

  /** Distinct primary keys, sorted. */
  lazy val keys: Array[Long] = records.map(Ck.key).distinct

  /** All records of `key` (records sort by key first). */
  def recordsOfKey(key: Long): Array[Long] = {
    var i = java.util.Arrays.binarySearch(records, Ck.pack(key, 0))
    if (i < 0) i = -i - 1
    val out = Array.newBuilder[Long]
    while (i < records.length && Ck.key(records(i)) == key) { out += records(i); i += 1 }
    out.result()
  }

  /** The record of `key` live in `v`, if any. */
  def live(v: Int, key: Long): Option[Long] = {
    val m = members(v)
    var i = java.util.Arrays.binarySearch(m, Ck.pack(key, 0))
    if (i < 0) i = -i - 1
    if (i < m.length && Ck.key(m(i)) == key) Some(m(i)) else None
  }

  /** The history restricted to its first `n` versions. */
  def prefix(n: Int): Reference =
    if (n >= size) this else new Reference(parent.take(n), members.take(n))
}

object Reference {
  /** Replay `deltas` down `parent` (versions are numbered in commit order). */
  def replay(parent: Array[Int], deltas: Array[Delta]): Reference = {
    val m = new Array[Array[Long]](parent.length)
    m(0) = sortedCopy(deltas(0).adds)
    var v = 1
    while (v < parent.length) { m(v) = apply(m(parent(v)), deltas(v)); v += 1 }
    new Reference(parent, m)
  }

  private def sortedCopy(a: Array[Long]): Array[Long] = { val c = a.clone(); java.util.Arrays.sort(c); c }

  /** (parent \ dels) ∪ adds by a three-way sorted merge. */
  def apply(p: Array[Long], d: Delta): Array[Long] = {
    val dels = sortedCopy(d.dels); val adds = sortedCopy(d.adds)
    val out = new mutable.ArrayBuilder.ofLong
    out.sizeHint(p.length + adds.length)
    var i = 0; var j = 0; var k = 0
    while (i < p.length) {
      val x = p(i)
      while (j < dels.length && dels(j) < x) j += 1
      if (j >= dels.length || dels(j) != x) {
        while (k < adds.length && adds(k) < x) { out += adds(k); k += 1 }
        out += x
      }
      i += 1
    }
    while (k < adds.length) { out += adds(k); k += 1 }
    out.result()
  }
}

/** Per-version span and lower bound of one layout, computed by the
  * benchmark from the reference membership and the layout's maps, plus
  * every property violation it found.
  *
  * @param spans  per version: distinct chunks holding its records
  * @param bounds per version: ⌈stored(v)/C⌉, stored(v) being the bytes of
  *               the distinct stored items (sub-chunks) the version touches
  */
final case class LayoutFacts(spans: Array[Int], bounds: Array[Long], chunkBytes: Array[Long],
                             problems: Seq[String]) {
  def totalSpan: Long = spans.iterator.map(_.toLong).sum
  def totalBound: Long = bounds.sum
  def spanRatio: Double = totalSpan.toDouble / totalBound
  def spanOverBound: Array[Double] = spans.indices.map(v => spans(v).toDouble / bounds(v)).toArray
}

object LayoutFacts {
  /** Check a layout: `recordItem` maps a reference record to its stored
    * item (sub-chunk), `itemSizes` are the stored item sizes, `a` places
    * items in chunks of nominal capacity `capacity`.
    */
  def of(ref: Reference, recordItem: Array[Int], itemSizes: Array[Long], a: Assignment,
         capacity: Long): LayoutFacts = {
    val problems = mutable.ArrayBuffer.empty[String]
    def bad(msg: String): Unit = if (problems.length < 5) problems += msg
    val limit = capacity + capacity / 4
    if (recordItem.length != ref.records.length)
      bad(s"${recordItem.length} records mapped, reference has ${ref.records.length}")
    if (recordItem.exists(i => i < 0 || i >= itemSizes.length)) bad("record mapped to no stored item")
    if (a.itemChunk.length != itemSizes.length)
      bad(s"${a.itemChunk.length} items placed, ${itemSizes.length} stored")
    val chunkBytes = new Array[Long](a.numChunks)
    var i = 0
    while (i < a.itemChunk.length) {
      val c = a.itemChunk(i)
      if (c < 0 || c >= a.numChunks) bad(s"item $i in chunk $c outside [0, ${a.numChunks})")
      else chunkBytes(c) += itemSizes(i)
      i += 1
    }
    val empty = chunkBytes.count(_ == 0)
    if (empty > 0) bad(s"$empty chunk ids hold no item")
    val over = chunkBytes.count(_ > limit)
    if (over > 0) bad(s"$over chunks above 1.25·C (max ${chunkBytes.max} B)")

    val spans = new Array[Int](ref.size)
    val bounds = new Array[Long](ref.size)
    if (problems.isEmpty) {
      val chunkStamp = Array.fill(a.numChunks)(-1)
      val itemStamp = Array.fill(itemSizes.length)(-1)
      var v = 0
      while (v < ref.size) {
        val idx = ref.memberIdx(v)
        var span = 0; var stored = 0L; var j = 0
        while (j < idx.length) {
          val it = recordItem(idx(j))
          if (itemStamp(it) != v) {
            itemStamp(it) = v; stored += itemSizes(it)
            val c = a.itemChunk(it)
            if (chunkStamp(c) != v) { chunkStamp(c) = v; span += 1 }
          }
          j += 1
        }
        spans(v) = span
        bounds(v) = math.max(1L, (stored + capacity - 1) / capacity)
        if (span.toLong * limit < stored) bad(s"version $v spans $span chunks for $stored B")
        v += 1
      }
    }
    LayoutFacts(spans, bounds, chunkBytes, problems.toSeq)
  }
}
