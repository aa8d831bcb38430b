package repro.perfbench

import repro.core._
import repro.data.{DatasetSpec, VersionedDataGen}
import repro.kvs.{Blob, SimulatedKVS}
import repro.query.QueryProcessor

import scala.util.Random

/** Shows that the output checks can fail: the same checks the workloads
  * run, on a clean layout and on three inputs corrupted on purpose. Each
  * corruption must show up as failed operations; the clean case must not.
  */
object SelfCheck {
  import Workload.{Capacity, Nodes}

  final case class Case(name: String, attempted: Int, failed: Int, firstProblem: String)

  private val spec = DatasetSpec("selfcheck", 200, 400, 0.10, skewed = false, numBranches = 24, seed = 7L)

  private def layout(ds: VersionedDataset, a0: Option[SubChunking => Assignment] = None): Layout = {
    val sc = SubChunker.build(ds, 10)
    val a = a0.map(_(sc)).getOrElse(BottomUpPartitioner.default.partition(sc.input, Capacity))
    val kvs = new SimulatedKVS(Nodes)
    val qp = new QueryProcessor(ds, sc, a, kvs)
    qp.populate()
    Layout(ds, sc, a, kvs, qp)
  }

  /** The workloads' checks over one layout: the layout itself, then Q1 of
    * every version and Q2, Q3 and point queries drawn from a fixed seed.
    */
  private def exercise(name: String, ref: Reference, lay: Layout): Case = {
    var attempted, failed = 0
    var first = ""
    def op(body: => Seq[String]): Unit = {
      attempted += 1
      val ps = try body catch { case e: Exception => Seq(e.toString) }
      if (ps.nonEmpty) { failed += 1; if (first.isEmpty) first = ps.head }
    }
    val (facts, layoutPs) = Checks.layout(ref, lay.sc, lay.a)
    op(Checks.membership(ref, lay.ds) ++ layoutPs)
    val qc = new QueryChecks(ref, lay, facts.chunkBytes)
    val q = Queries.draw(ref, Round(0, 0, 0, 0, 50, 200, 200), new Random(11L))
    val tally = lay.kvs.tally
    def traffic(call: => Unit): (Long, Long) = {
      val (r0, b0) = (tally.requests, tally.bytes)
      call
      (tally.requests - r0, tally.bytes - b0)
    }
    (0 until ref.size).foreach { v => op {
      var ans: Array[Long] = null
      val got = traffic { ans = lay.qp.fullVersion(v)._1 }
      qc.q1(v, ans, got, qc.traffic(qc.chunksOfVersion(v)), fetch = true)
    } }
    q.q2.foreach { case (v, lo, hi) => op(qc.q2(v, lo, hi, lay.qp.range(v, lo, hi)._1, fetch = true)._1) }
    q.q3.foreach { key => op {
      var ans: Array[Long] = null
      val got = traffic { ans = lay.qp.evolution(key)._1 }
      qc.q3(key, ans, got, qc.traffic(qc.chunksOfKey(key)), fetch = true)
    } }
    q.points.foreach { case (v, key) => op(qc.point(v, key, lay.qp.point(v, key)._1, fetch = true)) }
    Case(name, attempted, failed, first)
  }

  def run(): Seq[Case] = {
    val gen = VersionedDataGen.generate(spec)
    val ref = Reference.replay(gen.tree.parent, gen.deltas)
    val clean = layout(gen)

    // 1. one delta addition dropped, the dataset handed to QueryProcessor
    val v = (1 until gen.tree.size).find(gen.deltas(_).adds.nonEmpty).get
    val deltas = gen.deltas.clone()
    deltas(v) = Delta(deltas(v).adds.drop(1), deltas(v).dels)
    val dropped = layout(new VersionedDataset(spec, gen.tree, deltas, gen.lineageMap))

    // 2. two full chunks merged into one
    val bytes = clean.a.chunkBytes(clean.sc.scSizes)
    val full = bytes.indices.filter(bytes(_) >= Capacity).take(2)
    require(full.length == 2, "self-check dataset has fewer than two full chunks")
    val merged = layout(gen, Some(_ =>
      Assignment(clean.a.itemChunk.map(c => if (c == full(1)) full(0) else c), clean.a.numChunks)))

    // 3. a KVS missing one chunk: the first chunk of version 0
    val missing = clean.qp.indexes.versionToChunks(0).head
    val kvs = new SimulatedKVS(Nodes)
    val qp = new QueryProcessor(clean.ds, clean.sc, clean.a, kvs)
    qp.indexes.chunkBytes.indices.filter(_ != missing).foreach(c => kvs.put(c.toLong, Blob(qp.indexes.chunkBytes(c))))
    val holed = clean.copy(kvs = kvs, qp = qp)

    Seq(exercise("clean", ref, clean),
        exercise("dropped-delta-addition", ref, dropped),
        exercise("merged-full-chunks", ref, merged),
        exercise("missing-kvs-chunk", ref, holed))
  }
}
