package repro.perfbench

import java.util.concurrent.ConcurrentHashMap

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.{DatasetSpec, RecordModel, VersionedDataGen}
import repro.index.ChunkIndexes
import repro.kvs.{SimulatedKVS, SparkChunkStore}
import repro.online.OnlinePartitioner
import repro.query.QueryProcessor

import scala.collection.mutable
import scala.reflect.ClassTag
import scala.util.Random

/** Growable primitive sample buffer, so recording a latency allocates nothing. */
final class Samples {
  private var a = new Array[Long](1024)
  private var n = 0
  def +=(x: Long): Unit = {
    if (n == a.length) a = java.util.Arrays.copyOf(a, 2 * n)
    a(n) = x; n += 1
  }
  def values: Seq[Double] = a.iterator.take(n).map(_.toDouble).toSeq
}

/** What one set-up builds: the generated history, its layout, the k = 1
  * BOTTOM-UP span that online ingest is compared with, and the Spark slice.
  */
final case class SetUp(spec: DatasetSpec, tree: VersionTree, deltas: Array[Delta],
                       lineage: collection.Map[Long, Long], layout: Layout, offlineK1Span: Long,
                       sliceDs: VersionedDataset, sliceSc: SubChunking)

/** The query stream of a run: drawn once from the run's seed, replayed in
  * every round, so per-query means repeat exactly.
  */
final case class Queries(q1: Array[Int], q2: Array[(Int, Long, Long)], q3: Array[Long],
                         points: Array[(Int, Long)])

object Queries {
  /** Versions uniform; Q2 ranges cover 10 % of the key space (Fig 11); Q3
    * keys uniform over all keys; point keys drawn from the chosen version.
    */
  def draw(ref: Reference, r: Round, rnd: Random): Queries = {
    val keys = ref.keys
    val (lo, hi) = (keys.head, keys.last)
    val width = math.max(1L, (hi - lo) / 10)
    Queries(
      Array.fill(r.q1)(rnd.nextInt(ref.size)),
      Array.fill(r.q2) {
        val from = lo + (rnd.nextDouble() * math.max(0L, hi - lo - width)).toLong
        (rnd.nextInt(ref.size), from, from + width)
      },
      Array.fill(r.q3)(keys(rnd.nextInt(keys.length))),
      Array.fill(r.points) {
        val v = rnd.nextInt(ref.size)
        val m = ref.members(v)
        (v, Ck.key(m(rnd.nextInt(m.length))))
      })
  }
}

/** Counts jobs, tasks, task time and shuffle bytes of the Spark jobs whose
  * group starts with "shingle" (the timed SHINGLE calls).
  */
final class ShingleListener extends SparkListener {
  private val stages = ConcurrentHashMap.newKeySet[Int]()
  private val ended = ConcurrentHashMap.newKeySet[Int]()
  @volatile var jobs = 0L
  @volatile var tasks = 0L
  @volatile var taskMs = 0L
  @volatile var shuffleBytes = 0L

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val group = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
    if (group.exists(_.startsWith("shingle"))) { jobs += 1; e.stageIds.foreach(stages.add) }
  }
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    if (stages.contains(e.stageId) && e.taskMetrics != null) {
      tasks += 1
      taskMs += e.taskMetrics.executorRunTime
      shuffleBytes += e.taskMetrics.shuffleWriteMetrics.bytesWritten
    }
  override def onJobEnd(e: SparkListenerJobEnd): Unit = ended.add(e.jobId)

  /** Wait until the listener bus has delivered the end of every job of `group`. */
  def await(spark: SparkSession, group: String): Unit = {
    val ids = spark.sparkContext.statusTracker.getJobIdsForGroup(group)
    val deadline = System.nanoTime() + 30L * 1000000000L
    while (!ids.forall(ended.contains) && System.nanoTime() < deadline) Thread.sleep(2)
  }
}

/** One metric as printed: name, value, unit. */
final case class Metric(name: String, value: Double, unit: String)

final case class Outcome(correct: Boolean, attempted: Long, failed: Long, metrics: Seq[Metric])

/** Runs one workload: set-up (repeated), warm-up, timed rounds until the
  * time limit, then metrics. Every call into the program is timed from
  * here; every output is checked outside the timed region.
  */
final class Runner(w: Workload, seed: Long, datasetSeed: Long, seconds: Int, tracer: Tracer,
                   spark: SparkSession, mainAtSecs: Double, workDir: java.io.File) {
  import Workload.{Capacity, IngestBatch, K, Nodes}

  private val SetupReps = 3
  /** Warm-up calls of each microsecond query type (C2 compiles after ~10⁴). */
  private val WarmCalls = 30000
  /** Calls per timed batch of a microsecond query type. */
  private val Batch = 10
  private val spec = w.shape(datasetSeed)

  private var attempted = 0L
  private var failed = 0L
  private var correct = true
  private var explicitGcMs = 0L
  private var explicitGcs = 0L

  private def report(what: String, ps: Seq[String]): Unit =
    ps.take(3).foreach(p => Console.err.println(s"[perfbench] ${w.name} $what: $p"))

  /** One counted operation of a round: the problems its checks found, or
    * what it threw. Either makes it a failed operation.
    */
  private def op(what: String)(body: => Seq[String]): Unit = {
    attempted += 1
    val ps = try body catch { case e: Exception => Seq(e.toString) }
    if (ps.nonEmpty) { failed += 1; if (failed <= 10) report(what, ps) }
  }

  /** A check made once per run, outside the rounds: a failure makes the
    * whole run incorrect (it is not an operation of a round).
    */
  private def setupCheck(what: String)(ps: Seq[String]): Unit =
    if (ps.nonEmpty) { correct = false; report(what, ps) }

  /** Full collection between repetitions, kept out of the jvm.gc_* figures. */
  private def quiesce(): Unit = {
    val g0 = Jvm.gcMillis; val c0 = Jvm.gcCount
    System.gc()
    explicitGcMs += Jvm.gcMillis - g0; explicitGcs += Jvm.gcCount - c0
  }

  private def progress(msg: String): Unit =
    Console.err.println(f"[perfbench] ${w.name} seed $seed at ${Jvm.sinceStartSecs}%.1f s: $msg")

  private def secs(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  /** Calls `call(0 until n)` in batches of [[Batch]], recording each batch's
    * wall time per call, then checks every result. Microsecond calls are
    * timed in batches because one clock reading costs 50–120 ns here, as
    * much as a tenth of a call, and varies from run to run.
    */
  private def batched[A: ClassTag](n: Int, lat: Samples)(call: Int => A)(check: (Int, A) => Unit): Unit = {
    val out = new Array[A](Batch)
    var i = 0
    while (i < n) {
      val m = math.min(Batch, n - i)
      val t0 = System.nanoTime()
      var j = 0
      while (j < m) { out(j) = call(i + j); j += 1 }
      lat += (System.nanoTime() - t0) / m
      j = 0
      while (j < m) { check(i + j, out(j)); j += 1 }
      i += m
    }
  }

  // ---- the timed calls ---------------------------------------------------

  /** Offline BOTTOM-UP layout of the whole history, from membership to a
    * populated KVS.
    */
  private def layoutPipeline(su: SetUp): Layout = tracer.span("layout") {
    val ds = tracer.span("core.members")(new VersionedDataset(su.spec, su.tree, su.deltas, su.lineage))
    tracer.span("core.members_items")(ds.membersItems)
    val sc = tracer.span("core.subchunk")(SubChunker.build(ds, K))
    val a = tracer.span("core.bottomup")(BottomUpPartitioner.default.partition(sc.input, Capacity))
    val kvs = new SimulatedKVS(Nodes)
    val qp = tracer.span("index.build")(new QueryProcessor(ds, sc, a, kvs))
    tracer.span("kvs.populate")(qp.populate())
    Layout(ds, sc, a, kvs, qp)
  }

  /** One repetition of the set-up: generate the history and lay it out. */
  private def buildSetUp(): SetUp = {
    val gen = tracer.span("data.generate")(VersionedDataGen.generate(spec))
    val base = SetUp(spec, gen.tree, gen.deltas, gen.lineageMap, null, 0L, null, null)
    base.copy(layout = layoutPipeline(base))
  }

  /** The set-up built once per run: the k = 1 BOTTOM-UP span that online
    * ingest is compared with, and the slice
    * of the history the Spark paths run on.
    */
  private def finishSetUp(su: SetUp): SetUp = {
    val lay = su.layout
    val in = PartitionInput(lay.ds.tree, lay.ds.membersItems, lay.ds.itemSizes)
    val k1Span = Span.total(in.members, BottomUpPartitioner.default.partition(in, Capacity))
    val (sliceDs, sliceSc) =
      if (w.sliceVersions >= lay.ds.tree.size) (lay.ds, lay.sc)
      else { val p = lay.ds.prefix(w.sliceVersions); (p, SubChunker.build(p, K)) }
    su.copy(offlineK1Span = k1Span, sliceDs = sliceDs, sliceSc = sliceSc)
  }

  // ---- the run ---------------------------------------------------------------

  def run(): Outcome = {
    tracer.rep = -1
    var su: SetUp = null
    var retainedMb = Double.NaN
    val setupSecs = (0 until SetupReps).map { r =>
      // retained heap: the difference of two adjacent full-GC readings, with
      // and without the previous repetition's structures
      if (r == SetupReps - 1) {
        val withSetUp = Jvm.retainedBytes()
        su = null
        retainedMb = (withSetUp - Jvm.retainedBytes()) / 1e6
      } else { su = null; quiesce() }
      val t0 = System.nanoTime()
      su = buildSetUp()
      secs(t0)
    }
    val onceT0 = System.nanoTime()
    su = finishSetUp(su)
    val onceSecs = secs(onceT0)
    progress(f"set-up done (${setupSecs.map(s => f"$s%.2f").mkString(", ")} s, then $onceSecs%.2f s once)")
    val lay = su.layout
    val n = su.tree.size

    // reference computations and the once-per-run checks
    val ref = Reference.replay(su.tree.parent, su.deltas)
    val sliceRef = ref.prefix(w.sliceVersions)
    setupCheck("membership")(Checks.membership(ref, lay.ds) ++ Checks.membership(sliceRef, su.sliceDs))
    val (facts, fp) = Checks.layout(ref, lay.sc, lay.a)
    setupCheck("layout")(fp)
    val q = Queries.draw(ref, w.round, new Random(seed))
    val qc = new QueryChecks(ref, lay, facts.chunkBytes)
    val q1Expect = q.q1.map(v => qc.traffic(qc.chunksOfVersion(v)))
    val q3Expect = q.q3.map(k => qc.traffic(qc.chunksOfKey(k)))
    // the fetched chunks are checked at the first occurrence of each query
    def firstSeen[A](xs: Array[A]): Array[Boolean] = { val seen = mutable.HashSet.empty[A]; xs.map(seen.add) }
    val (q1First, q2First, q3First, pointFirst) = (firstSeen(q.q1), firstSeen(q.q2), firstSeen(q.q3), firstSeen(q.points))

    // warm-up: the first Spark job compiles its plan; the rest reach steady JIT code
    val warmT0 = System.nanoTime()
    val shingle = new ShinglePartitioner(spark)
    spark.sparkContext.setJobGroup("warmup", "warm-up", interruptOnCancel = false)
    setupCheck("shingle order")(
      Checks.permutation(shingle.sparkOrder(su.sliceSc.input), su.sliceSc.input.numItems))
    val shingleRef = shingle.partition(su.sliceSc.input, Capacity)
    val online0 = new OnlinePartitioner(lay.ds, Capacity, IngestBatch).run(n)
    val onlineSpan = online0.totalSpan(n)
    // every query type reaches the optimizing compiler before it is timed
    for (i <- 0 until WarmCalls) {
      lay.qp.fullVersion(q.q1(i % q.q1.length))
      lay.qp.evolution(q.q3(i % q.q3.length))
      val (v, key) = q.points(i % q.points.length)
      lay.qp.point(v, key)
      if (i % 100 == 0) { val (v2, lo, hi) = q.q2(i / 100 % q.q2.length); qc.warm(v2, lo, hi, key) }
    }
    q.q2.foreach(t => lay.qp.range(t._1, t._2, t._3))
    val warmSecs = secs(warmT0)
    progress(f"warm-up done ($warmSecs%.2f s)")

    val listener = if (tracer.on) Some(new ShingleListener) else None
    listener.foreach(spark.sparkContext.addSparkListener)

    val layoutSecs, shingleSecs, ingestSecs, untracedLayoutSecs = mutable.ArrayBuffer.empty[Double]
    val lat = Map("q1" -> new Samples, "q2" -> new Samples, "q3" -> new Samples, "point" -> new Samples)
    var simQ1Ms, simQ3Ms = Double.NaN
    var q2Fetched, q2Useful, q2Results, q2Keys = 0L
    var shingleFacts: LayoutFacts = null
    var dfsFacts: LayoutFacts = null
    var shingleCalls = 0
    val kvs = lay.kvs
    val kvsRequests0 = kvs.requestsPerNode
    val cost = kvs.cost

    /** The cost-model formula, written out here, applied to (requests, bytes). */
    def formulaMs(req: Long, bytes: Long): Double =
      req * cost.rttMs + bytes / (cost.bandwidthMBps * 1048.576) + bytes / (cost.scanMBps * 1048.576)
    /** A block's simulated mean matches the formula on the expected traffic,
      * and every round gives the same mean.
      */
    def simCheck(what: String, tally: (Long, Long), expect: Array[(Long, Long)], got: Double,
                 previous: Double): Seq[String] = {
      val (req, bytes) = (expect.iterator.map(_._1).sum, expect.iterator.map(_._2).sum)
      val want = formulaMs(req, bytes) / expect.length
      if (tally != ((req, bytes))) Seq(s"$what traffic $tally, expected ($req, $bytes)")
      else if (math.abs(got - want) > 1e-9 * math.max(1.0, want)) Seq(s"$what $got ms, formula gives $want ms")
      else if (!previous.isNaN && previous != got) Seq(s"$what changed between rounds")
      else Nil
    }
    def tallyNow: (Long, Long) = (kvs.tally.requests, kvs.tally.bytes)
    def minus(a: (Long, Long), b: (Long, Long)): (Long, Long) = (a._1 - b._1, a._2 - b._2)

    val gc0 = Jvm.gcMillis; val gcN0 = Jvm.gcCount
    val explicit0 = (explicitGcMs, explicitGcs)
    tracer.resetPeak()
    val deadline = System.nanoTime() + seconds * 1000000000L
    var round = 0
    val loopT0 = System.nanoTime()
    // whole rounds; another starts while it is expected to end within half a round of the limit
    def more: Boolean = round == 0 ||
      System.nanoTime() + (System.nanoTime() - loopT0) / round / 2 < deadline
    while (more) {
      tracer.rep = round
      val first = round == 0

      for (_ <- 0 until w.round.layouts) op("layout") {
        quiesce()
        val t0 = System.nanoTime()
        val l = layoutPipeline(su)
        layoutSecs += secs(t0)
        Checks.membership(ref, l.ds) ++ Checks.layout(ref, l.sc, l.a)._2 ++
          Checks.same(l.a, lay.a, "BOTTOM-UP assignment")
      }
      if (tracer.on) { // the same pipeline without spans: the tracing overhead
        quiesce()
        val t0 = System.nanoTime()
        tracer.untraced(layoutPipeline(su))
        untracedLayoutSecs += secs(t0)
      }

      // the round's ingests as one timed region, long enough to time steadily
      op("ingest") {
        quiesce()
        val t0 = System.nanoTime()
        val sts = Seq.fill(w.round.ingests)(
          tracer.span("online.run")(new OnlinePartitioner(lay.ds, Capacity, IngestBatch).run(n)))
        ingestSecs += secs(t0) / w.round.ingests
        sts.flatMap(Checks.online(ref, lay.ds, _))
      }

      for (_ <- 0 until w.round.shingles) op("shingle") {
        quiesce()
        val group = s"shingle-$shingleCalls"
        shingleCalls += 1
        spark.sparkContext.setJobGroup(group, "SHINGLE", interruptOnCancel = false)
        val t0 = System.nanoTime()
        val a = tracer.span("core.shingle")(shingle.partition(su.sliceSc.input, Capacity))
        shingleSecs += secs(t0)
        listener.foreach(_.await(spark, group))
        val (f, ps) = Checks.layout(sliceRef, su.sliceSc, a)
        if (shingleFacts == null) shingleFacts = f
        ps ++ Checks.same(a, shingleRef, "SHINGLE assignment")
      }

      quiesce()
      // The query stream. Single calls take microseconds, so spans cover
      // whole blocks; each call is timed here. Answers are checked every
      // round, the fetched chunks in the first.
      val t1 = tallyNow
      tracer.span("query.q1_block")(batched(q.q1.length, lat("q1"))(i => lay.qp.fullVersion(q.q1(i))) {
        case (i, (ans, c)) => op("q1")(qc.q1(q.q1(i), ans, (c.queries, c.bytes), q1Expect(i), first && q1First(i)))
      })
      val q1Tally = minus(tallyNow, t1)
      val q1Ms = cost.timeMs(q1Tally._1, q1Tally._2) / q.q1.length
      op("sim_q1")(simCheck("sim Q1", q1Tally, q1Expect, q1Ms, simQ1Ms))
      simQ1Ms = q1Ms

      tracer.span("query.q2_block")(q.q2.indices.foreach { i => op("q2") {
        val (v, lo, hi) = q.q2(i)
        val t0 = System.nanoTime()
        val (ans, _) = lay.qp.range(v, lo, hi)
        lat("q2") += System.nanoTime() - t0
        val (ps, fetched, useful) = qc.q2(v, lo, hi, ans, first && q2First(i))
        if (first && q2First(i)) {
          q2Fetched += fetched; q2Useful += useful; q2Results += ans.length; q2Keys += hi - lo + 1
        }
        ps
      } })

      val t3 = tallyNow
      tracer.span("query.q3_block")(batched(q.q3.length, lat("q3"))(i => lay.qp.evolution(q.q3(i))) {
        case (i, (ans, c)) => op("q3")(qc.q3(q.q3(i), ans, (c.queries, c.bytes), q3Expect(i), first && q3First(i)))
      })
      val q3Tally = minus(tallyNow, t3)
      val q3Ms = cost.timeMs(q3Tally._1, q3Tally._2) / q.q3.length
      op("sim_q3")(simCheck("sim Q3", q3Tally, q3Expect, q3Ms, simQ3Ms))
      simQ3Ms = q3Ms

      tracer.span("query.point_block")(batched(q.points.length, lat("point"))(i => lay.qp.point(q.points(i)._1, q.points(i)._2)) {
        case (i, (ans, _)) => op("point")(qc.point(q.points(i)._1, q.points(i)._2, ans, first && pointFirst(i)))
      })

      if (tracer.on) {
        // evaluation and reference layouts: per-layer figures only
        tracer.span("core.span")(Span.total(lay.sc.scMembersOrig, lay.a))
        tracer.span("core.shingle_driver")(shingle.driverOrder(su.sliceSc.input))
        val dfs = tracer.span("core.dfs")(TraversalPartitioner.dfs.partition(lay.sc.input, Capacity))
        if (dfsFacts == null) dfsFacts = Checks.layout(ref, lay.sc, dfs)._1
        tracer.span("online.total_span")(online0.totalSpan(n))
      }
      round += 1
    }
    val gcMs = Jvm.gcMillis - gc0 - (explicitGcMs - explicit0._1)
    val gcCount = Jvm.gcCount - gcN0 - (explicitGcs - explicit0._2)
    val peakMb = tracer.peakBytes / 1e6
    spark.sparkContext.setJobGroup("other", "not SHINGLE", interruptOnCancel = false)
    tracer.rep = -1
    def show(xs: Seq[Double]) = xs.map(x => f"$x%.3f").mkString(" ")
    progress(s"$round rounds done; layouts ${show(layoutSecs.toSeq)}; ingests ${show(ingestSecs.toSeq)}; " +
      s"SHINGLE calls ${show(shingleSecs.toSeq)}")

    val us = (s: Samples, p: Double) => Stats.quantile(s.values, p) / 1000.0
    val rawBytes = ref.records.iterator.map(RecordModel.size(_, spec)).sum
    val idx = lay.qp.indexes
    val storedBytes = idx.chunkBytes.sum + idx.versionIndexBytes + idx.keyIndexBytes

    val endToEnd = Seq(
      // without Spark start-up, which the caller adds (the median of three starts)
      Metric("setup_s", mainAtSecs + Stats.median(setupSecs) + onceSecs, "s"),
      Metric("layout_s", Stats.median(layoutSecs), "s"),
      Metric("shingle_s", Stats.median(shingleSecs), "s"),
      Metric("retained_heap_mb", retainedMb, "MB"),
      Metric("span_ratio", facts.spanRatio, "ratio"),
      Metric("stored_bytes_per_user_byte", storedBytes.toDouble / rawBytes, "ratio"),
      Metric("sim_q1_ms", simQ1Ms, "ms"),
      Metric("sim_q3_ms", simQ3Ms, "ms"),
      Metric("q1_p50_us", us(lat("q1"), 0.5), "us"),
      Metric("q2_p50_us", us(lat("q2"), 0.5), "us"),
      Metric("q3_p50_us", us(lat("q3"), 0.5), "us"),
      Metric("point_p50_us", us(lat("point"), 0.5), "us"),
      Metric("q2_p99_us", us(lat("q2"), 0.99), "us"),
      Metric("ingest_versions_per_s", n / Stats.median(ingestSecs), "versions/s"),
      Metric("online_span_ratio", onlineSpan.toDouble / su.offlineK1Span, "ratio"),
    )
    if (!tracer.on) return Outcome(correct, attempted, failed, endToEnd)

    // ---- traced run: per-layer figures -------------------------------------
    val parquet = parquetFigures(su, sliceRef, new Random(seed + 1))
    def med(name: String): Double = Stats.median(tracer.secsOf(name))
    def fill(bytes: Array[Long], p: Double): Double = Stats.quantile(bytes.map(_.toDouble / Capacity), p)
    val onlineFill = {
      val b = new Array[Long](online0.numChunks)
      online0.ckChunk.foreachEntry((ck, c) => b(c) += RecordModel.size(ck, spec))
      b
    }
    val reqs = kvs.requestsPerNode.zip(kvsRequests0).map { case (a, b) => (a - b).toDouble }
    val l = listener.get
    val traced = Stats.median(layoutSecs)
    val untraced = Stats.median(untracedLayoutSecs)
    val perLayer = Seq(
      Metric("data.generate_s", Stats.median(tracer.secsOf("data.generate", timed = false)), "s"),
      Metric("core.members_s", med("core.members"), "s"),
      Metric("core.members_items_s", med("core.members_items"), "s"),
      Metric("core.membership_rows", lay.ds.members.iterator.map(_.length.toLong).sum.toDouble, "count"),
      Metric("core.subchunk_s", med("core.subchunk"), "s"),
      Metric("core.subchunks", lay.sc.numSubChunks.toDouble, "count"),
      Metric("core.compression_ratio", lay.sc.compressionRatio, "ratio"),
      Metric("core.bottomup_s", med("core.bottomup"), "s"),
      Metric("core.chunks", lay.a.numChunks.toDouble, "count"),
      Metric("core.chunk_fill_p10", fill(facts.chunkBytes, 0.1), "ratio"),
      Metric("core.chunk_fill_p50", fill(facts.chunkBytes, 0.5), "ratio"),
      Metric("core.chunks_over_capacity", facts.chunkBytes.count(_ > Capacity).toDouble, "count"),
      Metric("core.span_over_bound_p50", Stats.median(facts.spanOverBound), "ratio"),
      Metric("core.span_over_bound_max", facts.spanOverBound.max, "ratio"),
      Metric("core.span_s", med("core.span"), "s"),
      Metric("core.shingle_driver_s", med("core.shingle_driver"), "s"),
      Metric("core.shingle_span_ratio", shingleFacts.spanRatio, "ratio"),
      Metric("core.dfs_s", med("core.dfs"), "s"),
      Metric("core.dfs_span_ratio", dfsFacts.spanRatio, "ratio"),
      Metric("spark.shingle_jobs", l.jobs.toDouble / shingleCalls, "count"),
      Metric("spark.shingle_tasks", l.tasks.toDouble / shingleCalls, "count"),
      Metric("spark.shingle_task_s", l.taskMs / 1000.0 / shingleCalls, "s"),
      Metric("spark.shingle_shuffle_mb", l.shuffleBytes / 1e6 / shingleCalls, "MB"),
      Metric("index.build_s", med("index.build"), "s"),
      Metric("kvs.populate_s", med("kvs.populate"), "s"),
      Metric("index.version_bytes", idx.versionIndexBytes.toDouble, "bytes"),
      Metric("index.key_bytes", idx.keyIndexBytes.toDouble, "bytes"),
      Metric("query.q1_chunks", q1Expect.map(_._1).sum.toDouble / q.q1.length, "count"),
      Metric("query.q3_chunks", q3Expect.map(_._1).sum.toDouble / q.q3.length, "count"),
      Metric("query.q1_kb", q1Expect.map(_._2).sum / 1024.0 / q.q1.length, "KB"),
      Metric("query.q3_kb", q3Expect.map(_._2).sum / 1024.0 / q.q3.length, "KB"),
      Metric("query.q2_chunks", q2Fetched.toDouble / q2First.count(identity), "count"),
      Metric("query.q2_useful_chunk_ratio", q2Useful.toDouble / math.max(1L, q2Fetched), "ratio"),
      Metric("query.q2_keys_probed_per_result", q2Keys.toDouble / math.max(1L, q2Results), "ratio"),
      Metric("query.q1_p99_us", us(lat("q1"), 0.99), "us"),
      Metric("query.q3_p99_us", us(lat("q3"), 0.99), "us"),
      Metric("query.point_p99_us", us(lat("point"), 0.99), "us"),
      Metric("kvs.node_requests_max_over_mean", reqs.max / Stats.mean(reqs), "ratio"),
      Metric("kvs.parquet_write_s", parquet._1, "s"),
      Metric("kvs.parquet_q1_p50_ms", parquet._2, "ms"),
      Metric("online.run_s", med("online.run"), "s"),
      Metric("online.batches", math.ceil(n.toDouble / IngestBatch), "count"),
      Metric("online.chunks", online0.numChunks.toDouble, "count"),
      Metric("online.chunk_fill_p50", fill(onlineFill, 0.5), "ratio"),
      Metric("online.total_span_s", med("online.total_span"), "s"),
      Metric("jvm.gc_s", gcMs / 1000.0, "s"),
      Metric("jvm.gc_count", gcCount.toDouble, "count"),
      Metric("jvm.peak_heap_mb", peakMb, "MB"),
      Metric("setup.warmup_s", warmSecs, "s"),
      Metric("trace.overhead_pct", 100.0 * (traced - untraced) / untraced, "%"),
    )
    Outcome(correct, attempted, failed, perLayer)
  }

  /** Parquet chunk store (traced runs only): write the slice's BOTTOM-UP
    * layout, then time Q1 reads of five versions after one warm-up read,
    * each checked against the reference membership.
    */
  private def parquetFigures(su: SetUp, sliceRef: Reference, rnd: Random): (Double, Double) = {
    val dir = new java.io.File(workDir, s"parquet-${w.name}-$seed")
    try {
      val a = BottomUpPartitioner.default.partition(su.sliceSc.input, Capacity)
      val store = new SparkChunkStore(spark, dir.getPath)
      val t0 = System.nanoTime()
      tracer.span("kvs.parquet_write")(store.write(su.sliceDs, su.sliceSc, a))
      val writeSecs = secs(t0)
      val idx = ChunkIndexes.build(su.sliceDs, su.sliceSc, a)
      val lat = mutable.ArrayBuffer.empty[Double]
      for (i <- 0 to 5) {
        val v = rnd.nextInt(sliceRef.size)
        op("parquet_q1") {
          val t1 = System.nanoTime()
          val rows = tracer.span("kvs.parquet_q1")(
            store.fullVersion(su.sliceDs, idx.versionToChunks(v).toSeq, v).select("key", "origin").collect())
          if (i > 0) lat += (System.nanoTime() - t1) / 1e6
          val got = rows.map(r => Ck.pack(r.getLong(0), r.getInt(1))).sorted
          if (java.util.Arrays.equals(got, sliceRef.members(v))) Nil
          else Seq(s"Parquet Q1($v) returned ${got.length} records, reference ${sliceRef.members(v).length}")
        }
      }
      (writeSecs, Stats.median(lat))
    } finally Runner.deleteTree(dir)
  }
}

object Runner {
  def deleteTree(f: java.io.File): Unit = {
    if (f.isDirectory) Option(f.listFiles).foreach(_.foreach(deleteTree))
    f.delete()
  }
}
