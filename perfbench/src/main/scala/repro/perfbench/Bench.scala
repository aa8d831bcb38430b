package repro.perfbench

import java.io.{File, PrintWriter}

import org.apache.spark.sql.SparkSession

/** Entry point of the RStore benchmark.
  *
  * {{{
  * Bench --workload <name> --seed <n> --seconds <s> --trace <0|1> --work-dir <dir> [--dataset-seed <n>]
  * Bench --selfcheck
  * }}}
  *
  * Prints progress on stderr and, as the last line of stdout, one JSON
  * object: `correct`, `attempted`, `failed` and `metrics` (end-to-end
  * metrics untraced, per-layer metrics traced). A traced run also writes
  * its spans to `<work-dir>/trace-<workload>-<seed>.json`.
  */
object Bench {
  private val SparkStarts = 3

  private def usage(msg: String): Nothing = {
    Console.err.println(s"perfbench: $msg")
    Console.err.println("usage: --workload <" + Workload.all.map(_.name).mkString("|") +
      "> --seed <n> --seconds <s> --trace <0|1> --work-dir <dir> [--dataset-seed <n>]  |  --selfcheck")
    sys.exit(2)
  }

  def main(args: Array[String]): Unit = {
    val mainAt = Jvm.sinceStartSecs
    if (args.sameElements(Seq("--selfcheck"))) selfCheck()
    val opts = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => usage(s"bad arguments ${other.mkString(" ")}")
    }.toMap
    def need(k: String): String = opts.getOrElse(k, usage(s"missing --$k"))
    val w = Workload.byName(need("workload")).getOrElse(usage(s"unknown workload ${need("workload")}"))
    val seed = need("seed").toLongOption.getOrElse(usage("--seed must be an integer"))
    val datasetSeed = opts.get("dataset-seed").map(_.toLongOption.getOrElse(usage("--dataset-seed must be an integer")))
      .getOrElse(Workload.DatasetSeed)
    val seconds = need("seconds").toIntOption.filter(_ >= 1).getOrElse(usage("--seconds must be ≥ 1"))
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case t => usage(s"--trace must be 0 or 1, not $t")
    }
    val workDir = new File(need("work-dir"))
    workDir.mkdirs()

    val t0 = System.nanoTime()
    val spark = session(workDir)
    val coldStart = (System.nanoTime() - t0) / 1e9
    val tracer = new Tracer(trace)
    val run =
      try new Runner(w, seed, datasetSeed, seconds, tracer, spark, mainAt, workDir).run()
      finally spark.stop()
    // Set-up time counts the median of three Spark starts: the cold one above
    // (it loads Spark's classes and alone varied from 3 to 12 s between runs
    // on a shared host) and two warm restarts. The restarts come after the
    // rounds: a stopped session's threads wind down for seconds, and freed
    // memory during set-up would move `retained_heap_mb`.
    val out = if (trace) run else {
      val starts = coldStart +: Seq.fill(SparkStarts - 1) {
        val t1 = System.nanoTime()
        val s = session(workDir)
        val secs = (System.nanoTime() - t1) / 1e9
        s.stop()
        secs
      }
      Console.err.println(s"[perfbench] Spark starts ${starts.map(x => f"$x%.2f").mkString(", ")} s")
      run.copy(metrics = run.metrics.map(m =>
        if (m.name == "setup_s") m.copy(value = m.value + Stats.median(starts)) else m))
    }
    if (trace) writeTrace(new File(workDir, s"trace-${w.name}-$seed.json"), w, seed, tracer, out)
    println(Json.obj(Seq(
      "correct" -> out.correct.toString,
      "attempted" -> out.attempted.toString,
      "failed" -> out.failed.toString,
      "metrics" -> Json.obj(out.metrics.map(m =>
        m.name -> Json.obj(Seq("value" -> Json.num(m.value), "unit" -> Json.str(m.unit))))))))
    sys.exit(0)
  }

  /** Local-mode Spark on at most four cores, with its scratch files kept in `workDir`. */
  private def session(workDir: File): SparkSession = {
    val cores = math.min(4, Runtime.getRuntime.availableProcessors)
    val s = SparkSession.builder
      .master(s"local[$cores]")
      .appName("rstore-perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", cores.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.local.dir", new File(workDir, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(workDir, "spark-warehouse").getAbsolutePath)
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  private def selfCheck(): Nothing = {
    val cases = SelfCheck.run()
    cases.foreach(c => Console.err.println(
      f"[selfcheck] ${c.name}%-24s attempted ${c.attempted}%5d failed ${c.failed}%5d  ${c.firstProblem}"))
    val ok = cases.head.failed == 0 && cases.tail.forall(_.failed > 0)
    println(Json.obj(Seq(
      "correct" -> ok.toString,
      "cases" -> Json.obj(cases.map(c => c.name -> Json.obj(Seq(
        "attempted" -> c.attempted.toString, "failed" -> c.failed.toString,
        "first_problem" -> Json.str(c.firstProblem))))))))
    sys.exit(if (ok) 0 else 1)
  }

  /** Spans, per-layer totals and self times, and the per-layer metrics. */
  private def writeTrace(f: File, w: Workload, seed: Long, tracer: Tracer, out: Outcome): Unit = {
    val spans = tracer.spans
    val origin = if (spans.isEmpty) 0L else spans.map(_.startNs).min
    val self = tracer.selfSecs
    val layers = spans.groupBy(_.name).toSeq.sortBy(_._1).map { case (name, rs) =>
      name -> Json.obj(Seq(
        "count" -> rs.size.toString,
        "total_s" -> Json.num(rs.map(_.secs).sum),
        "self_s" -> Json.num(rs.map(r => self(r.id)).sum),
        "gc_ms" -> rs.map(_.gcMs).sum.toString))
    }
    val spanJson = spans.map(r => Json.obj(Seq(
      "id" -> r.id.toString, "name" -> Json.str(r.name), "parent" -> r.parent.toString,
      "workload" -> Json.str(w.name), "rep" -> r.rep.toString,
      "start_s" -> Json.num((r.startNs - origin) / 1e9), "end_s" -> Json.num((r.endNs - origin) / 1e9),
      "gc_ms" -> r.gcMs.toString, "gc_count" -> r.gcCount.toString, "peak_heap_mb" -> Json.num(r.peakMb))))
    val pw = new PrintWriter(f, "UTF-8")
    try pw.println(Json.obj(Seq(
      "workload" -> Json.str(w.name), "seed" -> seed.toString,
      "metrics" -> Json.obj(out.metrics.map(m => m.name -> Json.num(m.value))),
      "layers" -> Json.obj(layers),
      "spans" -> Json.arr(spanJson))))
    finally pw.close()
    Console.err.println(s"[perfbench] trace written to ${f.getPath}")
  }
}
