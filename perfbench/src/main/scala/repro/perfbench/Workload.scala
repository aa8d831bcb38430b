package repro.perfbench

import repro.data.DatasetSpec

/** Operations of one timed round. Every round runs all of them, so every
  * run reports every metric; the counts set where a workload's time goes.
  * The `ingests` of a round are timed as one region.
  */
final case class Round(layouts: Int, ingests: Int, shingles: Int,
                       q1: Int, q2: Int, q3: Int, points: Int)

/** One benchmark workload: a dataset shape, the Spark slice and the round
  * mix. The history is generated from [[Workload.DatasetSeed]] (unless
  * another is given on the command line); the query stream from the run's
  * seed. A fixed history keeps the layout figures comparable from run to
  * run; layout-quality metrics then repeat exactly.
  *
  * @param sliceVersions versions of the history prefix that the Spark
  *                      paths (SHINGLE, Parquet) run on
  */
final case class Workload(
    name: String,
    shape: Long => DatasetSpec,
    sliceVersions: Int,
    round: Round,
)

object Workload {
  /** Chunk capacity: the scaled analogue of the paper's 1 MB chunk. */
  val Capacity: Long = 32 * 1024
  /** Nodes of the simulated KVS. */
  val Nodes: Int = 4
  /** Sub-chunk size k (records per sub-chunk, §3.4). */
  val K: Int = 10
  /** Versions per online-ingest batch. */
  val IngestBatch: Int = 100
  /** Seed of the generated history, the same in every run. */
  val DatasetSeed: Long = 42L

  /** C0-shaped (bushy, 10 % uniform updates) at ×2 versions and ×2
    * records per version of the bench C0 spec: 1.6 M membership rows. The
    * layout pipeline and the index build take most of the time.
    */
  val offlineScaleup: Workload = Workload("offline-scaleup",
    seed => DatasetSpec("offline-scaleup", 2000, 800, 0.10, skewed = false, numBranches = 240, seed = seed),
    sliceVersions = 250,
    Round(layouts = 1, ingests = 2, shingles = 1, q1 = 5000, q2 = 1000, q3 = 20000, points = 5000))

  /** Fig 11's bench-scale C0 (1 000 versions × 400 records, 120 branches),
    * laid out once; SHINGLE on Spark and the query path take most of the time.
    */
  val queryServe: Workload = Workload("query-serve",
    seed => DatasetSpec("query-serve", 1000, 400, 0.10, skewed = false, numBranches = 120, seed = seed),
    sliceVersions = 1000,
    Round(layouts = 2, ingests = 3, shingles = 1, q1 = 5000, q2 = 1000, q3 = 20000, points = 5000))

  val all: Seq[Workload] = Seq(offlineScaleup, queryServe)

  def byName(n: String): Option[Workload] = all.find(_.name == n)
}
