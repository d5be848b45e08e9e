package repro

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.{TestFixtures => F}
import repro.core.{Harmony, HarmonyConfig, Mode}
import repro.linalg.{TopK, VecOps}

/** DuckDB-oracle checks: query results produced by our substrates (cluster
  * assignment, distance computation, exact top-K, and the distributed
  * engine itself) are validated against independent SQL evaluation.
  */
class OracleChecksSpec extends SparkSpec {

  import spark.implicits._

  private val ds = F.small
  private lazy val (idx, _) = F.index(spark, ds)

  private val nSub = 120 // vectors used in exploded-form oracle checks
  private val dSub = 16  // leading dims used in exploded-form oracle checks

  private lazy val pointsDf: DataFrame = {
    val rows = for (i <- 0 until nSub; j <- 0 until dSub)
      yield (i.toLong, j, ds.data(i)(j).toDouble)
    rows.toDF("vid", "d", "v")
  }

  private lazy val queriesDf: DataFrame = {
    val rows = for (q <- 0 until 4; j <- 0 until dSub)
      yield (q, j, ds.queries(q)(j).toDouble)
    rows.toDF("qid", "d", "qv")
  }

  test("cluster assignment histogram matches DuckDB aggregation") {
    val assignDf = (0 until idx.nlist)
      .flatMap(c => idx.listIds(c).map(id => (id, c)))
      .toDF("id", "cluster")
    val sparkAgg = assignDf.groupBy($"cluster").agg(count(lit(1)).as("cnt"))
      .select($"cluster", $"cnt")
    Oracle.assertEquivalent(sparkAgg,
      "SELECT cluster, COUNT(*) AS cnt FROM assign GROUP BY cluster",
      "assign" -> assignDf)
  }

  test("per-cluster id extremes match DuckDB") {
    val assignDf = (0 until idx.nlist)
      .flatMap(c => idx.listIds(c).map(id => (id, c)))
      .toDF("id", "cluster")
    val sparkAgg = assignDf.groupBy($"cluster")
      .agg(min($"id".cast("long")).as("min_id"), max($"id".cast("long")).as("max_id"))
      .select($"cluster", $"min_id", $"max_id")
    Oracle.assertEquivalent(sparkAgg,
      """SELECT cluster, MIN(CAST(id AS BIGINT)) AS min_id, MAX(CAST(id AS BIGINT)) AS max_id
         FROM assign GROUP BY cluster""",
      "assign" -> assignDf)
  }

  test("exploded squared-L2 distances match DuckDB SQL") {
    val sparkDist = pointsDf.join(queriesDf, "d")
      .groupBy($"qid", $"vid")
      .agg(sum(($"v" - $"qv") * ($"v" - $"qv")).as("dist"))
      .select($"qid", $"vid", $"dist")
    Oracle.assertEquivalent(sparkDist,
      """SELECT q.qid AS qid, p.vid AS vid,
                SUM((CAST(p.v AS DOUBLE) - CAST(q.qv AS DOUBLE)) *
                    (CAST(p.v AS DOUBLE) - CAST(q.qv AS DOUBLE))) AS dist
         FROM points p JOIN qs q ON p.d = q.d
         GROUP BY q.qid, p.vid""",
      "points" -> pointsDf, "qs" -> queriesDf)
  }

  test("VecOps distances agree with SQL-computed distances") {
    val sparkDist = (for (q <- 0 until 4; i <- 0 until nSub) yield {
      val dist = VecOps.l2PartialAt(ds.queries(q), 0, ds.data(i), 0, dSub)
      (q, i.toLong, dist)
    }).toDF("qid", "vid", "dist")
    Oracle.assertEquivalent(sparkDist,
      """SELECT q.qid AS qid, p.vid AS vid,
                SUM((CAST(p.v AS DOUBLE) - CAST(q.qv AS DOUBLE)) *
                    (CAST(p.v AS DOUBLE) - CAST(q.qv AS DOUBLE))) AS dist
         FROM points p JOIN qs q ON p.d = q.d
         GROUP BY q.qid, p.vid""",
      "points" -> pointsDf, "qs" -> queriesDf)
  }

  test("brute-force ground truth matches DuckDB window-ranked top-3") {
    val subIds = ds.ids.take(nSub)
    val subData = ds.data.take(nSub)
    val distRows = for (q <- 0 until 4; i <- 0 until nSub)
      yield (q, i.toLong, VecOps.l2(ds.queries(q), ds.data(i)))
    val distDf = distRows.toDF("qid", "vid", "dist")
    val sparkTop = (0 until 4).flatMap { q =>
      TopK.bruteForce(ds.queries(q), subIds, subData, 3).zipWithIndex.map {
        case (h, r) => (q, h.id, r + 1L)
      }
    }.toDF("qid", "vid", "rnk")
    Oracle.assertEquivalent(sparkTop,
      """SELECT qid, vid, rnk FROM (
           SELECT qid, vid,
                  ROW_NUMBER() OVER (PARTITION BY qid
                    ORDER BY CAST(dist AS DOUBLE), CAST(vid AS BIGINT)) AS rnk
           FROM dists)
         WHERE rnk <= 3""",
      "dists" -> distDf)
  }

  test("distributed Harmony top-K matches DuckDB over full distance table") {
    // exhaustive nprobe = nlist so the engine's answer is the exact top-k —
    // then the oracle ranks the full distance table independently.
    val nQ = 3
    val queries = ds.queries.take(nQ)
    val sys = Harmony.deploy(spark, idx,
      HarmonyConfig(nNodes = 4, mode = Mode.Harmony, k = 5, nprobe = idx.nlist),
      workloadSample = queries)
    try {
      val res = sys.search(queries)
      val sparkTop = (0 until nQ).flatMap { q =>
        res.hits(q).zipWithIndex.map { case (h, r) => (q, h.id, r + 1L) }
      }.toDF("qid", "vid", "rnk")
      val distRows = for (q <- 0 until nQ; i <- 0 until ds.n)
        yield (q, i.toLong, VecOps.l2(queries(q), ds.data(i)))
      val distDf = distRows.toDF("qid", "vid", "dist")
      Oracle.assertEquivalent(sparkTop,
        """SELECT qid, vid, rnk FROM (
             SELECT qid, vid,
                    ROW_NUMBER() OVER (PARTITION BY qid
                      ORDER BY CAST(dist AS DOUBLE), CAST(vid AS BIGINT)) AS rnk
             FROM dists)
           WHERE rnk <= 5""",
        "dists" -> distDf)
    } finally sys.shutdown()
  }
}
