package repro.core

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite

/** The wave schedule of [[Dataflow.waves]]: how each probe list is cut into
  * waves, whatever the grid and placement. */
class DataflowSpec extends AnyFunSuite {

  private def plan(nlist: Int, bVec: Int, bDim: Int, balanced: Boolean): PartitionPlan =
    PartitionPlan.build(bVec, bDim, dim = 8, Array.tabulate(nlist)(c => (c * 7 % 5 + 1).toDouble), balanced)

  /** Per query, the clusters of each wave that holds any of them (a set:
    * within a wave the clusters are grouped by shard). */
  private def perQuery(probes: Array[Array[Int]], nlist: Int, bVec: Int, bDim: Int,
                       cfg: HarmonyConfig): IndexedSeq[IndexedSeq[Set[Int]]] = {
    val ws = Dataflow.waves(probes, Array.fill(nlist)(3), plan(nlist, bVec, bDim, cfg.balancedLoad), cfg)
    probes.indices.map(qi => ws.map(_.filter(_.qIdx == qi).flatMap(_.clusters).toSet).filter(_.nonEmpty))
  }

  private def sizes(n: Int, maxWaves: Int): Seq[Int] =
    perQuery(Array(Array.range(0, n)), n, 1, 1, HarmonyConfig(maxWaves = maxWaves)).head.map(_.size)

  test("4 waves of a 16-cluster list take 1, 2, 4 and 9 clusters") {
    assert(sizes(16, 4) == Seq(1, 2, 4, 9))
  }

  test("4 waves of a 48-cluster list take 3, 6, 13 and 26 clusters") {
    assert(sizes(48, 4) == Seq(3, 6, 13, 26))
  }

  test("a list shorter than maxWaves takes one cluster per wave, and a list as long likewise") {
    assert(sizes(3, 4) == Seq(1, 1, 1))
    assert(sizes(4, 4) == Seq(1, 1, 1, 1))
    assert(sizes(5, 4) == Seq(1, 1, 1, 2))
  }

  private val caseGen: Gen[(Int, Int, Int, HarmonyConfig, Array[Array[Int]])] = for {
    nlist <- Gen.choose(1, 60)
    bVec <- Gen.choose(1, 3)
    bDim <- Gen.choose(1, 2)
    maxWaves <- Gen.choose(1, 8)
    pipeline <- Gen.oneOf(true, false)
    balanced <- Gen.oneOf(true, false)
    nQueries <- Gen.choose(1, 4)
    probes <- Gen.listOfN(nQueries, Gen.zip(Gen.choose(1, nlist), Gen.long).map { case (n, seed) =>
      new scala.util.Random(seed).shuffle((0 until nlist).toVector).take(n).toArray
    })
  } yield (nlist, bVec, bDim,
    HarmonyConfig(nNodes = bVec * bDim, maxWaves = maxWaves, pipeline = pipeline, balancedLoad = balanced),
    probes.toArray)

  test("each probe list is cut, in order, into non-empty waves: maxWaves of them, one per cluster when shorter, one with pipeline off") {
    val res = Check.check(Check.Parameters.default.withMinSuccessfulTests(500), Prop.forAll(caseGen) {
      case (nlist, bVec, bDim, cfg, probes) =>
        val got = perQuery(probes, nlist, bVec, bDim, cfg)
        probes.indices.forall { qi =>
          val list = probes(qi)
          val waves = got(qi)
          // the waves, concatenated, are the probe list in order
          val starts = waves.scanLeft(0)(_ + _.size)
          val inOrder = waves.indices.forall(w => list.slice(starts(w), starts(w + 1)).toSet == waves(w)) &&
            starts.last == list.length
          val shape =
            if (!cfg.pipeline) waves.length == 1
            else if (list.length >= cfg.maxWaves) waves.length == cfg.maxWaves
            else waves.forall(_.size == 1)
          inOrder && shape
        }
    })
    assert(res.passed, Pretty.pretty(res))
  }

  test("every batch starts at slice 0 without balanced load or with one slice; with it, each shard's first-stage rows differ across its slices by at most its largest batch of the wave") {
    val wideGen = caseGen.flatMap { case (nlist, bVec, _, cfg, probes) =>
      Gen.choose(1, 4).map(bDim => (nlist, bVec, bDim, cfg.copy(nNodes = bVec * bDim), probes))
    }
    val res = Check.check(Check.Parameters.default.withMinSuccessfulTests(500), Prop.forAll(wideGen) {
      case (nlist, bVec, bDim, cfg, probes) =>
        val sizes = Array.tabulate(nlist)(c => c % 5 + 1)
        val ws = Dataflow.waves(probes, sizes, plan(nlist, bVec, bDim, cfg.balancedLoad), cfg)
        if (!cfg.balancedLoad || bDim == 1) ws.forall(_.forall(_.firstSlice == 0))
        else ws.forall(_.groupBy(_.shard).values.forall { batches =>
          val rows = new Array[Long](bDim)
          batches.foreach(b => rows(b.firstSlice) += b.nRows)
          rows.max - rows.min <= batches.map(_.nRows).max
        })
    })
    assert(res.passed, Pretty.pretty(res))
  }
}
