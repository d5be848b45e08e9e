package repro.vectors

import scala.collection.concurrent.TrieMap

/** Registry of the paper's ten evaluation datasets (Table 2) mapped to
  * scaled synthetic stand-ins (see DESIGN.md → Substitutions).
  *
  * Scaling: base sizes 20k–120k instead of 0.8M–1B, query sets 64–200
  * instead of 370–10k. Relative ordering of sizes and dimensions across
  * datasets is preserved, as is the energy-decay class that governs
  * pruning behaviour (time series ≫ image/audio ≫ text).
  */
object Datasets {

  val starLightCurves: GenConfig = GenConfig(
    name = "StarLightCurves", n = 40000, dim = 256, nQueries = 100,
    decayRate = 8.0, radiusSpread = 1.0, dataType = "Time Series",
    paperSize = 823600L, paperDim = 1024, paperQueries = 1000, seed = 101)

  val msong: GenConfig = GenConfig(
    name = "Msong", n = 50000, dim = 144, nQueries = 100,
    decayRate = 0.9, radiusSpread = 0.85, dataType = "Audio",
    paperSize = 992272L, paperDim = 420, paperQueries = 1000, seed = 102)

  val sift1m: GenConfig = GenConfig(
    name = "Sift1M", n = 50000, dim = 128, nQueries = 200,
    decayRate = 0.8, radiusSpread = 0.85, dataType = "Image",
    paperSize = 1000000L, paperDim = 128, paperQueries = 10000, seed = 103)

  val deep1m: GenConfig = GenConfig(
    name = "Deep1M", n = 50000, dim = 96, nQueries = 100,
    decayRate = 0.6, radiusSpread = 0.8, normalize = true, dataType = "Image",
    paperSize = 1000000L, paperDim = 256, paperQueries = 1000, seed = 104)

  val word2vec: GenConfig = GenConfig(
    name = "Word2vec", n = 50000, dim = 100, nQueries = 100,
    decayRate = 0.5, radiusSpread = 0.7, dataType = "Word Vectors",
    paperSize = 1000000L, paperDim = 300, paperQueries = 1000, seed = 105)

  val handOutlines: GenConfig = GenConfig(
    name = "HandOutlines", n = 20000, dim = 512, nQueries = 64,
    decayRate = 6.0, radiusSpread = 1.0, dataType = "Time Series",
    paperSize = 1000000L, paperDim = 2709, paperQueries = 370, seed = 106)

  val glove1_2m: GenConfig = GenConfig(
    name = "Glove1.2m", n = 60000, dim = 100, nQueries = 100,
    decayRate = 0.15, radiusSpread = 0.35, dataType = "Text",
    paperSize = 1193514L, paperDim = 200, paperQueries = 1000, seed = 107)

  val glove2_2m: GenConfig = GenConfig(
    name = "Glove2.2m", n = 80000, dim = 120, nQueries = 100,
    decayRate = 0.15, radiusSpread = 0.35, dataType = "Text",
    paperSize = 2196017L, paperDim = 300, paperQueries = 1000, seed = 108)

  val spacev1b: GenConfig = GenConfig(
    name = "SpaceV1B", n = 120000, dim = 100, nQueries = 200,
    decayRate = 0.5, radiusSpread = 0.7, dataType = "Text",
    paperSize = 1000000000L, paperDim = 100, paperQueries = 10000, seed = 109)

  val sift1b: GenConfig = GenConfig(
    name = "Sift1B", n = 120000, dim = 128, nQueries = 200,
    decayRate = 0.8, radiusSpread = 0.85, dataType = "Image",
    paperSize = 1000000000L, paperDim = 128, paperQueries = 10000, seed = 110)

  /** The eight "relatively small" datasets used in §6.2.2–§6.5 (the paper
    * drops the two billion-scale sets for 4-node experiments). */
  val small8: Seq[GenConfig] = Seq(
    starLightCurves, msong, sift1m, deep1m, word2vec, handOutlines, glove1_2m, glove2_2m)

  /** The two billion-scale stand-ins, searched with 16 simulated nodes. */
  val big2: Seq[GenConfig] = Seq(spacev1b, sift1b)

  val all: Seq[GenConfig] = small8 ++ big2

  private val cache = TrieMap.empty[String, VectorDataset]

  /** Materialize (and memoize) a dataset. */
  def load(cfg: GenConfig): VectorDataset =
    cache.getOrElseUpdate(cfg.name + "#" + cfg.hashCode, VectorGen.generate(cfg))

  /** Drop memoized datasets (tests that measure memory call this). */
  def clearCache(): Unit = cache.clear()
}
