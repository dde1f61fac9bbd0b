/**
 * @file
 * Artifact cache shared by benches, tests, and examples: datasets and
 * trained models are generated once (deterministically) and cached on
 * disk under `artifacts/` (override with CONCORDE_ARTIFACTS). A dataset
 * is `<name>_<samples>.bin`; a model is a ModelArtifact,
 * `artifact_<name>_<samples>x<epochs>.bin`, keyed by its training-set
 * size so that loading a cached model never touches the dataset. Files
 * are staged under uniqueTmpName and published by atomic rename. Sizes
 * are env-tunable so the full paper evaluation can be scaled up or down:
 *
 *   CONCORDE_TRAIN_SAMPLES      (default 24000)   main 16k-instr dataset
 *   CONCORDE_TEST_SAMPLES       (default 3000)
 *   CONCORDE_LONG_TRAIN_SAMPLES (default 6000)    64k-instr dataset
 *   CONCORDE_LONG_TEST_SAMPLES  (default 800)
 *   CONCORDE_SPEC_SAMPLES       (default 3000)    SPEC@N1 (TAO comparison)
 *   CONCORDE_EPOCHS             (default 60)
 */

#ifndef CONCORDE_CORE_ARTIFACTS_HH
#define CONCORDE_CORE_ARTIFACTS_HH

#include <string>

#include "core/concorde.hh"
#include "core/dataset.hh"
#include "core/model_artifact.hh"

namespace concorde
{
namespace artifacts
{

/** Artifact directory (created on demand). */
std::string dir();

/** Canonical feature configuration used by all shared artifacts. */
FeatureConfig featureConfig();

/** Canonical training configuration (epochs env-tunable). */
TrainConfig trainConfig();

/** Region lengths, in chunks: "100k-analogue" and "1M-analogue". */
constexpr uint32_t kShortRegionChunks = 8;   // 16,384 instructions
constexpr uint32_t kLongRegionChunks = 32;   // 65,536 instructions

// ---- datasets (memoized in memory, cached on disk) ----
const Dataset &mainTrain();
const Dataset &mainTest();
const Dataset &longTrain();
const Dataset &longTest();
/** SPEC programs at fixed ARM N1 (TAO's training/eval distribution). */
const Dataset &specN1Train();
const Dataset &specN1Test();
/** Per-program sample pool for the Figure-14 onboarding study. */
Dataset onboardPool(int program_id, size_t samples);

// ---- models (cached as ModelArtifacts) ----
/** Concorde trained with all feature groups on mainTrain(). */
const ModelArtifact &fullArtifact();
/** fullArtifact().model. */
const TrainedModel &fullModel();
/** Concorde trained on the long-region dataset. */
const TrainedModel &longModel();
/**
 * Ablation variants (Figure 12): name is "base" (primary + mispredict
 * rate + params) or "base_branch" (+ pipeline-stall features).
 */
const TrainedModel &ablationModel(const std::string &name);

/**
 * Train a model on an arbitrary dataset with the canonical config,
 * cached as `cache_name` keyed by data.size().
 */
TrainedModel trainOn(const Dataset &data, const std::string &cache_name,
                     const std::vector<uint8_t> *mask = nullptr,
                     const std::vector<float> *labels_override = nullptr);

/**
 * Deterministic untrained model over `config`'s feature layout: He-init
 * weights from `seed`, identity standardization, no mask. Exercises the
 * full prediction pipeline at the real per-request cost without any
 * training artifacts -- the smoke benches and the golden-reference
 * corpus are built on it.
 *
 * @param hidden hidden-layer widths ({192, 96} = the production layout)
 */
TrainedModel untrainedModel(const FeatureConfig &config, uint64_t seed,
                            const std::vector<size_t> &hidden = {192, 96});

/** Generate all shared artifacts up front (bench_00_prepare). */
void ensurePrepared();

// ---- env-tunable sizes ----
size_t trainSamples();
size_t testSamples();
size_t longTrainSamples();
size_t longTestSamples();
size_t specSamples();
size_t epochs();

/** The SPEC2017 program ids (S1..S10). */
const std::vector<int> &specPrograms();

} // namespace artifacts
} // namespace concorde

#endif // CONCORDE_CORE_ARTIFACTS_HH
