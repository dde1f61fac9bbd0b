/**
 * @file
 * Section 5.2.2 (second half): hyperparameter ablations. (a) ML model
 * size: one hidden layer vs the default two vs a bigger three-layer
 * model. (b) Window length k for the throughput distributions: the paper
 * found k in {100, 200, 400} makes little difference.
 *
 * The window-k sweep rebuilds features, so it uses reduced dataset sizes
 * (env-tunable via CONCORDE_K_SWEEP_SAMPLES, default 6000).
 */

#include <cstdlib>

#include "bench_util.hh"

using namespace concorde;

namespace
{

TrainedModel
cachedTrain(const Dataset &data, const std::string &name,
            const TrainConfig &config, const FeatureConfig &features)
{
    const std::string path = artifacts::dir() + "/artifact_" + name + "_"
        + std::to_string(data.size()) + "x"
        + std::to_string(config.epochs) + ".bin";
    if (fileExists(path))
        return ModelArtifact::load(path).model;
    ModelArtifact artifact;
    artifact.features = features;
    artifact.provenance.trainConfig = config;
    artifact.provenance.trainedEpochs = config.epochs;
    artifact.model = trainMlp(data.features, data.labels, data.dim, config);
    artifact.save(path);
    return artifact.model;
}

Dataset
cachedKDataset(const std::string &name, int window_k, size_t samples,
               uint64_t seed)
{
    const std::string path = artifacts::dir() + "/" + name + "_"
        + std::to_string(samples) + ".bin";
    if (fileExists(path))
        return Dataset::load(path);
    DatasetConfig config;
    config.numSamples = samples;
    config.regionChunks = artifacts::kShortRegionChunks;
    config.seed = seed;
    config.features = artifacts::featureConfig();
    config.features.windowK = window_k;
    Dataset data = buildDataset(config);
    const std::string tmp = uniqueTmpName(path);
    data.save(tmp);
    publishFile(tmp, path);
    return data;
}

} // anonymous namespace

int
main()
{
    std::printf("=== Section 5.2.2: hyperparameter ablations ===\n");

    // ---- (a) model size (on half the main set, to bound retrain cost)
    {
        const Dataset &full_train = artifacts::mainTrain();
        std::vector<size_t> half_idx(full_train.size() / 2);
        for (size_t i = 0; i < half_idx.size(); ++i)
            half_idx[i] = i;
        const Dataset train = full_train.subset(half_idx);
        const Dataset &test = artifacts::mainTest();
        struct Variant
        {
            const char *name;
            std::vector<size_t> hidden;
        };
        const std::vector<Variant> variants = {
            {"one hidden layer (256)", {256}},
            {"default (192, 96)", {192, 96}},
            {"bigger (384, 192, 96)", {384, 192, 96}},
        };
        std::printf("\n  model-size ablation (paper: 1x256 worse, "
                    "3-layer slightly better):\n");
        for (const auto &variant : variants) {
            TrainConfig config = artifacts::trainConfig();
            config.hiddenSizes = variant.hidden;
            const TrainedModel model = cachedTrain(
                train, std::string("hidden_")
                    + std::to_string(variant.hidden.size()) + "_"
                    + std::to_string(variant.hidden[0]), config,
                artifacts::featureConfig());
            const auto stats = benchutil::summarize(
                benchutil::relativeErrors(model, test));
            std::printf("    %-26s avg err %5.2f%%  >10%%: %5.2f%%\n",
                        variant.name, 100 * stats.mean,
                        100 * stats.fracAbove10pct);
        }
    }

    // ---- (b) window length k ----
    {
        const char *env = std::getenv("CONCORDE_K_SWEEP_SAMPLES");
        const size_t samples =
            env && *env ? static_cast<size_t>(std::atoll(env)) : 3000;
        std::printf("\n  window-length sweep (%zu-sample datasets; "
                    "paper: k in {100,200,400} all similar):\n", samples);
        for (int k : {100, 200, 400}) {
            const Dataset train = cachedKDataset(
                "ktrain_" + std::to_string(k), k, samples, 1700 + k);
            const Dataset test = cachedKDataset(
                "ktest_" + std::to_string(k), k, samples / 6, 2900 + k);
            FeatureConfig features = artifacts::featureConfig();
            features.windowK = k;
            const TrainedModel model =
                cachedTrain(train, "ksweep_" + std::to_string(k),
                            artifacts::trainConfig(), features);
            const auto stats = benchutil::summarize(
                benchutil::relativeErrors(model, test));
            std::printf("    k = %-4d  avg err %5.2f%%  >10%%: %5.2f%%\n",
                        k, 100 * stats.mean, 100 * stats.fracAbove10pct);
        }
    }
    return 0;
}
