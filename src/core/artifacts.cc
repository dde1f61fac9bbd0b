#include "core/artifacts.hh"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <map>
#include <mutex>

#include "common/logging.hh"
#include "common/stopwatch.hh"

namespace concorde
{
namespace artifacts
{

namespace
{

size_t
envSize(const char *name, size_t fallback)
{
    const char *value = std::getenv(name);
    if (!value || !*value)
        return fallback;
    const long long parsed = std::atoll(value);
    return parsed > 0 ? static_cast<size_t>(parsed) : fallback;
}

std::mutex &
artifactMutex()
{
    static std::mutex m;
    return m;
}

/** Load-or-build a dataset cached on disk. */
Dataset
cachedDataset(const std::string &name, const DatasetConfig &config)
{
    const std::string path = dir() + "/" + name + "_"
        + std::to_string(config.numSamples) + ".bin";
    if (fileExists(path))
        return Dataset::load(path);
    inform("building dataset '%s' (%zu samples, %u-chunk regions)...",
           name.c_str(), config.numSamples, config.regionChunks);
    Stopwatch timer;
    Dataset data = buildDataset(config);
    inform("dataset '%s' built in %.1fs", name.c_str(), timer.seconds());
    reclaimStagingDebris(path);
    const std::string tmp = uniqueTmpName(path);
    data.save(tmp);
    publishFile(tmp, path);
    return data;
}

/**
 * Load-or-train the model cached as `name`: a ModelArtifact at
 * `artifact_<name>_<samples>x<epochs>.bin` recording featureConfig()
 * and trainConfig(). `data` (a `samples`-sample training set) is called
 * only on a miss, so a cached model never reads or builds its dataset.
 */
ModelArtifact
cachedModel(const std::string &name, size_t samples,
            const std::function<const Dataset &()> &data,
            const std::vector<uint8_t> *mask = nullptr,
            const std::vector<float> *labels_override = nullptr)
{
    const std::string path = dir() + "/artifact_" + name + "_"
        + std::to_string(samples) + "x" + std::to_string(epochs())
        + ".bin";
    if (fileExists(path))
        return ModelArtifact::load(path);
    const Dataset &train = data();
    inform("training model '%s' on %zu samples...", name.c_str(),
           train.size());
    Stopwatch timer;
    const auto &labels = labels_override ? *labels_override : train.labels;
    ModelArtifact artifact;
    artifact.features = featureConfig();
    artifact.provenance.trainConfig = trainConfig();
    artifact.provenance.trainedEpochs = epochs();
    artifact.provenance.gitDescribe = buildGitDescribe();
    artifact.model = trainMlp(train.features, labels, train.dim,
                              artifact.provenance.trainConfig, mask);
    inform("model '%s' trained in %.1fs (train rel-err %.4f)",
           name.c_str(), timer.seconds(),
           artifact.model.meanRelativeError(train.features, labels,
                                            train.dim));
    reclaimStagingDebris(path);
    artifact.save(path);
    return artifact;
}

} // anonymous namespace

std::string
dir()
{
    const char *override_dir = std::getenv("CONCORDE_ARTIFACTS");
    static const std::string path =
        override_dir && *override_dir ? override_dir : "artifacts";
    ensureDir(path);
    return path;
}

size_t trainSamples() { return envSize("CONCORDE_TRAIN_SAMPLES", 24000); }
size_t testSamples() { return envSize("CONCORDE_TEST_SAMPLES", 3000); }
size_t
longTrainSamples()
{
    return envSize("CONCORDE_LONG_TRAIN_SAMPLES", 16000);
}
size_t
longTestSamples()
{
    return envSize("CONCORDE_LONG_TEST_SAMPLES", 1200);
}
size_t specSamples() { return envSize("CONCORDE_SPEC_SAMPLES", 3000); }
size_t epochs() { return envSize("CONCORDE_EPOCHS", 60); }

FeatureConfig
featureConfig()
{
    return FeatureConfig{};
}

TrainConfig
trainConfig()
{
    TrainConfig config;
    config.epochs = epochs();
    return config;
}

const std::vector<int> &
specPrograms()
{
    static const std::vector<int> programs = [] {
        std::vector<int> ids;
        for (int i = 1; i <= 10; ++i) {
            const int id = programIdByCode("S" + std::to_string(i));
            panic_if(id < 0, "SPEC program S%d missing from corpus", i);
            ids.push_back(id);
        }
        return ids;
    }();
    return programs;
}

const Dataset &
mainTrain()
{
    std::lock_guard<std::mutex> lock(artifactMutex());
    static const Dataset data = [] {
        DatasetConfig config;
        config.numSamples = trainSamples();
        config.regionChunks = kShortRegionChunks;
        config.seed = 1001;
        config.features = featureConfig();
        return cachedDataset("train_main", config);
    }();
    return data;
}

const Dataset &
mainTest()
{
    std::lock_guard<std::mutex> lock(artifactMutex());
    static const Dataset data = [] {
        DatasetConfig config;
        config.numSamples = testSamples();
        config.regionChunks = kShortRegionChunks;
        config.seed = 2002;
        config.features = featureConfig();
        return cachedDataset("test_main", config);
    }();
    return data;
}

const Dataset &
longTrain()
{
    std::lock_guard<std::mutex> lock(artifactMutex());
    static const Dataset data = [] {
        DatasetConfig config;
        config.numSamples = longTrainSamples();
        config.regionChunks = kLongRegionChunks;
        config.seed = 3003;
        config.features = featureConfig();
        return cachedDataset("train_long", config);
    }();
    return data;
}

const Dataset &
longTest()
{
    std::lock_guard<std::mutex> lock(artifactMutex());
    static const Dataset data = [] {
        DatasetConfig config;
        config.numSamples = longTestSamples();
        config.regionChunks = kLongRegionChunks;
        config.seed = 4004;
        config.features = featureConfig();
        return cachedDataset("test_long", config);
    }();
    return data;
}

const Dataset &
specN1Train()
{
    std::lock_guard<std::mutex> lock(artifactMutex());
    static const Dataset data = [] {
        DatasetConfig config;
        config.numSamples = specSamples();
        config.regionChunks = kShortRegionChunks;
        config.seed = 5005;
        config.features = featureConfig();
        config.useFixedUarch = true;
        config.fixedUarch = UarchParams::armN1();
        config.programFilter = specPrograms();
        return cachedDataset("train_spec_n1", config);
    }();
    return data;
}

const Dataset &
specN1Test()
{
    std::lock_guard<std::mutex> lock(artifactMutex());
    static const Dataset data = [] {
        DatasetConfig config;
        config.numSamples = std::max<size_t>(specSamples() / 4, 200);
        config.regionChunks = kShortRegionChunks;
        config.seed = 6006;
        config.features = featureConfig();
        config.useFixedUarch = true;
        config.fixedUarch = UarchParams::armN1();
        config.programFilter = specPrograms();
        return cachedDataset("test_spec_n1", config);
    }();
    return data;
}

Dataset
onboardPool(int program_id, size_t samples)
{
    DatasetConfig config;
    config.numSamples = samples;
    config.regionChunks = kShortRegionChunks;
    config.seed = 7007 + static_cast<uint64_t>(program_id) * 131;
    config.features = featureConfig();
    config.programFilter = {program_id};
    return cachedDataset(
        "onboard_p" + std::to_string(program_id), config);
}

TrainedModel
trainOn(const Dataset &data, const std::string &cache_name,
        const std::vector<uint8_t> *mask,
        const std::vector<float> *labels_override)
{
    const auto dataset = [&data]() -> const Dataset & { return data; };
    return cachedModel(cache_name, data.size(), dataset, mask,
                       labels_override).model;
}

TrainedModel
untrainedModel(const FeatureConfig &config, uint64_t seed,
               const std::vector<size_t> &hidden)
{
    const FeatureLayout layout(config);
    std::vector<size_t> sizes;
    sizes.reserve(hidden.size() + 2);
    sizes.push_back(layout.dim());
    sizes.insert(sizes.end(), hidden.begin(), hidden.end());
    sizes.push_back(1);
    Mlp net(std::move(sizes), seed);
    std::vector<float> mean(layout.dim(), 0.0f);
    std::vector<float> stdev(layout.dim(), 1.0f);
    return TrainedModel(std::move(net), std::move(mean), std::move(stdev),
                        {});
}

const ModelArtifact &
fullArtifact()
{
    static const ModelArtifact artifact =
        cachedModel("full", trainSamples(), mainTrain);
    return artifact;
}

const TrainedModel &
fullModel()
{
    return fullArtifact().model;
}

const TrainedModel &
longModel()
{
    static const ModelArtifact artifact =
        cachedModel("long", longTrainSamples(), longTrain);
    return artifact.model;
}

const TrainedModel &
ablationModel(const std::string &name)
{
    const FeatureLayout layout(featureConfig());
    static std::map<std::string, TrainedModel> cache;
    static std::mutex mutex;
    std::lock_guard<std::mutex> lock(mutex);
    auto it = cache.find(name);
    if (it != cache.end())
        return it->second;

    std::vector<FeatureGroup> groups;
    if (name == "base") {
        groups = {FeatureGroup::Primary, FeatureGroup::MispredRate,
                  FeatureGroup::Params};
    } else if (name == "base_branch") {
        groups = {FeatureGroup::Primary, FeatureGroup::MispredRate,
                  FeatureGroup::Stalls, FeatureGroup::Params};
    } else {
        fatal("unknown ablation '%s'", name.c_str());
    }
    const auto mask = layout.maskFor(groups);
    auto [pos, inserted] = cache.emplace(
        name, cachedModel("ablation_" + name, trainSamples(), mainTrain,
                          &mask).model);
    return pos->second;
}

void
ensurePrepared()
{
    mainTrain();
    mainTest();
    fullModel();
    longTrain();
    longTest();
    longModel();
    specN1Train();
    specN1Test();
    ablationModel("base");
    ablationModel("base_branch");
}

} // namespace artifacts
} // namespace concorde
