#include "core/dataset.hh"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <tuple>

#include "analysis/analysis_store.hh"
#include "common/logging.hh"
#include "common/serialize.hh"
#include "common/thread_pool.hh"
#include "sim/o3_core.hh"

namespace concorde
{

namespace
{

/** Versioned field-wise format: "CNCDAT02" little-endian. */
constexpr uint64_t kDatasetMagicV2 = 0x3230544144434e43ULL;
constexpr uint32_t kDatasetVersion = 2;

void
saveSampleMeta(BinaryWriter &out, const SampleMeta &meta)
{
    out.put<int32_t>(meta.region.programId);
    out.put<int32_t>(meta.region.traceId);
    out.put<uint64_t>(meta.region.startChunk);
    out.put<uint32_t>(meta.region.numChunks);
    meta.params.save(out);
    out.put<float>(meta.cpi);
    out.put<float>(meta.avgRobOcc);
    out.put<float>(meta.avgRenameOcc);
    out.put<uint32_t>(meta.mispredicts);
    out.put<float>(meta.execRatio);
}

SampleMeta
loadSampleMeta(BinaryReader &in)
{
    SampleMeta meta;
    meta.region.programId = in.get<int32_t>();
    meta.region.traceId = in.get<int32_t>();
    meta.region.startChunk = in.get<uint64_t>();
    meta.region.numChunks = in.get<uint32_t>();
    meta.params = UarchParams::load(in);
    meta.cpi = in.get<float>();
    meta.avgRobOcc = in.get<float>();
    meta.avgRenameOcc = in.get<float>();
    meta.mispredicts = in.get<uint32_t>();
    meta.execRatio = in.get<float>();
    return meta;
}

/**
 * Serial spec pass: draw every (region, microarchitecture) pair with one
 * RNG stream. A sample's spec depends only on (config, sample index), so
 * sharded, resumed, and monolithic builds all see identical specs.
 */
std::vector<SampleMeta>
drawSpecs(const DatasetConfig &config)
{
    Rng rng(hashMix(config.seed, 0xDA7A5E7ULL));
    std::vector<SampleMeta> specs(config.numSamples);
    for (auto &meta : specs) {
        if (config.programFilter.empty()) {
            meta.region = sampleRegion(rng, config.regionChunks);
        } else {
            const int program = config.programFilter[rng.nextBounded(
                config.programFilter.size())];
            meta.region = sampleRegionFromProgram(rng, program,
                                                  config.regionChunks);
        }
        meta.params = config.useFixedUarch ? config.fixedUarch
                                           : UarchParams::sampleRandom(rng);
    }
    return specs;
}

/**
 * Label one drawn sample through a caller-owned provider: features +
 * simulator ground truth. Every output is a pure function of
 * (meta.region, meta.params, config.features), so sharing the provider
 * (and its memo caches) across samples of one region is bitwise-neutral.
 */
void
labelSample(FeatureProvider &provider, SampleMeta &meta,
            std::vector<float> &row, float *feature_row, float &label,
            SimScratch &sim_scratch)
{
    // Features, assembled into a reused scratch row.
    row.clear();
    provider.assemble(meta.params, row);
    std::copy(row.begin(), row.end(), feature_row);

    // Ground-truth label from the cycle-level simulator, run through the
    // caller's reusable scratch (bitwise-identical to a fresh engine).
    const SimResult sim =
        simulateRegion(meta.params, provider.analysis(), 0, &sim_scratch);
    meta.cpi = static_cast<float>(sim.cpi());
    meta.avgRobOcc = static_cast<float>(sim.avgRobOccupancy);
    meta.avgRenameOcc = static_cast<float>(sim.avgRenameQOccupancy);
    meta.mispredicts = static_cast<uint32_t>(sim.branchMispredicts);

    // Figure 11 diagnostic: actual vs trace-analysis load time. The
    // estimate depends only on (region, d-side config); the provider
    // memoizes the sum.
    const uint64_t estimated =
        provider.estimatedLoadLatencySum(meta.params.memory);
    meta.execRatio = estimated > 0
        ? static_cast<float>(
            static_cast<double>(sim.actualLoadLatencySum)
            / static_cast<double>(estimated))
        : 1.0f;

    label = meta.cpi;
}

/**
 * Residency bound of a dataset build's AnalysisStore. Bulk generation
 * visits mostly-unique regions, so a large cache would pay RSS churn
 * for entries it never revisits (measured as a net slowdown on the CI
 * box when generation ran against the big global store) -- the store
 * here exists to dedup repeated regions, and a couple dozen resident
 * entries cover that.
 */
constexpr uint64_t kDatasetStoreResidentInstructions = 512u << 10;

/**
 * Label the spec range [begin, end) into a standalone Dataset.
 *
 * Samples are grouped by region, and each group is labeled through one
 * AnalysisStore-backed FeatureProvider: trace generation, warmup replay,
 * and the per-configuration trace analyses run once per region instead
 * of once per sample, and the provider's analytical-model memo caches
 * are shared across the group's design points. Grouping reorders *work*
 * only -- each sample's bytes land at its own (config, index) slot, so
 * shard content is unchanged (pinned by test_analysis_store).
 */
Dataset
labelRange(const DatasetConfig &config, const FeatureLayout &layout,
           const std::vector<SampleMeta> &specs, size_t begin, size_t end,
           AnalysisStore &store)
{
    const size_t count = end - begin;
    Dataset data;
    data.dim = layout.dim();
    data.features.assign(count * layout.dim(), 0.0f);
    data.labels.assign(count, 0.0f);
    data.meta.assign(specs.begin() + begin, specs.begin() + end);

    // Group sample indices by exact region identity (deterministic map
    // order, though output placement makes order irrelevant).
    using RegionKey = std::tuple<int, int, uint64_t, uint32_t>;
    std::map<RegionKey, std::vector<size_t>> groups;
    for (size_t s = 0; s < count; ++s) {
        const RegionSpec &r = data.meta[s].region;
        groups[{r.programId, r.traceId, r.startChunk, r.numChunks}]
            .push_back(s);
    }
    std::vector<const std::vector<size_t> *> group_list;
    group_list.reserve(groups.size());
    for (const auto &[key, members] : groups)
        group_list.push_back(&members);

    // parallelShards (not parallelFor) so each worker carries ONE
    // simulator scratch across every group it labels: the whole shard's
    // ground-truth simulation reuses a single allocation set.
    parallelShards(group_list.size(), [&](size_t, size_t gbegin,
                                          size_t gend) {
        SimScratch sim_scratch;
        std::vector<float> row;
        row.reserve(layout.dim());
        for (size_t g = gbegin; g < gend; ++g) {
            const std::vector<size_t> &members = *group_list[g];
            FeatureProvider provider(
                store.acquire(data.meta[members.front()].region),
                config.features);
            for (size_t s : members) {
                labelSample(provider, data.meta[s], row,
                            data.features.data() + s * layout.dim(),
                            data.labels[s], sim_scratch);
            }
        }
    }, config.threads);
    return data;
}

} // anonymous namespace

std::vector<float>
Dataset::robOccLabels() const
{
    std::vector<float> out(meta.size());
    for (size_t i = 0; i < meta.size(); ++i)
        out[i] = meta[i].avgRobOcc;
    return out;
}

std::vector<float>
Dataset::renameOccLabels() const
{
    std::vector<float> out(meta.size());
    for (size_t i = 0; i < meta.size(); ++i)
        out[i] = meta[i].avgRenameOcc;
    return out;
}

Dataset
Dataset::subset(const std::vector<size_t> &indices) const
{
    Dataset out;
    out.dim = dim;
    out.features.reserve(indices.size() * dim);
    out.labels.reserve(indices.size());
    out.meta.reserve(indices.size());
    for (size_t i : indices) {
        panic_if(i >= size(), "subset index out of range");
        out.features.insert(out.features.end(), row(i), row(i) + dim);
        out.labels.push_back(labels[i]);
        out.meta.push_back(meta[i]);
    }
    return out;
}

void
Dataset::append(const Dataset &other)
{
    if (size() == 0 && dim == 0)
        dim = other.dim;
    panic_if(other.dim != dim, "appending dataset of dim %zu to dim %zu",
             other.dim, dim);
    // Pre-reserve so repeated appends (shard concatenation) grow each
    // vector at most once per call instead of reallocating mid-insert.
    features.reserve(features.size() + other.features.size());
    labels.reserve(labels.size() + other.labels.size());
    meta.reserve(meta.size() + other.meta.size());
    features.insert(features.end(), other.features.begin(),
                    other.features.end());
    labels.insert(labels.end(), other.labels.begin(), other.labels.end());
    meta.insert(meta.end(), other.meta.begin(), other.meta.end());
}

void
Dataset::save(const std::string &path) const
{
    BinaryWriter out(path);
    out.put<uint64_t>(kDatasetMagicV2);
    out.put<uint32_t>(kDatasetVersion);
    out.put<uint64_t>(dim);
    out.putVector(features);
    out.putVector(labels);
    out.put<uint64_t>(meta.size());
    for (const auto &sample : meta)
        saveSampleMeta(out, sample);
}

Dataset
Dataset::load(const std::string &path)
{
    BinaryReader in(path);
    fatal_if(in.get<uint64_t>() != kDatasetMagicV2,
             "'%s' is not a Concorde dataset", path.c_str());
    const uint32_t version = in.get<uint32_t>();
    fatal_if(version != kDatasetVersion,
             "'%s': unsupported dataset version %u", path.c_str(), version);
    Dataset data;
    data.dim = in.get<uint64_t>();
    data.features = in.getVector<float>();
    data.labels = in.getVector<float>();
    const uint64_t count = in.get<uint64_t>();
    data.meta.reserve(count);
    for (uint64_t i = 0; i < count; ++i)
        data.meta.push_back(loadSampleMeta(in));
    return data;
}

Dataset
buildDataset(const DatasetConfig &config)
{
    const FeatureLayout layout(config.features);
    AnalysisStore store(kDatasetStoreResidentInstructions);
    return labelRange(config, layout, drawSpecs(config), 0,
                      config.numSamples, store);
}

// ---- sharded generation ----

size_t
DatasetManifest::numShards() const
{
    panic_if(shardSamples == 0, "manifest with zero-sample shards");
    return static_cast<size_t>(
        (numSamples + shardSamples - 1) / shardSamples);
}

size_t
DatasetManifest::shardBegin(size_t shard) const
{
    return static_cast<size_t>(shard * shardSamples);
}

size_t
DatasetManifest::shardEnd(size_t shard) const
{
    return static_cast<size_t>(
        std::min<uint64_t>(numSamples, (shard + 1) * shardSamples));
}

std::string
DatasetManifest::shardFile(const std::string &dir, size_t shard)
{
    char name[32];
    std::snprintf(name, sizeof(name), "shard_%05zu.bin", shard);
    return dir + "/" + name;
}

std::string
DatasetManifest::manifestFile(const std::string &dir)
{
    return dir + "/manifest.bin";
}

namespace
{

/** "CNCMAN01" little-endian. */
constexpr uint64_t kManifestMagic = 0x31304e414d434e43ULL;

} // anonymous namespace

void
DatasetManifest::save(const std::string &path) const
{
    const std::string tmp = uniqueTmpName(path);
    {
        BinaryWriter out(tmp);
        out.put<uint64_t>(kManifestMagic);
        out.put<uint64_t>(configFingerprint);
        out.put<uint64_t>(seed);
        out.put<uint64_t>(numSamples);
        out.put<uint64_t>(shardSamples);
        out.put<uint32_t>(regionChunks);
    }
    publishFile(tmp, path);
}

DatasetManifest
DatasetManifest::load(const std::string &path)
{
    BinaryReader in(path);
    fatal_if(in.get<uint64_t>() != kManifestMagic,
             "'%s' is not a Concorde dataset manifest", path.c_str());
    DatasetManifest manifest;
    manifest.configFingerprint = in.get<uint64_t>();
    manifest.seed = in.get<uint64_t>();
    manifest.numSamples = in.get<uint64_t>();
    manifest.shardSamples = in.get<uint64_t>();
    manifest.regionChunks = in.get<uint32_t>();
    return manifest;
}

uint64_t
datasetConfigFingerprint(const DatasetConfig &config, size_t shard_samples)
{
    uint64_t h = hashMix(0xDA7A5E7ULL, config.seed, config.numSamples);
    h = hashMix(h, config.regionChunks, shard_samples);
    h = hashMix(h, featureConfigFingerprint(config.features));
    h = hashMix(h, config.useFixedUarch ? 1 : 0,
                config.useFixedUarch ? config.fixedUarch.hashKey() : 0);
    for (int program : config.programFilter)
        h = hashMix(h, 3, static_cast<uint64_t>(program));
    return h;
}

DatasetManifest
ensureDatasetManifest(const DatasetConfig &config, const std::string &dir,
                      size_t shard_samples)
{
    fatal_if(shard_samples == 0, "shard size must be positive");
    fatal_if(config.numSamples == 0, "empty dataset");
    ensureDir(dir);

    const uint64_t fingerprint =
        datasetConfigFingerprint(config, shard_samples);
    const std::string manifest_path = DatasetManifest::manifestFile(dir);
    DatasetManifest manifest;
    if (fileExists(manifest_path)) {
        manifest = DatasetManifest::load(manifest_path);
        fatal_if(manifest.configFingerprint != fingerprint,
                 "'%s' was generated with a different dataset config; "
                 "refusing to mix shards (use a fresh directory)",
                 dir.c_str());
    } else {
        manifest.configFingerprint = fingerprint;
        manifest.seed = config.seed;
        manifest.numSamples = config.numSamples;
        manifest.shardSamples = shard_samples;
        manifest.regionChunks = config.regionChunks;
        manifest.save(manifest_path);
    }
    return manifest;
}

bool
datasetShardValid(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    uint64_t magic = 0;
    const bool got = std::fread(&magic, sizeof(magic), 1, f) == 1;
    std::fclose(f);
    return got && magic == kDatasetMagicV2;
}

size_t
repairDatasetDir(const std::string &dir, const DatasetManifest &manifest)
{
    size_t removed = reclaimDirStagingDebris(dir);
    for (size_t shard = 0; shard < manifest.numShards(); ++shard) {
        const std::string path = DatasetManifest::shardFile(dir, shard);
        if (!fileExists(path) || datasetShardValid(path))
            continue;
        warn("removing corrupt shard '%s' (zero-length or bad magic); "
             "it will be regenerated", path.c_str());
        if (::unlink(path.c_str()) == 0)
            ++removed;
    }
    return removed;
}

std::vector<size_t>
missingDatasetShards(const std::string &dir, const DatasetManifest &manifest)
{
    std::vector<size_t> missing;
    for (size_t shard = 0; shard < manifest.numShards(); ++shard) {
        const std::string path = DatasetManifest::shardFile(dir, shard);
        if (!fileExists(path) || !datasetShardValid(path))
            missing.push_back(shard);
    }
    return missing;
}

ShardedBuildResult
buildDatasetShardSet(const DatasetConfig &config, const std::string &dir,
                     size_t shard_samples, const std::vector<size_t> &shards,
                     size_t max_shards_this_run)
{
    const DatasetManifest manifest =
        ensureDatasetManifest(config, dir, shard_samples);

    // The serial spec pass is cheap relative to labeling; redrawing it
    // on every (resumed) run keeps shard content a pure function of the
    // config.
    const std::vector<SampleMeta> specs = drawSpecs(config);
    const FeatureLayout layout(config.features);

    // One analysis store for the whole (possibly resumed) run, so a
    // region repeated across shard boundaries is analyzed once.
    AnalysisStore store(kDatasetStoreResidentInstructions);
    ShardedBuildResult result;
    for (size_t shard : shards) {
        fatal_if(shard >= manifest.numShards(),
                 "shard %zu out of range (dataset has %zu shards)", shard,
                 manifest.numShards());
        const std::string path = DatasetManifest::shardFile(dir, shard);
        if (fileExists(path) && datasetShardValid(path)) {
            ++result.shardsSkipped;
            continue;
        }
        if (max_shards_this_run > 0
            && result.shardsBuilt >= max_shards_this_run) {
            ++result.shardsRemaining;
            continue;
        }
        const Dataset data = labelRange(config, layout, specs,
                                        manifest.shardBegin(shard),
                                        manifest.shardEnd(shard), store);
        const std::string tmp = uniqueTmpName(path);
        data.save(tmp);
        publishFile(tmp, path);
        ++result.shardsBuilt;
    }
    return result;
}

ShardedBuildResult
buildDatasetShards(const DatasetConfig &config, const std::string &dir,
                   size_t shard_samples, size_t max_shards_this_run)
{
    const DatasetManifest manifest =
        ensureDatasetManifest(config, dir, shard_samples);
    repairDatasetDir(dir, manifest);
    std::vector<size_t> all(manifest.numShards());
    for (size_t i = 0; i < all.size(); ++i)
        all[i] = i;
    return buildDatasetShardSet(config, dir, shard_samples, all,
                                max_shards_this_run);
}

Dataset
loadDatasetShards(const std::string &dir)
{
    const DatasetManifest manifest =
        DatasetManifest::load(DatasetManifest::manifestFile(dir));
    Dataset data;
    for (size_t shard = 0; shard < manifest.numShards(); ++shard) {
        const std::string path = DatasetManifest::shardFile(dir, shard);
        fatal_if(!fileExists(path),
                 "dataset '%s' is incomplete (missing %s); rerun the "
                 "sharded build to resume", dir.c_str(), path.c_str());
        fatal_if(!datasetShardValid(path),
                 "shard '%s' is corrupt (zero-length or bad magic); "
                 "delete it and rerun the sharded build to regenerate it",
                 path.c_str());
        const Dataset shard_data = Dataset::load(path);
        const size_t expected =
            manifest.shardEnd(shard) - manifest.shardBegin(shard);
        fatal_if(shard_data.size() != expected,
                 "shard '%s' holds %zu samples, manifest expects %zu",
                 path.c_str(), shard_data.size(), expected);
        if (shard == 0) {
            // The manifest gives the total; the first shard gives the
            // feature dim. Reserve once so concatenation never
            // reallocates mid-build.
            data.features.reserve(manifest.numSamples * shard_data.dim);
            data.labels.reserve(manifest.numSamples);
            data.meta.reserve(manifest.numSamples);
        }
        data.append(shard_data);
    }
    fatal_if(data.size() != manifest.numSamples,
             "sharded dataset '%s' holds %zu samples, manifest expects "
             "%llu", dir.c_str(), data.size(),
             static_cast<unsigned long long>(manifest.numSamples));
    return data;
}

uint64_t
datasetManifestHash(const std::string &dir)
{
    return fileHash(DatasetManifest::manifestFile(dir));
}

} // namespace concorde
