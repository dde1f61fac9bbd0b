#include "core/concorde.hh"

#include <algorithm>
#include <numeric>
#include <tuple>

#include "common/logging.hh"

namespace concorde
{

ConcordePredictor::ConcordePredictor(TrainedModel model,
                                     FeatureConfig feature_config)
    : trainedModel(std::move(model)), featureCfg(std::move(feature_config)),
      featureLayout(featureCfg)
{
    panic_if(trainedModel.valid()
             && trainedModel.inputDim() != featureLayout.dim(),
             "model input dim %zu != feature layout dim %zu",
             trainedModel.inputDim(), featureLayout.dim());
}

double
ConcordePredictor::predictCpi(FeatureProvider &provider,
                              const UarchParams &params) const
{
    thread_local std::vector<float> features;
    features.clear();
    provider.assemble(params, features);
    return trainedModel.predict(features.data());
}

double
ConcordePredictor::predictCpi(const RegionSpec &region,
                              const UarchParams &params) const
{
    FeatureProvider provider(region, featureCfg);
    return predictCpi(provider, params);
}

std::vector<double>
ConcordePredictor::predictCpiBatch(FeatureProvider &provider,
                                   const UarchParams *params, size_t n,
                                   size_t threads) const
{
    if (n == 0)
        return {};
    // Assembly is serial (the provider's memo caches are not
    // thread-safe), but every analytical-model run is memoized, so a
    // sweep touches each (resource, value, memory-config) once.
    std::vector<float> features;
    features.reserve(n * trainedModel.inputDim());
    for (size_t i = 0; i < n; ++i)
        provider.assemble(params[i], features);
    return predictCpiFromFeatures(features, n, threads);
}

std::vector<double>
ConcordePredictor::predictCpiBatch(FeatureProvider &provider,
                                   const std::vector<UarchParams> &pts,
                                   size_t threads) const
{
    return predictCpiBatch(provider, pts.data(), pts.size(), threads);
}

std::vector<double>
ConcordePredictor::predictSweep(const RegionSpec &region,
                                const UarchParams *params, size_t n,
                                size_t threads, AnalysisStore *store) const
{
    if (n == 0)
        return {};
    if (!store)
        store = &AnalysisStore::global();
    FeatureProvider provider(store->acquire(region), featureCfg);

    // Group the design points by their per-side analysis keys so that
    // consecutive assembles share sides: within a run of equal dSideKey
    // only the i-side/branch analyses change, so analyzeAll() re-analyzes
    // just the side whose parameters actually differ (and fuses whichever
    // sides a new design point does introduce into one trace sweep).
    // Every memoized value is order-independent, so scattering the rows
    // back to caller order keeps the output bitwise identical.
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) {
                         return std::make_tuple(params[a].memory.dSideKey(),
                                                params[a].memory.iSideKey(),
                                                params[a].branch.key())
                             < std::make_tuple(params[b].memory.dSideKey(),
                                               params[b].memory.iSideKey(),
                                               params[b].branch.key());
                     });

    const size_t dim = featureLayout.dim();
    std::vector<float> features(n * dim, 0.0f);
    std::vector<float> row;
    row.reserve(dim);
    for (size_t idx : order) {
        row.clear();
        provider.assemble(params[idx], row);
        panic_if(row.size() != dim, "assembled %zu features, dim %zu",
                 row.size(), dim);
        std::copy(row.begin(), row.end(), features.begin() + idx * dim);
    }
    return predictCpiFromFeatures(features, n, threads);
}

std::vector<double>
ConcordePredictor::predictSweep(const RegionSpec &region,
                                const std::vector<UarchParams> &pts,
                                size_t threads, AnalysisStore *store) const
{
    return predictSweep(region, pts.data(), pts.size(), threads, store);
}

std::vector<double>
ConcordePredictor::predictCpiFromFeatures(const std::vector<float> &rows,
                                          size_t n, size_t threads) const
{
    std::vector<double> out(n);
    if (n == 0)
        return out;
    panic_if(rows.size() != n * trainedModel.inputDim(),
             "feature rows hold %zu floats, expected %zu x %zu",
             rows.size(), n, trainedModel.inputDim());
    const auto preds =
        trainedModel.predictBatch(rows, trainedModel.inputDim(), threads);
    for (size_t i = 0; i < n; ++i)
        out[i] = preds[i];
    return out;
}

double
ConcordePredictor::predictLongProgram(const UarchParams &params,
                                      int program_id, int trace_id,
                                      uint64_t trace_chunks,
                                      int num_samples,
                                      uint32_t region_chunks,
                                      uint64_t seed) const
{
    panic_if(num_samples < 1, "need at least one sample");
    Rng rng(hashMix(seed, 0x10060ULL));
    // The long program's CPI prediction is the mean of region predictions
    // over uniformly sampled region offsets (Section 5.1). Offsets are
    // drawn with replacement, so revisited regions hit the shared
    // analysis store instead of re-analyzing the trace.
    AnalysisStore &store = AnalysisStore::global();
    double acc = 0.0;
    for (int s = 0; s < num_samples; ++s) {
        RegionSpec spec;
        spec.programId = program_id;
        spec.traceId = trace_id;
        spec.numChunks = region_chunks;
        const uint64_t max_start = trace_chunks > region_chunks
            ? trace_chunks - region_chunks : 0;
        spec.startChunk =
            max_start > 0 ? rng.nextBounded(max_start + 1) : 0;
        FeatureProvider provider(store.acquire(spec), featureCfg);
        acc += predictCpi(provider, params);
    }
    return acc / num_samples;
}

} // namespace concorde
