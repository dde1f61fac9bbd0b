#include "pipeline/analysis_pipeline.hh"

#include <algorithm>
#include <exception>

#include "common/logging.hh"
#include "common/stopwatch.hh"
#include "trace/workloads.hh"

namespace concorde
{
namespace pipeline
{

namespace
{

/** Wait for every future, then rethrow the first stored exception. */
void
joinAll(std::vector<std::future<void>> &futures)
{
    std::exception_ptr first;
    for (auto &future : futures) {
        try {
            future.get();
        } catch (...) {
            if (!first)
                first = std::current_exception();
        }
    }
    if (first)
        std::rethrow_exception(first);
}

} // anonymous namespace

double
aggregateCpi(const std::vector<RegionSpec> &regions,
             const std::vector<double> &region_cpi,
             uint64_t *instructions_out)
{
    panic_if(regions.size() != region_cpi.size(),
             "%zu regions but %zu CPIs", regions.size(), region_cpi.size());
    // CPI aggregates as total cycles / total instructions, i.e. the
    // instruction-weighted mean of region CPIs, summed in region order.
    double cycles = 0.0;
    uint64_t instructions = 0;
    for (size_t i = 0; i < regions.size(); ++i) {
        const uint64_t instrs = regions[i].numInstructions();
        cycles += region_cpi[i] * static_cast<double>(instrs);
        instructions += instrs;
    }
    if (instructions_out)
        *instructions_out = instructions;
    return instructions
        ? cycles / static_cast<double>(instructions) : 0.0;
}

AnalysisPipeline::AnalysisPipeline(const ConcordePredictor &predictor,
                                   PipelineConfig config)
    : pred(predictor), cfg(config)
{
    if (cfg.mode == ExecMode::Sharded)
        pool = std::make_unique<ThreadPool>(cfg.threads);
}

AnalysisPipeline::AnalysisPipeline(const ModelArtifact &artifact,
                                   PipelineConfig config)
    : owned(std::make_shared<const ConcordePredictor>(artifact.predictor())),
      pred(*owned), cfg(config)
{
    if (cfg.mode == ExecMode::Sharded)
        pool = std::make_unique<ThreadPool>(cfg.threads);
}

double
AnalysisPipeline::buildProviders(
    const TraceSpan &span, const std::vector<RegionSpec> &regions,
    const UarchParams &params,
    std::vector<std::unique_ptr<FeatureProvider>> &providers,
    const std::function<void(size_t)> &ready)
{
    // The sequential stitch pass: one carried hierarchy/predictor state
    // walks the span in trace order, so every instruction is analyzed
    // exactly once and the per-shard results concatenate to one unsplit
    // pass. Each shard's provider is handed to `ready` as soon as it is
    // built, so its featurization can overlap the stitch of the next.
    Stopwatch timer;
    const ProgramModel &model = programModel(span.programId);

    AnalyzerCarryState carry(
        params.memory, params.branch,
        branchSeedFor(span.programId, span.traceId, span.startChunk));
    GenScratch gen_scratch;
    TraceColumns cols;
    if (cfg.warmupChunks > 0) {
        // Same warmup rule as RegionAnalysis, applied to the whole span:
        // the chunks immediately preceding it (falling back to replaying
        // its head when the span starts at the trace head).
        RegionSpec warm;
        warm.programId = span.programId;
        warm.traceId = span.traceId;
        warm.numChunks = cfg.warmupChunks;
        warm.startChunk = span.startChunk >= cfg.warmupChunks
            ? span.startChunk - cfg.warmupChunks : span.startChunk;
        model.generateRegionColumns(warm, cols, gen_scratch);
        carry.warm(cols);
    }

    for (size_t i = 0; i < regions.size(); ++i) {
        model.generateRegionColumns(regions[i], cols, gen_scratch);
        ShardAnalyses shard = carry.analyzeShard(cols);

        RegionAnalysis analysis(regions[i], std::move(cols));
        cols = TraceColumns{};
        analysis.adoptDside(params.memory, std::move(shard.dside));
        analysis.adoptIside(params.memory, std::move(shard.iside));
        analysis.adoptBranches(params.branch, std::move(shard.branches));
        providers[i] = std::make_unique<FeatureProvider>(
            std::move(analysis), pred.featureConfig());
        if (ready)
            ready(i);
    }
    return timer.seconds();
}

PipelineResult
AnalysisPipeline::run(const TraceSpan &span, const UarchParams &params)
{
    Stopwatch total;
    PipelineResult res;
    res.regions = shardSpan(span, cfg.regionChunks);
    res.featureDim = pred.layout().dim();
    const size_t n = res.regions.size();
    if (n == 0) {
        res.totalSeconds = total.seconds();
        return res;
    }

    // Featurize every shard into one row-major matrix. Carry-state
    // providers come from the stitch pass; Independent-state providers
    // are built inside the task, so their trace analysis (and warmup
    // replay) fans out with the featurization.
    std::vector<std::unique_ptr<FeatureProvider>> providers(n);
    std::vector<float> rows(n * res.featureDim, 0.0f);
    auto featurize = [&](size_t i) {
        if (!providers[i]) {
            // Independent-state analyses are the store's convention;
            // share them when a store is configured.
            providers[i] = cfg.analysisStore
                ? std::make_unique<FeatureProvider>(
                      cfg.analysisStore->acquire(res.regions[i],
                                                 cfg.warmupChunks),
                      pred.featureConfig())
                : std::make_unique<FeatureProvider>(
                      res.regions[i], pred.featureConfig(),
                      cfg.warmupChunks);
        }
        std::vector<float> row;
        row.reserve(res.featureDim);
        providers[i]->assemble(params, row);
        panic_if(row.size() != res.featureDim,
                 "assembled %zu features, layout dim %zu", row.size(),
                 res.featureDim);
        std::copy(row.begin(), row.end(),
                  rows.begin() + i * res.featureDim);
    };

    if (cfg.mode == ExecMode::Scalar) {
        if (cfg.state == StateMode::Carry) {
            res.analyzeSeconds =
                buildProviders(span, res.regions, params, providers, nullptr);
        }
        Stopwatch feature_timer;
        for (size_t i = 0; i < n; ++i)
            featurize(i);
        res.featureSeconds = feature_timer.seconds();

        // The pre-pipeline region loop: one scalar MLP forward per
        // region (exactly what predictCpi runs on an assembled row).
        Stopwatch infer_timer;
        res.regionCpi.resize(n);
        for (size_t i = 0; i < n; ++i) {
            res.regionCpi[i] =
                pred.model().predict(&rows[i * res.featureDim]);
        }
        res.inferSeconds = infer_timer.seconds();
    } else {
        // Each shard's task is submitted the moment its provider exists:
        // in Carry state the workers featurize shard i while this thread
        // stitches shard i+1. Every task reads this frame's locals, so
        // all of them are joined before the frame is left, even when the
        // stitch pass or a task throws.
        std::vector<std::future<void>> futures;
        futures.reserve(n);
        const auto submit = [&](size_t i) {
            futures.push_back(pool->submit([&featurize, i] {
                featurize(i);
            }));
        };
        try {
            if (cfg.state == StateMode::Carry) {
                res.analyzeSeconds = buildProviders(
                    span, res.regions, params, providers, submit);
            } else {
                for (size_t i = 0; i < n; ++i)
                    submit(i);
            }
        } catch (...) {
            for (auto &future : futures)
                future.wait();
            throw;
        }
        Stopwatch wait_timer;
        joinAll(futures);
        res.featureSeconds = wait_timer.seconds();

        Stopwatch infer_timer;
        res.regionCpi =
            pred.predictCpiFromFeatures(rows, n, cfg.mlpThreads);
        res.inferSeconds = infer_timer.seconds();
    }

    res.programCpi =
        aggregateCpi(res.regions, res.regionCpi, &res.instructions);
    if (cfg.keepFeatures)
        res.features = std::move(rows);
    res.totalSeconds = total.seconds();
    return res;
}

} // namespace pipeline
} // namespace concorde
