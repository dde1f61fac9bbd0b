#include "serve/prediction_service.hh"

#include <unistd.h>

#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "analysis/analysis_store.hh"
#include "common/rng.hh"
#include "common/serialize.hh"
#include "common/stopwatch.hh"
#include "sim/o3_core.hh"

namespace concorde
{
namespace serve
{

namespace
{

/**
 * Fault-injection hook (tests only): when
 * CONCORDE_FEEDBACK_CRASH_AFTER_APPENDS=<n> is set, the (n+1)-th
 * feedback append in this process stages its bytes, truncates the
 * staging file (the moment a SIGKILL mid-write would leave behind),
 * and exits without publishing -- proving the published feedback file
 * never holds a partial record.
 */
long
feedbackCrashAfterAppends()
{
    static const long value = []() {
        const char *env =
            std::getenv("CONCORDE_FEEDBACK_CRASH_AFTER_APPENDS");
        return env ? std::atol(env) : -1L;
    }();
    return value;
}

} // anonymous namespace

uint64_t
predictionKey(uint32_t model_id, const RegionSpec &region,
              const UarchParams &params)
{
    uint64_t h = hashMix(model_id, params.hashKey());
    h = hashMix(h, static_cast<uint64_t>(region.programId),
                static_cast<uint64_t>(region.traceId));
    return hashMix(h, region.startChunk, region.numChunks);
}

PredictionService::PredictionService(ServeConfig config)
    : cfg(config), cache(config.cacheCapacity), pool(config.poolThreads),
      latency(config.latencyWindow)
{
    queue = std::make_unique<BatchingQueue>(
        cfg.batching,
        [this](const std::vector<PredictionRequest> &batch) {
            return handleBatch(batch);
        },
        &pool);
}

PredictionService::~PredictionService()
{
    shutdown();
}

ModelHandle
PredictionService::loadModel(const std::string &name,
                             const std::string &artifact_path)
{
    return models.addArtifact(name, ModelArtifact::load(artifact_path));
}

void
PredictionService::recordOutcome(std::chrono::steady_clock::time_point start,
                                 ServeStatus status)
{
    const auto elapsed = std::chrono::steady_clock::now() - start;
    latency.push(
        std::chrono::duration<double, std::micro>(elapsed).count());
    ++statusCounts[static_cast<size_t>(status)];
}

void
PredictionService::submit(PredictRequest request, Completion done)
{
    const auto start = std::chrono::steady_clock::now();
    ModelHandle handle = models.get(request.model);
    if (!handle.valid()) {
        PredictResponse response;
        response.status = ServeStatus::UNKNOWN_MODEL;
        response.message = "unknown model '" + request.model + "'";
        recordOutcome(start, response.status);
        done(std::move(response));
        return;
    }

    PredictionRequest queued;
    queued.key = predictionKey(handle.id, request.region, request.params);
    queued.model = std::move(handle);
    queued.region = request.region;
    queued.params = std::move(request.params);
    queued.cls = request.cls;
    queued.timeout = request.timeout;

    // The wrapped completion runs before the queue's drain accounting
    // drops, so `this` outlives it even across shutdown.
    queue->submit(std::move(queued),
                  [this, start, done = std::move(done)](
                      PredictResponse response) {
                      recordOutcome(start, response.status);
                      done(std::move(response));
                  });
}

std::future<PredictResponse>
PredictionService::submit(PredictRequest request)
{
    auto promise = std::make_shared<std::promise<PredictResponse>>();
    std::future<PredictResponse> future = promise->get_future();
    submit(std::move(request), [promise](PredictResponse response) {
        promise->set_value(std::move(response));
    });
    return future;
}

PredictResponse
PredictionService::predict(const PredictRequest &request)
{
    return submit(request).get();
}

std::future<double>
PredictionService::predictAsync(const std::string &model,
                                const RegionSpec &region,
                                const UarchParams &params)
{
    // The historical contract: an unknown model throws here, at call
    // time, not from the future.
    if (!models.get(model).valid())
        throw std::invalid_argument("unknown model '" + model + "'");

    PredictRequest request;
    request.model = model;
    request.region = region;
    request.params = params;

    auto typed = submit(std::move(request));
    // Deferred unwrap: get() yields the CPI or rethrows any non-OK
    // outcome as the runtime_error legacy callers expect.
    return std::async(
        std::launch::deferred,
        [future = std::move(typed)]() mutable -> double {
            PredictResponse response = future.get();
            if (!response.ok()) {
                throw std::runtime_error(
                    response.message.empty()
                        ? std::string("prediction failed: ")
                              + serveStatusName(response.status)
                        : response.message);
            }
            return response.cpi;
        });
}

double
PredictionService::predict(const std::string &model,
                           const RegionSpec &region,
                           const UarchParams &params)
{
    return predictAsync(model, region, params).get();
}

pipeline::PipelineResult
PredictionService::predictSpan(const std::string &model,
                               const TraceSpan &span,
                               uint32_t region_chunks,
                               const UarchParams &params)
{
    Stopwatch total;
    pipeline::PipelineResult res;
    res.regions = shardSpan(span, region_chunks);

    // All regions in flight at once, riding the Bulk class: the queue
    // coalesces them into shared feature-assembly + GEMM batches.
    std::vector<std::future<PredictResponse>> futures;
    futures.reserve(res.regions.size());
    for (const auto &region : res.regions) {
        PredictRequest request;
        request.model = model;
        request.region = region;
        request.params = params;
        request.cls = RequestClass::Bulk;
        futures.push_back(submit(std::move(request)));
    }
    res.regionCpi.reserve(res.regions.size());
    for (auto &future : futures) {
        PredictResponse response = future.get();
        if (!response.ok()) {
            // Preserve the historical throwing contract of this shim.
            if (response.status == ServeStatus::UNKNOWN_MODEL)
                throw std::invalid_argument(response.message);
            throw std::runtime_error(
                response.message.empty()
                    ? std::string("prediction failed: ")
                          + serveStatusName(response.status)
                    : response.message);
        }
        res.regionCpi.push_back(response.cpi);
    }

    res.programCpi = pipeline::aggregateCpi(res.regions, res.regionCpi,
                                            &res.instructions);
    const ModelHandle handle = models.get(model);
    if (handle.valid())
        res.featureDim = handle.predictor->layout().dim();
    res.totalSeconds = total.seconds();
    return res;
}

ServeStatus
PredictionService::warmRegions(const std::string &model,
                               const std::vector<RegionSpec> &regions,
                               const std::vector<UarchParams> &points)
{
    ModelHandle handle = models.get(model);
    if (!handle.valid())
        return ServeStatus::UNKNOWN_MODEL;

    // Build the providers (and thereby the shared AnalysisStore
    // entries) up front -- this is the expensive cold part, and doing
    // it here keeps it off the first client's critical path.
    for (const RegionSpec &region : regions) {
        PredictionRequest probe;
        probe.model = handle;
        probe.region = region;
        providerFor(probe);
    }
    if (points.empty())
        return ServeStatus::OK;

    // Pre-answer the hot design points through the Bulk path so the
    // prediction cache and the providers' memo caches are populated.
    std::vector<std::future<PredictResponse>> futures;
    futures.reserve(regions.size() * points.size());
    for (const RegionSpec &region : regions) {
        for (const UarchParams &params : points) {
            PredictRequest request;
            request.model = model;
            request.region = region;
            request.params = params;
            request.cls = RequestClass::Bulk;
            futures.push_back(submit(std::move(request)));
        }
    }
    ServeStatus status = ServeStatus::OK;
    for (auto &future : futures) {
        const PredictResponse response = future.get();
        if (!response.ok() && status == ServeStatus::OK)
            status = response.status;
    }
    return status;
}

PredictionService::ProviderKey
PredictionService::providerKey(const PredictionRequest &request)
{
    return {request.model.id, request.region.programId,
            request.region.traceId, request.region.startChunk,
            request.region.numChunks};
}

std::shared_ptr<PredictionService::ProviderEntry>
PredictionService::providerFor(const PredictionRequest &request)
{
    std::lock_guard<std::mutex> lock(providersMtx);
    auto &slot = providers[providerKey(request)];
    if (!slot) {
        slot = std::make_shared<ProviderEntry>();
        // The region analysis comes from the shared AnalysisStore, so
        // every model serving the same region -- and every other layer
        // touching it -- reuses one trace analysis. The provider itself
        // stays per (model, region): its memo caches depend on the
        // model's FeatureConfig.
        slot->provider = std::make_unique<FeatureProvider>(
            AnalysisStore::global().acquire(request.region),
            request.model.predictor->featureConfig());
    }
    return slot;
}

std::vector<PredictResponse>
PredictionService::handleBatch(const std::vector<PredictionRequest> &batch)
{
    const UncertaintyConfig &unc = cfg.uncertainty;
    std::vector<PredictResponse> out(batch.size());

    // Cache pass: repeated (model, region, design point) requests are
    // answered from memory with the exact previously computed double.
    // Flagged results are never cached (below), so every hit is a
    // previously-clean answer: attach the interval, no OOD re-check.
    std::vector<size_t> misses;
    for (size_t i = 0; i < batch.size(); ++i) {
        double cached = 0.0;
        if (cache.lookup(batch[i].key, cached)) {
            out[i].cpi = cached;
            const ConformalCalibration *cal =
                batch[i].model.calibration.get();
            if (cal && cal->valid()) {
                out[i].calibrated = true;
                cal->intervalAround(cached, unc.alpha, out[i].lo,
                                    out[i].hi);
            }
        } else {
            misses.push_back(i);
        }
    }

    // Group the misses by (model, region): each group shares one
    // FeatureProvider and one batched inference pass.
    std::map<ProviderKey, std::vector<size_t>> groups;
    for (size_t i : misses)
        groups[providerKey(batch[i])].push_back(i);

    for (const auto &[key, rows] : groups) {
        const PredictionRequest &first = batch[rows.front()];
        const ConcordePredictor &predictor = *first.model.predictor;
        const size_t dim = predictor.layout().dim();
        const ConformalCalibration *cal = first.model.calibration.get();
        const bool calibrated = cal && cal->valid();

        std::vector<float> features;
        features.reserve(rows.size() * dim);
        {
            // Providers memoize analytical-model runs and are not
            // thread-safe; serialize assembly per (model, region). The
            // shared_ptr keeps the entry alive even if clearProviders
            // races past the idle check.
            std::shared_ptr<ProviderEntry> entry = providerFor(first);
            std::lock_guard<std::mutex> lock(entry->mtx);
            for (size_t i : rows)
                entry->provider->assemble(batch[i].params, features);
        }

        const auto preds = predictor.predictCpiFromFeatures(
            features, rows.size(), cfg.mlpThreads);
        for (size_t r = 0; r < rows.size(); ++r) {
            const size_t i = rows[r];
            PredictResponse &response = out[i];
            response.cpi = preds[r];
            const float *row = features.data() + r * dim;

            // Self-qualification: conformal interval + OOD guardrail.
            bool flagged = false;
            if (calibrated) {
                response.calibrated = true;
                cal->intervalAround(response.cpi, unc.alpha, response.lo,
                                    response.hi);
                if (cal->oodScore(row, dim) > unc.oodThreshold) {
                    response.ood = true;
                    flagged = true;
                    flaggedOodCount.fetch_add(1,
                                              std::memory_order_relaxed);
                }
                if (unc.maxRelWidth > 0.0 &&
                    response.relativeWidth() > unc.maxRelWidth) {
                    flagged = true;
                }
            }

            if (flagged && unc.fallbackEnabled) {
                // Admission budget of the slow path: bounded slots, so
                // an OOD flood degrades to flagged fast answers (or
                // OVERLOADED) instead of a simulator pile-up.
                bool admitted = false;
                size_t in_flight =
                    fallbackInFlight.load(std::memory_order_relaxed);
                while (in_flight < unc.maxFallbackInFlight) {
                    if (fallbackInFlight.compare_exchange_weak(
                            in_flight, in_flight + 1)) {
                        admitted = true;
                        break;
                    }
                }
                if (admitted) {
                    std::vector<float> row_copy(row, row + dim);
                    PredictResponse truth =
                        simulateFallback(batch[i], row_copy);
                    fallbackInFlight.fetch_sub(1,
                                               std::memory_order_relaxed);
                    truth.calibrated = response.calibrated;
                    truth.ood = response.ood;
                    response = std::move(truth);
                } else {
                    fallbackRejectedCount.fetch_add(
                        1, std::memory_order_relaxed);
                    if (unc.rejectOnBudget) {
                        response.status = ServeStatus::OVERLOADED;
                        response.message = "fallback budget exhausted";
                    }
                    // else: the flagged fast answer stands.
                }
            }

            // Only clean fast-path answers enter the cache: a cached
            // value must be safe to serve later without its feature
            // row (no OOD re-check is possible on a hit).
            if (!flagged && response.ok())
                cache.insert(batch[i].key, response.cpi);
        }
    }

    for (const PredictResponse &response : out) {
        if (!response.ok())
            continue;
        if (response.fallback)
            servedFallbackSimCount.fetch_add(1, std::memory_order_relaxed);
        else
            servedFastCount.fetch_add(1, std::memory_order_relaxed);
    }
    return out;
}

PredictResponse
PredictionService::simulateFallback(const PredictionRequest &request,
                                    const std::vector<float> &features)
{
    PredictResponse response;
    response.fallback = true;

    // Ground truth from the cycle-level simulator, through the same
    // shared AnalysisStore snapshot and default warmup convention the
    // labeling path uses -- the reply is bitwise identical to a direct
    // simulateRegion call on this (region, design point). The analysis
    // object's combined-trace accessors are internally latched, so
    // concurrent fallbacks on one region are safe; the scratch is the
    // per-thread reusable working set.
    const std::shared_ptr<RegionAnalysis> analysis =
        AnalysisStore::global().acquire(request.region);
    thread_local SimScratch scratch;
    const SimResult sim =
        simulateRegion(request.params, *analysis, 0, &scratch);
    response.cpi = sim.cpi();
    // A simulated answer is exact: the interval collapses to the point.
    response.lo = response.cpi;
    response.hi = response.cpi;

    if (!cfg.uncertainty.feedbackPath.empty()) {
        appendFeedback(request, features,
                       static_cast<float>(response.cpi));
    }
    return response;
}

void
PredictionService::appendFeedback(const PredictionRequest &request,
                                  const std::vector<float> &features,
                                  float label)
{
    const std::string &path = cfg.uncertainty.feedbackPath;
    // First touch sweeps staging debris a crashed predecessor left
    // behind; the published file itself is always a complete version.
    std::call_once(feedbackReclaimOnce,
                   [&path]() { reclaimStagingDebris(path); });

    std::lock_guard<std::mutex> lock(feedbackMtx);
    Dataset merged;
    if (fileExists(path))
        merged = Dataset::load(path);

    Dataset one;
    one.dim = features.size();
    one.features = features;
    one.labels.push_back(label);
    SampleMeta meta;
    meta.region = request.region;
    meta.params = request.params;
    meta.cpi = label;
    one.meta.push_back(meta);
    merged.append(one);

    // The dataset-shard durability discipline: stage under a pid-unique
    // name, publish by durable atomic rename. A writer killed at any
    // point leaves the published file untouched (the previous complete
    // version) plus reclaimable debris -- never a partial record.
    const std::string tmp = uniqueTmpName(path);
    merged.save(tmp);

    static std::atomic<uint64_t> processAppends{0};
    const uint64_t attempt =
        processAppends.fetch_add(1, std::memory_order_relaxed) + 1;
    const long crash_after = feedbackCrashAfterAppends();
    if (crash_after >= 0 && attempt > static_cast<uint64_t>(crash_after)) {
        // Simulate a kill mid-write: leave a truncated staging file and
        // die without publishing.
        (void)::truncate(tmp.c_str(), 12);
        ::_exit(42);
    }

    publishFile(tmp, path);
    feedbackAppendedCount.fetch_add(1, std::memory_order_relaxed);
}

ServeStatus
PredictionService::clearProviders()
{
    std::lock_guard<std::mutex> lock(providersMtx);
    if (queue && !queue->idle())
        return ServeStatus::OVERLOADED;
    providers.clear();
    return ServeStatus::OK;
}

void
PredictionService::shutdown()
{
    if (queue)
        queue->shutdown();
    pool.shutdown();
}

ServeStats
PredictionService::stats() const
{
    ServeStats s;
    if (queue)
        s.queue = queue->stats();
    s.cache = cache.stats();
    s.latency = latency.summary();
    for (size_t i = 0; i < kNumServeStatuses; ++i)
        s.byStatus[i] = statusCounts[i].load(std::memory_order_relaxed);
    s.servedFast = servedFastCount.load(std::memory_order_relaxed);
    s.servedFallbackSim =
        servedFallbackSimCount.load(std::memory_order_relaxed);
    s.flaggedOod = flaggedOodCount.load(std::memory_order_relaxed);
    s.fallbackRejectedOverload =
        fallbackRejectedCount.load(std::memory_order_relaxed);
    s.feedbackAppended =
        feedbackAppendedCount.load(std::memory_order_relaxed);
    return s;
}

} // namespace serve
} // namespace concorde
