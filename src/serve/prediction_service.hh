/**
 * @file
 * PredictionService: the full serving stack on top of the batched
 * inference engine.
 *
 *     clients ── submit(PredictRequest) ──> PredictResponse completions
 *        │        (in-process callers, legacy shims, net_server.hh)
 *        ▼
 *     BatchingQueue (per-class size-or-age flush, admission, timeouts)
 *        │  flushed batches, dispatched through the ThreadPool
 *        ▼
 *     batch handler: PredictionCache lookup ── hit ──> result
 *        │ misses, grouped by (model, region)
 *        ▼
 *     FeatureProvider::assemble (per-region, memoized analytical models)
 *        ▼
 *     ConcordePredictor::predictCpiFromFeatures (one GEMM pass)
 *
 * Results are identical to calling predictCpi request-by-request; the
 * service only changes how the work is scheduled.
 *
 * The typed submit/predict entry points (serve_api.hh) are the real
 * API: every outcome is a ServeStatus, never an exception. The older
 * predictAsync/predict/predictSpan signatures remain as thin shims with
 * their historical contract (unknown model throws std::invalid_argument,
 * a handler fault surfaces from future::get).
 */

#ifndef CONCORDE_SERVE_PREDICTION_SERVICE_HH
#define CONCORDE_SERVE_PREDICTION_SERVICE_HH

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>

#include "common/stats.hh"
#include "core/dataset.hh"
#include "pipeline/analysis_pipeline.hh"
#include "serve/batching_queue.hh"
#include "serve/model_registry.hh"
#include "serve/prediction_cache.hh"
#include "serve/serve_api.hh"

namespace concorde
{
namespace serve
{

/**
 * Uncertainty-aware serving knobs: conformal intervals, the OOD
 * guardrail, and the graceful-degradation path to the cycle-level
 * simulator. All of it only engages for models whose artifact shipped
 * a calibration (ModelArtifact v2 with valFraction > 0 at train time);
 * uncalibrated models serve point predictions exactly as before.
 */
struct UncertaintyConfig
{
    /** Miscoverage of the served interval: [lo, hi] targets 1-alpha. */
    double alpha = 0.1;
    /**
     * Width SLO: a calibrated prediction whose (hi-lo)/cpi exceeds
     * this is treated as unqualified and eligible for fallback.
     * 0 disables the width check.
     */
    double maxRelWidth = 0.0;
    /**
     * A request is flagged OOD when more than this fraction of its
     * feature dimensions fall outside the calibration envelope.
     */
    double oodThreshold = 0.02;
    /**
     * Route flagged requests (OOD or width-SLO breach) to the
     * cycle-level simulator for a ground-truth answer. Off by
     * default: the flag alone is free, the simulator is not.
     */
    bool fallbackEnabled = false;
    /**
     * Admission budget of the slow path: at most this many fallback
     * simulations in flight across the whole service. A flood of OOD
     * requests therefore degrades to flagged fast answers (or
     * OVERLOADED, see rejectOnBudget) instead of collapsing every
     * pool thread into the simulator.
     */
    size_t maxFallbackInFlight = 2;
    /**
     * What an over-budget flagged request gets: false (default) = its
     * fast ML answer with the flags still set; true = OVERLOADED, for
     * clients that would rather retry than act on a flagged number.
     */
    bool rejectOnBudget = false;
    /**
     * When non-empty, every fallback-simulated (features, label) pair
     * is durably appended here (pid-unique staging + atomic publish,
     * the dataset-shard crash-safety discipline). The file is a
     * regular Dataset; `concorde_cli dataset`/`train feedback=` folds
     * it into the next training run -- the active-learning loop.
     */
    std::string feedbackPath;
};

/** Service-wide configuration. */
struct ServeConfig
{
    BatchingConfig batching;
    size_t cacheCapacity = 1 << 16;
    /** Batch-dispatch worker threads (0 = hardware concurrency). */
    size_t poolThreads = 1;
    /** Threads per MLP GEMM pass (1: parallelism comes from the pool). */
    size_t mlpThreads = 1;
    /** Window of the end-to-end latency reservoir (samples). */
    size_t latencyWindow = 1 << 14;
    UncertaintyConfig uncertainty;
};

/** Aggregated service counters. */
struct ServeStats
{
    QueueStats queue;
    CacheStats cache;
    /** End-to-end submit -> completion latency percentiles. */
    LatencySummary latency;
    /** Completed requests per ServeStatus (serveStatusName order). */
    std::array<uint64_t, kNumServeStatuses> byStatus{};
    /** OK answers served by the ML fast path (cache or GEMM). */
    uint64_t servedFast = 0;
    /** OK answers served by the cycle-level simulator fallback. */
    uint64_t servedFallbackSim = 0;
    /** Requests whose features fell outside the calibration envelope. */
    uint64_t flaggedOod = 0;
    /** Flagged requests the fallback admission budget turned away. */
    uint64_t fallbackRejectedOverload = 0;
    /** (features, label) pairs durably appended to the feedback file. */
    uint64_t feedbackAppended = 0;
};

class PredictionService
{
  public:
    using Completion = BatchingQueue::Completion;

    explicit PredictionService(ServeConfig config = ServeConfig{});
    ~PredictionService();

    PredictionService(const PredictionService &) = delete;
    PredictionService &operator=(const PredictionService &) = delete;

    /** The registry is exposed for model management (add/replace/list). */
    ModelRegistry &registry() { return models; }
    const ModelRegistry &registry() const { return models; }

    /**
     * The one way a model file enters serving: ModelArtifact::load the
     * file at `artifact_path` and registry().addArtifact it under
     * `name`, hot-swapping any previous model -- in-flight batches
     * finish on the previous snapshot and the bumped registration id
     * keeps their cache entries from ever answering for the new model.
     */
    ModelHandle loadModel(const std::string &name,
                          const std::string &artifact_path);

    /**
     * The typed entry point: `done` is invoked exactly once with the
     * response. Never throws and never blocks on inference; routine
     * failures (UNKNOWN_MODEL, OVERLOADED, TIMEOUT, SHUTDOWN) complete
     * immediately or from the dispatcher. This is the form the network
     * front end drives -- an event loop cannot park on a future.
     */
    void submit(PredictRequest request, Completion done);

    /** Future-returning form of the typed entry point. */
    std::future<PredictResponse> submit(PredictRequest request);

    /** Blocking typed convenience: submit + wait. */
    PredictResponse predict(const PredictRequest &request);

    /**
     * Legacy shim over submit(): throws std::invalid_argument if
     * `model` is not registered; any other non-OK outcome surfaces as
     * std::runtime_error from future::get. The future is deferred --
     * call get()/wait(), not wait_for().
     */
    std::future<double> predictAsync(const std::string &model,
                                     const RegionSpec &region,
                                     const UarchParams &params);

    /** Blocking convenience wrapper around predictAsync. */
    double predict(const std::string &model, const RegionSpec &region,
                   const UarchParams &params);

    /**
     * Pipeline-backed endpoint: shard a trace span into regions of
     * `region_chunks`, answer every region through the batching/caching
     * service path concurrently, and aggregate. Region semantics are
     * the service's per-region warmup convention, so results are
     * bitwise identical to AnalysisPipeline with StateMode::Independent
     * and the default warmup (the golden corpus pins this down).
     * Regions ride the Bulk class: throughput, not tail latency.
     */
    pipeline::PipelineResult predictSpan(const std::string &model,
                                         const TraceSpan &span,
                                         uint32_t region_chunks,
                                         const UarchParams &params);

    /**
     * Warm path: pre-populate the shared AnalysisStore and this
     * service's per-(model, region) FeatureProviders for `regions`,
     * and -- when `points` is non-empty -- pre-answer every
     * (region, point) pair through the Bulk path so the prediction
     * cache and provider memos are hot before traffic lands. Returns
     * UNKNOWN_MODEL if `model` is not registered, otherwise the first
     * non-OK prediction outcome (OK when everything warmed).
     */
    ServeStatus warmRegions(const std::string &model,
                            const std::vector<RegionSpec> &regions,
                            const std::vector<UarchParams> &points = {});

    /**
     * Drop the cached FeatureProvider state for regions served so far
     * (providers are kept per (model, region) and grow with the number
     * of distinct regions seen). The underlying region analyses live in
     * the shared AnalysisStore and survive this call (bounded by the
     * store's LRU), so re-created providers skip trace analysis.
     * Refuses with OVERLOADED while requests are in flight -- in-flight
     * batches hold references into the provider table; returns OK once
     * the table is cleared. (Entries are reference-counted, so even a
     * racing batch that slipped past the idle check keeps its provider
     * alive; the refusal keeps the call's semantics honest.)
     */
    ServeStatus clearProviders();

    /** Flush pending batches and stop accepting requests. */
    void shutdown();

    ServeStats stats() const;

  private:
    /** Per-(model, region) assembly state; providers aren't thread-safe. */
    struct ProviderEntry
    {
        std::mutex mtx;
        std::unique_ptr<FeatureProvider> provider;
    };

    /**
     * Exact (model id, region) identity -- deliberately not a hash, so
     * a collision can never hand a batch the wrong provider.
     */
    using ProviderKey = std::tuple<uint32_t, int, int, uint64_t, uint32_t>;
    static ProviderKey providerKey(const PredictionRequest &request);

    std::vector<PredictResponse>
    handleBatch(const std::vector<PredictionRequest> &batch);
    std::shared_ptr<ProviderEntry>
    providerFor(const PredictionRequest &request);
    /** Record latency + per-status counters for one completion. */
    void recordOutcome(std::chrono::steady_clock::time_point start,
                       ServeStatus status);

    /**
     * Slow path of one flagged request: run the cycle-level simulator
     * on the request's region (ground truth, bitwise identical to a
     * direct simulateRegion call) and, when configured, durably append
     * the (features, label) pair to the feedback file. `features` is
     * the request's assembled feature row (empty when assembly was
     * skipped). Called with a fallback admission slot already held.
     */
    PredictResponse simulateFallback(const PredictionRequest &request,
                                     const std::vector<float> &features);
    /** Durably append one labeled row to cfg.uncertainty.feedbackPath. */
    void appendFeedback(const PredictionRequest &request,
                        const std::vector<float> &features, float label);

    const ServeConfig cfg;
    ModelRegistry models;
    PredictionCache cache;
    ThreadPool pool;

    LatencyRecorder latency;
    std::array<std::atomic<uint64_t>, kNumServeStatuses> statusCounts{};
    std::atomic<uint64_t> servedFastCount{0};
    std::atomic<uint64_t> servedFallbackSimCount{0};
    std::atomic<uint64_t> flaggedOodCount{0};
    std::atomic<uint64_t> fallbackRejectedCount{0};
    std::atomic<uint64_t> feedbackAppendedCount{0};
    /** Fallback simulations currently executing (admission budget). */
    std::atomic<size_t> fallbackInFlight{0};
    /** Serializes feedback-file read-merge-publish cycles. */
    std::mutex feedbackMtx;
    /** One-shot crash-debris sweep of the feedback path. */
    std::once_flag feedbackReclaimOnce;

    mutable std::mutex providersMtx;
    std::map<ProviderKey, std::shared_ptr<ProviderEntry>> providers;

    /** Constructed last so its dispatcher never outlives the members. */
    std::unique_ptr<BatchingQueue> queue;
};

/** Cache key of one request: (model id, region, design point). */
uint64_t predictionKey(uint32_t model_id, const RegionSpec &region,
                       const UarchParams &params);

} // namespace serve
} // namespace concorde

#endif // CONCORDE_SERVE_PREDICTION_SERVICE_HH
