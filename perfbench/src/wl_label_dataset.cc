/**
 * @file
 * label_dataset: ground-truth dataset generation. Closed loop, one
 * caller. Each operation is one buildDataset call on a small batch of
 * random (region, microarchitecture) samples from the benchmark's
 * program list, with 8-chunk regions, 2 threads and a per-operation
 * seed. This is the only workload where the cycle-level simulator (with
 * TimingMemory inside it) does most of the work.
 */

#include <algorithm>
#include <cmath>
#include <numeric>
#include <thread>

#include "analysis/analysis_store.hh"
#include "common/rng.hh"
#include "core/dataset.hh"
#include "core/model_artifact.hh"
#include "sim/o3_core.hh"
#include "spans.hh"
#include "workloads.hh"

using namespace concorde;

namespace perfbench
{

namespace
{

constexpr size_t kBatch = 6;
constexpr uint32_t kRegionChunks = 8;
constexpr size_t kThreads = 2;
constexpr double kOpsPerSecond = 11.0;
constexpr size_t kMinOps = 100;
constexpr double kSloUs = 250000.0;

DatasetConfig
batchConfig(uint64_t seed, size_t op, const FeatureConfig &features)
{
    DatasetConfig cfg;
    cfg.numSamples = kBatch;
    cfg.regionChunks = kRegionChunks;
    cfg.seed = hashMix(seed, 0x1ABE1ULL + op);
    cfg.features = features;
    cfg.threads = kThreads;
    cfg.programFilter = benchPrograms();
    return cfg;
}

/** One sample labeled through the public layer calls. */
struct Labeled
{
    std::vector<float> row;
    SampleMeta meta;
};

/** Per-worker layer counters of the traced run. */
struct LayerTotals
{
    int64_t simNs = 0;
    uint64_t simInstructions = 0;
    uint64_t simCycles = 0;
    uint64_t sidesBuilt = 0;
    uint64_t modelRuns = 0;
};

/**
 * Label one sample the way buildDataset does, through the public calls:
 * AnalysisStore::acquire -> RegionAnalysis::analyzeAll ->
 * FeatureProvider::assemble -> simulateRegion. When `traced`, each call
 * runs under a span and `totals` collects the layer counters.
 */
Labeled
labelOne(const SampleMeta &spec, const FeatureConfig &features,
         AnalysisStore &store, SimScratch &scratch, bool traced, uint64_t op,
         LayerTotals *totals)
{
    Labeled out;
    out.meta = spec;
    std::shared_ptr<RegionAnalysis> analysis;
    if (traced) {
        Span s("trace.acquire", op,
               spec.region.numInstructions()
                   + kDefaultWarmupChunks * kChunkLen);
        analysis = store.acquire(spec.region);
    } else {
        analysis = store.acquire(spec.region);
    }
    FeatureProvider provider(analysis, features);
    if (traced) {
        const size_t before = analysis->numDsideAnalyses()
            + analysis->numIsideAnalyses() + analysis->numBranchAnalyses();
        {
            Span s("analysis.analyzeAll", op,
                   analysis->warmupSize() + analysis->regionSize());
            analysis->analyzeAll(spec.params.memory, spec.params.branch);
        }
        totals->sidesBuilt += analysis->numDsideAnalyses()
            + analysis->numIsideAnalyses() + analysis->numBranchAnalyses()
            - before;
        Span s("analytical.assemble", op, 1);
        provider.assemble(spec.params, out.row);
        totals->modelRuns += provider.modelRuns();
    } else {
        provider.assemble(spec.params, out.row);
    }
    SimResult r;
    if (traced) {
        const int64_t t0 = spanClockNs();
        {
            Span s("sim.simulateRegion", op);
            r = simulateRegion(spec.params, provider.analysis(), 0, &scratch);
            s.setWork(r.instructions);
        }
        totals->simNs += spanClockNs() - t0;
        totals->simInstructions += r.instructions;
        totals->simCycles += r.cycles;
    } else {
        r = simulateRegion(spec.params, provider.analysis(), 0, &scratch);
    }
    out.meta.cpi = static_cast<float>(r.cpi());
    out.meta.avgRobOcc = static_cast<float>(r.avgRobOccupancy);
    out.meta.avgRenameOcc = static_cast<float>(r.avgRenameQOccupancy);
    out.meta.mispredicts = static_cast<uint32_t>(r.branchMispredicts);
    const uint64_t estimated =
        provider.estimatedLoadLatencySum(spec.params.memory);
    out.meta.execRatio = estimated > 0
        ? static_cast<float>(static_cast<double>(r.actualLoadLatencySum)
                             / static_cast<double>(estimated))
        : 1.0f;
    return out;
}

/** Bitwise comparison of one dataset sample against an independent label. */
std::string
compareSample(const Dataset &data, size_t s, const Labeled &l)
{
    const SampleMeta &m = data.meta[s];
    if (l.row.size() != data.dim
        || digestBits(l.row.data(), l.row.size())
               != digestBits(data.row(s), data.dim))
        return "feature row differs";
    const float got[5] = {data.labels[s], m.avgRobOcc, m.avgRenameOcc,
                          m.execRatio, m.cpi};
    const float want[5] = {l.meta.cpi, l.meta.avgRobOcc, l.meta.avgRenameOcc,
                           l.meta.execRatio, l.meta.cpi};
    if (digestBits(got, 5) != digestBits(want, 5)
        || m.mispredicts != l.meta.mispredicts)
        return "label or simulator statistics differ";
    return "";
}

} // anonymous namespace

void
runLabelDataset(const Options &opt, RunReport &report)
{
    const ModelArtifact artifact = ModelArtifact::load(opt.model);
    const FeatureConfig &features = artifact.features;
    // A traced run executes each operation untraced and traced.
    const size_t n = opt.trace
        ? opsFor(opt.seconds / 2, kOpsPerSecond, kMinOps / 2)
        : opsFor(opt.seconds, kOpsPerSecond, kMinOps);
    report.add("setup_s", secondsSinceProcessStart(), "s", 1);
    if (opt.setupOnly)
        return;

    std::vector<Dataset> results(n);
    std::vector<double> op_s(n);
    std::vector<double> traced_s;
    std::vector<std::string> traced_mismatch(n);
    LayerTotals layer_totals[kThreads];
    for (size_t i = 0; i < n; ++i) {
        const DatasetConfig cfg = batchConfig(opt.seed, i, features);
        const auto t0 = Clock::now();
        results[i] = buildDataset(cfg);
        op_s[i] = secondsBetween(t0, Clock::now());
        if (!opt.trace)
            continue;

        // The same samples again, labeled through the layer calls on the
        // same number of threads, each call under a span. Like
        // buildDataset, samples go to the threads in contiguous runs of
        // region order.
        const Dataset &data = results[i];
        std::vector<size_t> order(data.size());
        std::iota(order.begin(), order.end(), size_t{0});
        std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
            return regionKey(data.meta[a].region)
                < regionKey(data.meta[b].region);
        });
        const size_t chunk = (order.size() + kThreads - 1) / kThreads;
        std::vector<Labeled> labeled(data.size());
        std::string worker_error[kThreads];
        const auto t1 = Clock::now();
        {
            Span op("op", i);
            AnalysisStore store;
            std::thread workers[kThreads];
            for (size_t w = 0; w < kThreads; ++w) {
                workers[w] = std::thread([&, w, parent = op.id()] {
                    Span worker("worker", i, parent, 0);
                    SimScratch scratch;
                    const size_t end = std::min(order.size(), (w + 1) * chunk);
                    try {
                        for (size_t k = w * chunk; k < end; ++k) {
                            const size_t s = order[k];
                            labeled[s] = labelOne(data.meta[s], features,
                                                  store, scratch, true, i,
                                                  &layer_totals[w]);
                        }
                    } catch (const std::exception &e) {
                        worker_error[w] = e.what();
                    }
                });
            }
            for (auto &t : workers)
                t.join();
        }
        traced_s.push_back(secondsBetween(t1, Clock::now()));
        for (const std::string &e : worker_error) {
            if (!e.empty() && traced_mismatch[i].empty())
                traced_mismatch[i] = "traced labeling threw: " + e;
        }
        for (size_t s = 0; s < data.size(); ++s) {
            const std::string why = compareSample(data, s, labeled[s]);
            if (!why.empty() && traced_mismatch[i].empty())
                traced_mismatch[i] = "traced sample " + std::to_string(s)
                    + ": " + why;
        }
    }

    if (!opt.trace)
        report.add("peak_rss_mb", peakRssMb(), "MB", 1);

    // ---- checks (outside the timed part) ----
    std::vector<bool> ok(n, true);
    report.attempted = opt.trace ? 2 * n : n;
    AnalysisStore check_store;
    SimScratch check_scratch;
    for (size_t i = 0; i < n; ++i) {
        const Dataset &data = results[i];
        std::string why;
        if (data.size() != kBatch || data.dim != FeatureLayout(features).dim())
            why = "wrong dataset shape";
        for (size_t s = 0; why.empty() && s < data.size(); ++s) {
            if (!std::isfinite(data.labels[s]) || data.labels[s] <= 0.0f)
                why = "non-finite or non-positive label";
        }
        if (why.empty()) {
            // Independent re-label of one sample per operation (rotating
            // through the batch slots).
            const size_t s = i % kBatch;
            const Labeled l = labelOne(data.meta[s], features, check_store,
                                       check_scratch, false, i, nullptr);
            why = compareSample(data, s, l);
            check_store.clear();
        }
        if (!why.empty()) {
            ok[i] = false;
            report.fail(i, why);
        }
        if (!traced_mismatch[i].empty())
            report.fail(i, traced_mismatch[i]);
    }

    if (!opt.trace) {
        addClosedLoopMetrics(report, op_s, ok,
                             static_cast<double>(n * kBatch), kSloUs);
        return;
    }

    const std::vector<SpanRecord> spans = collectSpans();
    if (!opt.spansOut.empty())
        writeSpans(spans, opt.spansOut);
    LayerTotals sum;
    for (const LayerTotals &t : layer_totals) {
        sum.simNs += t.simNs;
        sum.simInstructions += t.simInstructions;
        sum.simCycles += t.simCycles;
        sum.sidesBuilt += t.sidesBuilt;
        sum.modelRuns += t.modelRuns;
    }
    const SpanTotals acquire = totalsFor(spans, "trace.acquire");
    const SpanTotals analyze = totalsFor(spans, "analysis.analyzeAll");
    const SpanTotals assemble = totalsFor(spans, "analytical.assemble");
    report.add("trace.generate_ns_per_instr",
               static_cast<double>(acquire.ns) / acquire.work, "ns/instr",
               acquire.count);
    report.add("analysis.sweep_ns_per_instr",
               static_cast<double>(analyze.ns) / analyze.work, "ns/instr",
               analyze.count);
    report.add("analysis.sides_built_per_region",
               static_cast<double>(sum.sidesBuilt) / acquire.count, "count",
               acquire.count);
    report.add("analytical.assemble_us_per_row",
               static_cast<double>(assemble.ns) / 1e3 / assemble.work,
               "us/row", assemble.work);
    report.add("analytical.model_runs_per_row",
               static_cast<double>(sum.modelRuns) / assemble.work, "count",
               assemble.work);
    report.add("sim.ns_per_instr",
               static_cast<double>(sum.simNs) / sum.simInstructions,
               "ns/instr", sum.simInstructions);
    report.add("sim.host_ns_per_sim_cycle",
               static_cast<double>(sum.simNs) / sum.simCycles, "ns/cycle",
               sum.simCycles);
    report.add("sim.sim_cycles_per_instr",
               static_cast<double>(sum.simCycles) / sum.simInstructions,
               "cycles/instr", sum.simInstructions);
    addWorkloadLayerMetrics(
        report, std::accumulate(traced_s.begin(), traced_s.end(), 0.0),
        std::accumulate(op_s.begin(), op_s.end(), 0.0),
        untracedShare(spans, {"op", "worker"}), n);
}

} // namespace perfbench
