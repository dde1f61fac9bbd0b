/**
 * @file
 * program_cpi: whole-span CPI at one design point. Closed loop, one
 * caller. Each operation is one AnalysisPipeline::run (Sharded
 * execution, Carry state, 2 feature threads, 8-chunk regions) over a
 * 64-chunk span at ARM N1. With one design point per region the sweep's
 * memoization gives nothing, so the stitched trace + analysis pass and
 * per-region featurization dominate, and inference is a small share.
 *
 * The spans come from a per-seed pool (two per program) that the
 * operations cycle through, so every operation's per-region CPIs are
 * checked against a Scalar-pipeline run of the same span computed once
 * after the timed part.
 */

#include <cmath>
#include <numeric>

#include "common/rng.hh"
#include "core/model_artifact.hh"
#include "pipeline/analysis_pipeline.hh"
#include "spans.hh"
#include "trace/workloads.hh"
#include "workloads.hh"

using namespace concorde;

namespace perfbench
{

namespace
{

constexpr uint64_t kSpanChunks = 64;
constexpr uint32_t kRegionChunks = 8;
constexpr size_t kFeatureThreads = 2;
constexpr size_t kSpansPerProgram = 2;
constexpr double kOpsPerSecond = 19.0;
constexpr size_t kMinOps = 112;
constexpr double kSloUs = 120000.0;

pipeline::PipelineConfig
pipelineConfig(pipeline::ExecMode mode, size_t threads)
{
    pipeline::PipelineConfig cfg;
    cfg.regionChunks = kRegionChunks;
    cfg.mode = mode;
    cfg.state = pipeline::StateMode::Carry;
    cfg.threads = threads;
    cfg.mlpThreads = 1;
    return cfg;
}

/** Program-major-interleaved pool: consecutive entries differ in program. */
std::vector<TraceSpan>
drawSpans(uint64_t seed)
{
    Rng rng(hashMix(seed, 0x5A4ULL));
    const std::vector<int> &programs = benchPrograms();
    std::vector<TraceSpan> pool;
    for (size_t k = 0; k < kSpansPerProgram; ++k) {
        for (int program : programs) {
            const ProgramInfo &info = workloadCorpus()[program];
            TraceSpan span;
            span.programId = program;
            span.traceId = static_cast<int>(rng.nextBounded(info.numTraces));
            span.numChunks = kSpanChunks;
            span.startChunk =
                rng.nextBounded(info.chunksPerTrace - kSpanChunks + 1);
            pool.push_back(span);
        }
    }
    return pool;
}

std::string
describeSpan(const TraceSpan &s)
{
    return workloadCorpus()[s.programId].code() + "/t"
        + std::to_string(s.traceId) + "@" + std::to_string(s.startChunk);
}

} // anonymous namespace

void
runProgramCpi(const Options &opt, RunReport &report)
{
    const ModelArtifact artifact = ModelArtifact::load(opt.model);
    pipeline::AnalysisPipeline pipe(
        artifact, pipelineConfig(pipeline::ExecMode::Sharded,
                                 kFeatureThreads));
    const UarchParams params = UarchParams::armN1();
    const std::vector<TraceSpan> pool = drawSpans(opt.seed);
    // A traced run executes each operation untraced and traced.
    const size_t n = opt.trace
        ? opsFor(opt.seconds / 2, kOpsPerSecond, kMinOps / 2, pool.size())
        : opsFor(opt.seconds, kOpsPerSecond, kMinOps, pool.size());
    report.add("setup_s", secondsSinceProcessStart(), "s", 1);
    if (opt.setupOnly)
        return;

    std::vector<pipeline::PipelineResult> results(n);
    std::vector<double> op_s(n);
    std::vector<double> traced_s;
    std::vector<pipeline::PipelineResult> traced;
    for (size_t i = 0; i < n; ++i) {
        const TraceSpan &span = pool[i % pool.size()];
        const auto t0 = Clock::now();
        results[i] = pipe.run(span, params);
        op_s[i] = secondsBetween(t0, Clock::now());
        if (opt.trace) {
            // The pipeline times its own phases; they become the children
            // of the operation span, laid out in execution order.
            const auto t1 = Clock::now();
            const int64_t start = spanClockNs(t1);
            pipeline::PipelineResult r;
            {
                Span op("op", i);
                r = pipe.run(span, params);
                int64_t at = start;
                const auto phase = [&](const char *name, double s,
                                       uint64_t work) {
                    const int64_t end = at + static_cast<int64_t>(s * 1e9);
                    recordSpan(name, i, op.id(), at, end, work);
                    at = end;
                };
                phase("pipeline.stitch", r.analyzeSeconds, r.instructions);
                phase("pipeline.feature", r.featureSeconds, r.instructions);
                phase("pipeline.infer", r.inferSeconds, 1);
            }
            traced_s.push_back(secondsBetween(t1, Clock::now()));
            traced.push_back(std::move(r));
        }
    }

    if (!opt.trace)
        report.add("peak_rss_mb", peakRssMb(), "MB", 1);

    // ---- checks: Scalar pipeline reference, once per pooled span ----
    pipeline::AnalysisPipeline scalar(
        artifact, pipelineConfig(pipeline::ExecMode::Scalar, 1));
    std::vector<pipeline::PipelineResult> expect;
    for (const TraceSpan &span : pool)
        expect.push_back(scalar.run(span, params));

    std::vector<bool> ok(n, true);
    report.attempted = opt.trace ? 2 * n : n;
    uint64_t instructions = 0;
    const auto check = [&](size_t i, const pipeline::PipelineResult &r) {
        const pipeline::PipelineResult &e = expect[i % pool.size()];
        if (r.instructions != kSpanChunks * kChunkLen)
            return std::string("wrong instruction count");
        if (r.regionCpi.size() != kSpanChunks / kRegionChunks)
            return std::string("wrong region count");
        if (!sameBits(r.regionCpi, e.regionCpi))
            return std::string("region CPIs differ from the Scalar pipeline");
        if (digestBits(&r.programCpi, 1) != digestBits(&e.programCpi, 1)
            || !std::isfinite(r.programCpi) || r.programCpi <= 0.0)
            return std::string("program CPI differs from the Scalar pipeline");
        return std::string();
    };
    for (size_t i = 0; i < n; ++i) {
        instructions += results[i].instructions;
        const std::string where = describeSpan(pool[i % pool.size()]) + ": ";
        const std::string why = check(i, results[i]);
        if (!why.empty()) {
            ok[i] = false;
            report.fail(i, where + why);
        }
        if (opt.trace) {
            const std::string traced_why = check(i, traced[i]);
            if (!traced_why.empty())
                report.fail(i, where + "traced: " + traced_why);
        }
    }

    if (!opt.trace) {
        addClosedLoopMetrics(report, op_s, ok,
                             static_cast<double>(instructions), kSloUs);
        return;
    }

    const std::vector<SpanRecord> spans = collectSpans();
    if (!opt.spansOut.empty())
        writeSpans(spans, opt.spansOut);
    const SpanTotals stitch = totalsFor(spans, "pipeline.stitch");
    const SpanTotals feature = totalsFor(spans, "pipeline.feature");
    const SpanTotals infer = totalsFor(spans, "pipeline.infer");
    report.add("pipeline.stitch_ns_per_instr",
               static_cast<double>(stitch.ns) / stitch.work, "ns/instr",
               stitch.count);
    report.add("pipeline.feature_ns_per_instr",
               static_cast<double>(feature.ns) / feature.work, "ns/instr",
               feature.count);
    report.add("pipeline.infer_us_per_span",
               static_cast<double>(infer.ns) / 1e3 / infer.count, "us",
               infer.count);
    addWorkloadLayerMetrics(
        report, std::accumulate(traced_s.begin(), traced_s.end(), 0.0),
        std::accumulate(op_s.begin(), op_s.end(), 0.0),
        untracedShare(spans, {"op"}), n);
}

} // namespace perfbench
