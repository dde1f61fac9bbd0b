/**
 * @file
 * Command-line front end for the Concorde library. Each subcommand's
 * positional arguments and key=value options are declared once, in the
 * option tables of commands(); the one parser (parseArgs) and the usage
 * text (usage(), printed by running concorde_cli with no arguments)
 * are generated from them. Bad input exits 2; a missing model, dataset
 * or feedback file exits 1.
 */

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analysis_store.hh"
#include "common/logging.hh"
#include "common/process_pool.hh"
#include "common/serialize.hh"
#include "common/stopwatch.hh"
#include "core/artifacts.hh"
#include "core/concorde.hh"
#include "core/model_artifact.hh"
#include "core/shapley.hh"
#include "pipeline/analysis_pipeline.hh"
#include "serve/net_server.hh"
#include "serve/prediction_service.hh"
#include "sim/o3_core.hh"

using namespace concorde;

namespace
{

const std::map<std::string, ParamId> kShortNames = {
    {"rob", ParamId::RobSize},
    {"commit", ParamId::CommitWidth},
    {"lq", ParamId::LqSize},
    {"sq", ParamId::SqSize},
    {"alu", ParamId::AluWidth},
    {"fp", ParamId::FpWidth},
    {"ls", ParamId::LsWidth},
    {"lsp", ParamId::LsPipes},
    {"lp", ParamId::LoadPipes},
    {"fetch", ParamId::FetchWidth},
    {"decode", ParamId::DecodeWidth},
    {"rename", ParamId::RenameWidth},
    {"fbuf", ParamId::FetchBuffers},
    {"ifills", ParamId::MaxIcacheFills},
    {"bp", ParamId::BranchPredictor},
    {"pct", ParamId::SimpleMispredictPct},
    {"l1d", ParamId::L1dSize},
    {"l1i", ParamId::L1iSize},
    {"l2", ParamId::L2Size},
    {"pf", ParamId::PrefetchDegree},
};

/** Strict double parse: the whole string must be a finite number. */
bool
parseDouble(const std::string &text, double &value)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    value = std::strtod(text.c_str(), &end);
    return end && *end == '\0' && errno != ERANGE
        && std::isfinite(value);
}

/** Strict integer parse: the whole string must be an in-range number. */
bool
parseInt(const std::string &text, int64_t &value)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    value = std::strtoll(text.c_str(), &end, 10);
    return end && *end == '\0' && errno != ERANGE;
}

// ---- option tables: one parser, one usage text ----

/** The value type of a key=value option. */
enum class Type
{
    Int,     ///< decimal integer in [lo, hi]
    Double,  ///< finite number in [lo, hi]
    Text,    ///< any non-empty string
    Enum,    ///< one of the '|'-separated words in `help`; 0|1 for bools
    Program, ///< a Table-2 program code
};

/** One key=value option of a subcommand. */
struct Option
{
    std::string key;
    Type type;
    /** Default as text; nullptr = required, "" = unset unless given. */
    const char *def;
    /** Usage placeholder ("<dir>"), or an Enum's words. */
    std::string help = "";
    /** Inclusive range of an Int or Double value. */
    double lo = 0.0;
    double hi = HUGE_VAL;
    /** The uarch parameter (ParamId) this option sets, or -1. */
    int param = -1;
};

/** Positional arguments of a subcommand, in command-line order. */
enum Head : unsigned
{
    kProgram = 1,      ///< <program>: a Table-2 program code
    kParam = 2,        ///< <param>: the short name of the swept parameter
    kPermutations = 4, ///< [permutations]: optional count in [1, 1000000]
    kModelFlag = 8,    ///< [--model <artifact>]: same as model=<artifact>
};

struct Args;

/** One subcommand: its positionals, its option table and its body. */
struct Command
{
    const char *name;
    unsigned head;
    std::vector<Option> options;
    int (*run)(const Args &);
};

/** A command line parsed against its Command's table. */
struct Args
{
    const Command *cmd = nullptr;
    const char *exe = "";                 ///< argv[0]
    int pid = -1;                         ///< <program>
    const char *code = "";                ///< <program> as given
    ParamId param = ParamId::RobSize;     ///< <param>
    const char *paramName = "";           ///< <param> as given
    int permutations = 48;
    /** ARM N1 with every given uarch parameter applied. */
    UarchParams params = UarchParams::armN1();
    /** The uarch param=value arguments as given, for sweep workers. */
    std::vector<std::string> overrides;
    /** Every key=value option given, validated, by key. */
    std::map<std::string, std::string> given;

    bool has(const std::string &key) const { return given.count(key) != 0; }

    /** The given value of `key`, else its table default. */
    std::string
    text(const std::string &key) const
    {
        if (const auto it = given.find(key); it != given.end())
            return it->second;
        for (const Option &opt : cmd->options) {
            if (opt.key == key)
                return opt.def ? opt.def : "";
        }
        panic("'%s' has no option '%s'", cmd->name, key.c_str());
    }

    int64_t num(const std::string &key) const
    {
        return std::strtoll(text(key).c_str(), nullptr, 10);
    }
    double real(const std::string &key) const
    {
        return std::strtod(text(key).c_str(), nullptr);
    }
};

/** `options` plus one row per uarch parameter, ranged by paramTable(). */
std::vector<Option>
withParams(std::vector<Option> options)
{
    for (const auto &[name, id] : kShortNames) {
        const ParamInfo &info = paramTable()[static_cast<int>(id)];
        const bool bp = id == ParamId::BranchPredictor;
        options.push_back({name, bp ? Type::Enum : Type::Int, "",
                           bp ? "simple|tage" : "",
                           static_cast<double>(info.minValue),
                           static_cast<double>(info.maxValue),
                           static_cast<int>(id)});
    }
    return options;
}

constexpr size_t kUsageWidth = 76;

/** The usage lines of one subcommand, generated from its table. */
std::string
usageOf(const Command &cmd)
{
    std::vector<std::string> words = {std::string("concorde_cli ")
                                      + cmd.name};
    if (cmd.head & kProgram)
        words.push_back("<program>");
    if (cmd.head & kParam)
        words.push_back("<param>");
    if (cmd.head & kPermutations)
        words.push_back("[permutations]");
    if (cmd.head & kModelFlag)
        words.push_back("[--model <artifact>]");
    std::vector<std::string> optional;
    bool params = false;
    for (const Option &opt : cmd.options) {
        if (opt.param >= 0) {
            params = true;
            continue;
        }
        // Required options always carry a placeholder, so `def` is
        // read only when it is set.
        (opt.def ? optional : words)
            .push_back(opt.key + "=" + (opt.help.empty() ? opt.def
                                                         : opt.help));
    }
    if (params)
        optional.push_back("param=value ...");
    if (!optional.empty()) {
        optional.front().insert(0, "[");
        optional.back() += "]";
        words.insert(words.end(), optional.begin(), optional.end());
    }
    std::string text, line = words[0];
    for (size_t w = 1; w < words.size(); ++w) {
        if (line.size() + 1 + words[w].size() > kUsageWidth) {
            text += line + "\n";
            line.assign(words[0].size(), ' ');
        }
        line += " " + words[w];
    }
    return text + line + "\n";
}

/** Report bad input and the usage of `cmd`; returns exit status 2. */
int
badInput(const Command &cmd, const std::string &message)
{
    std::fprintf(stderr, "%s\n%s", message.c_str(), usageOf(cmd).c_str());
    return 2;
}

/** Index of `word` among the '|'-separated `words`, or -1. */
int64_t
wordIndex(const std::string &words, const std::string &word)
{
    size_t at = 0;
    for (int64_t index = 0;; ++index) {
        const size_t bar = words.find('|', at);
        const size_t len = bar == std::string::npos ? bar : bar - at;
        if (words.compare(at, len, word) == 0)
            return index;
        if (bar == std::string::npos)
            return -1;
        at = bar + 1;
    }
}

/** What `opt` accepts, for diagnostics. */
std::string
domainOf(const Option &opt)
{
    if (opt.type == Type::Text)
        return "a non-empty value";
    if (opt.type == Type::Program)
        return "a program code, see 'list'";
    if (opt.type == Type::Enum)
        return "one of " + opt.help;
    const char *what = opt.type == Type::Int ? "an integer" : "a number";
    char text[96];
    if (std::isinf(opt.hi)) {
        std::snprintf(text, sizeof(text), "%s >= %.15g", what, opt.lo);
    } else {
        std::snprintf(text, sizeof(text), "%s in [%.15g, %.15g]", what,
                      opt.lo, opt.hi);
    }
    return text;
}

/**
 * Check `value` against `opt`. `number` receives the value of an Int or
 * the word index of an Enum.
 */
bool
validValue(const Option &opt, const std::string &value, int64_t &number)
{
    double real = 0.0;
    switch (opt.type) {
      case Type::Int:
        return parseInt(value, number) && number >= opt.lo
            && number <= opt.hi;
      case Type::Double:
        return parseDouble(value, real) && real >= opt.lo
            && real <= opt.hi;
      case Type::Text:
        return !value.empty();
      case Type::Enum:
        number = wordIndex(opt.help, value);
        return number >= 0;
      case Type::Program:
        return programIdByCode(value) >= 0;
    }
    return false;
}

/**
 * Parse argv[2..] against `cmd`'s positionals and option table into
 * `args`. Returns 0, or 2 after reporting the first bad argument.
 */
int
parseArgs(const Command &cmd, int argc, char **argv, Args &args)
{
    args.cmd = &cmd;
    args.exe = argv[0];
    int i = 2;
    if (cmd.head & kProgram) {
        if (i >= argc)
            return badInput(cmd, "missing <program>");
        args.code = argv[i];
        args.pid = programIdByCode(argv[i++]);
        if (args.pid < 0) {
            return badInput(cmd, std::string("unknown program '")
                            + args.code + "'");
        }
    }
    if (cmd.head & kParam) {
        if (i >= argc)
            return badInput(cmd, "missing <param>");
        const auto it = kShortNames.find(argv[i]);
        if (it == kShortNames.end()) {
            return badInput(cmd, std::string("unknown parameter '")
                            + argv[i] + "'");
        }
        args.param = it->second;
        args.paramName = argv[i++];
    }
    int64_t count = 0;
    if ((cmd.head & kPermutations) && i < argc && parseInt(argv[i], count)) {
        if (count < 1 || count > 1000000)
            return badInput(cmd, "permutations must be in [1, 1000000]");
        args.permutations = static_cast<int>(count);
        ++i;
    }
    for (; i < argc; ++i) {
        std::string arg = argv[i];
        if ((cmd.head & kModelFlag) && arg == "--model") {
            if (++i >= argc)
                return badInput(cmd, "--model needs an artifact path");
            arg = std::string("model=") + argv[i];
        }
        const size_t eq = arg.find('=');
        const std::string key = arg.substr(0, eq);
        const auto opt = std::find_if(
            cmd.options.begin(), cmd.options.end(),
            [&](const Option &o) { return o.key == key; });
        if (opt == cmd.options.end())
            return badInput(cmd, "unknown option '" + key + "'");
        const std::string value =
            eq == std::string::npos ? "" : arg.substr(eq + 1);
        int64_t number = 0;
        if (eq == std::string::npos || !validValue(*opt, value, number)) {
            return badInput(cmd, "bad value '" + value + "' for '" + key
                            + "' (need " + domainOf(*opt) + ")");
        }
        args.given[key] = value;
        if (opt->param >= 0) {
            args.params.set(static_cast<ParamId>(opt->param), number);
            args.overrides.push_back(arg);
        }
    }
    for (const Option &opt : cmd.options) {
        if (!opt.def && !args.has(opt.key))
            return badInput(cmd, "missing " + opt.key + "=" + opt.help);
    }
    return 0;
}

/** Exit status 1 for a named input file that does not exist. */
int
missingFile(const char *what, const std::string &path)
{
    std::fprintf(stderr, "%s '%s' not found\n", what, path.c_str());
    return 1;
}

RegionSpec
regionFor(int pid)
{
    RegionSpec spec;
    spec.programId = pid;
    spec.traceId = 0;
    spec.startChunk = 16;
    spec.numChunks = artifacts::kShortRegionChunks;
    return spec;
}

std::atomic<bool> g_stopServing{false};

void
onStopSignal(int)
{
    g_stopServing.store(true);
}

int
runServe(const Args &a)
{
    if (a.real("alpha") <= 0.0 || a.real("alpha") >= 1.0)
        return badInput(*a.cmd, "alpha must be in (0, 1)");
    const size_t clients = std::max<int64_t>(1, a.num("clients"));
    const size_t requests = std::max<int64_t>(1, a.num("requests"));
    const size_t num_regions = std::max<int64_t>(1, a.num("regions"));
    const size_t burst = std::max<int64_t>(1, a.num("burst"));

    serve::ServeConfig config;
    const size_t maxBatch =
        static_cast<size_t>(std::max<int64_t>(1, a.num("batch")));
    const auto maxAge = std::chrono::microseconds(a.num("deadline_us"));
    // The batch/deadline knobs set the bulk (throughput) class; the
    // interactive class stays on small, young batches so the tail is
    // never gated on filling a bulk-sized batch.
    config.batching.policy(serve::RequestClass::Bulk) = {maxBatch, maxAge};
    config.batching.policy(serve::RequestClass::Interactive) = {
        std::max<size_t>(1, maxBatch / 4),
        std::min(maxAge, std::chrono::microseconds(50))};
    config.batching.maxInFlightPerKey =
        static_cast<size_t>(a.num("inflight"));
    config.cacheCapacity = static_cast<size_t>(a.num("cache"));
    config.poolThreads = a.num("threads") == 0
        ? defaultThreads() : static_cast<size_t>(a.num("threads"));
    config.uncertainty.alpha = a.real("alpha");
    config.uncertainty.maxRelWidth = a.real("max_width");
    config.uncertainty.fallbackEnabled = a.num("fallback") != 0;
    config.uncertainty.maxFallbackInFlight =
        static_cast<size_t>(a.num("fallback_budget"));
    config.uncertainty.rejectOnBudget = a.num("fallback_reject") != 0;
    config.uncertainty.feedbackPath = a.text("feedback");

    serve::PredictionService service(config);
    const std::string model_path = a.text("model");
    if (model_path.empty()) {
        service.registry().add(
            "default", ConcordePredictor(artifacts::fullModel(),
                                         artifacts::featureConfig()));
    } else {
        if (!fileExists(model_path))
            return missingFile("model artifact", model_path);
        const serve::ModelHandle handle =
            service.loadModel("default", model_path);
        std::printf("loaded artifact %s (trained %llu epochs, held-out "
                    "rel-err %.4f, %s)\n", model_path.c_str(),
                    static_cast<unsigned long long>(
                        handle.provenance->trainedEpochs),
                    handle.provenance->heldOutRelErr,
                    handle.provenance->gitDescribe.c_str());
    }
    if (service.registry().get("default").calibrated()) {
        std::printf("uncertainty: calibrated (alpha=%.3g max_width=%.3g "
                    "fallback=%s budget=%zu reject=%s%s%s)\n",
                    config.uncertainty.alpha,
                    config.uncertainty.maxRelWidth,
                    config.uncertainty.fallbackEnabled ? "on" : "off",
                    config.uncertainty.maxFallbackInFlight,
                    config.uncertainty.rejectOnBudget ? "overloaded"
                                                      : "flag-only",
                    config.uncertainty.feedbackPath.empty()
                        ? "" : " feedback=",
                    config.uncertainty.feedbackPath.c_str());
    } else {
        std::printf("uncertainty: model is uncalibrated -> point-only "
                    "responses (train with val>0 for intervals)\n");
    }

    // Each client sweeps random design points over a handful of regions
    // of the program (warm regions are the serving common case).
    std::vector<RegionSpec> regions;
    for (size_t r = 0; r < num_regions; ++r) {
        RegionSpec spec = regionFor(a.pid);
        spec.startChunk = 16 + 8 * r;
        regions.push_back(spec);
    }
    std::printf("serving %s: %zu clients x %zu requests, bulk<=%zu/"
                "%lldus, interactive<=%zu/%lldus, cache %zu\n", a.code,
                clients, requests,
                config.batching.policy(serve::RequestClass::Bulk).maxBatch,
                static_cast<long long>(
                    config.batching.policy(serve::RequestClass::Bulk)
                        .maxAge.count()),
                config.batching.policy(serve::RequestClass::Interactive)
                    .maxBatch,
                static_cast<long long>(
                    config.batching.policy(serve::RequestClass::Interactive)
                        .maxAge.count()),
                config.cacheCapacity);

    // Warm path: build the region analyses and provider state, and
    // pre-answer the base point, so the measured phase (or the first
    // network client) sees steady-state serving.
    const UarchParams &base = a.params;
    (void)service.warmRegions("default", regions, {base});

    if (a.has("listen")) {
        // Network mode: expose the warmed service over the wire
        // protocol and block until SIGINT/SIGTERM.
        serve::NetServerConfig netCfg;
        netCfg.port = static_cast<uint16_t>(a.num("listen"));
        serve::NetServer server(service, netCfg);
        server.start();
        std::printf("listening on %s:%u (ctrl-c to stop)\n",
                    netCfg.host.c_str(), server.port());
        std::fflush(stdout);
        std::signal(SIGINT, onStopSignal);
        std::signal(SIGTERM, onStopSignal);
        while (!g_stopServing.load())
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        server.stop();
        const serve::NetServerStats net = server.stats();
        const serve::ServeStats sstats = service.stats();
        std::printf("  %llu connections, %llu frames in / %llu out, "
                    "%llu protocol errors (%llu unsupported-version)\n",
                    static_cast<unsigned long long>(
                        net.connectionsAccepted),
                    static_cast<unsigned long long>(net.framesIn),
                    static_cast<unsigned long long>(net.framesOut),
                    static_cast<unsigned long long>(net.protocolErrors),
                    static_cast<unsigned long long>(
                        net.unsupportedVersionFrames));
        std::printf("  service latency p50 %.0fus  p90 %.0fus  "
                    "p99 %.0fus\n", sstats.latency.p50Us,
                    sstats.latency.p90Us, sstats.latency.p99Us);
        std::printf("  routes: fast=%llu fallback_sim=%llu "
                    "flagged_ood=%llu fallback_rejected=%llu "
                    "feedback_appended=%llu\n",
                    static_cast<unsigned long long>(sstats.servedFast),
                    static_cast<unsigned long long>(
                        sstats.servedFallbackSim),
                    static_cast<unsigned long long>(sstats.flaggedOod),
                    static_cast<unsigned long long>(
                        sstats.fallbackRejectedOverload),
                    static_cast<unsigned long long>(
                        sstats.feedbackAppended));
        return 0;
    }

    std::vector<std::vector<double>> latencies(clients);
    Stopwatch wall;
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c]() {
            Rng rng(1000 + c);
            UarchParams point = base;
            auto &lat = latencies[c];
            size_t sent = 0;
            while (sent < requests) {
                const size_t n = std::min(burst, requests - sent);
                std::vector<std::future<serve::PredictResponse>> futures;
                std::vector<Stopwatch> timers(n);
                for (size_t i = 0; i < n; ++i) {
                    // Randomize a few axes around the base point.
                    point.set(ParamId::RobSize,
                              1 + rng.nextBounded(1024));
                    point.set(ParamId::CommitWidth,
                              1 + rng.nextBounded(12));
                    point.set(ParamId::LqSize, 1 + rng.nextBounded(256));
                    serve::PredictRequest request;
                    request.model = "default";
                    request.region =
                        regions[rng.nextBounded(regions.size())];
                    request.params = point;
                    timers[i] = Stopwatch();
                    futures.push_back(service.submit(std::move(request)));
                }
                for (size_t i = 0; i < n; ++i) {
                    // Non-OK outcomes (e.g. OVERLOADED under a tight
                    // inflight= cap) land in the per-status counters
                    // printed below; the drive loop just keeps going.
                    (void)futures[i].get();
                    lat.push_back(timers[i].seconds() * 1e6);
                }
                sent += n;
            }
        });
    }
    for (auto &t : threads)
        t.join();
    const double elapsed = wall.seconds();

    std::vector<double> all;
    for (const auto &lat : latencies)
        all.insert(all.end(), lat.begin(), lat.end());
    std::sort(all.begin(), all.end());
    const auto q = [&](double p) {
        return all.empty()
            ? 0.0 : all[static_cast<size_t>(p * (all.size() - 1))];
    };
    const serve::ServeStats stats = service.stats();

    std::printf("  %zu predictions in %.3fs -> %.0f QPS\n", all.size(),
                elapsed, static_cast<double>(all.size()) / elapsed);
    std::printf("  latency p50 %.0fus  p90 %.0fus  p99 %.0fus\n", q(0.5),
                q(0.9), q(0.99));
    std::printf("  batches %llu (size %llu / deadline %llu / shutdown "
                "%llu flushes)\n",
                static_cast<unsigned long long>(stats.queue.batches),
                static_cast<unsigned long long>(stats.queue.flushOnSize),
                static_cast<unsigned long long>(
                    stats.queue.flushOnDeadline),
                static_cast<unsigned long long>(
                    stats.queue.flushOnShutdown));
    std::printf("  batch-size histogram:");
    for (size_t s = 1; s < stats.queue.batchSizeCounts.size(); ++s) {
        if (stats.queue.batchSizeCounts[s]) {
            std::printf(" %zu:%llu", s, static_cast<unsigned long long>(
                            stats.queue.batchSizeCounts[s]));
        }
    }
    std::printf("\n  cache: %llu hits / %llu misses (%.1f%% hit rate, "
                "%zu entries)\n",
                static_cast<unsigned long long>(stats.cache.hits),
                static_cast<unsigned long long>(stats.cache.misses),
                100.0 * stats.cache.hitRate(), stats.cache.entries);
    std::printf("  service latency p50 %.0fus  p90 %.0fus  p99 %.0fus;"
                " status:", stats.latency.p50Us, stats.latency.p90Us,
                stats.latency.p99Us);
    for (size_t s = 0; s < serve::kNumServeStatuses; ++s) {
        if (stats.byStatus[s]) {
            std::printf(" %s=%llu",
                        serve::serveStatusName(
                            static_cast<serve::ServeStatus>(s)),
                        static_cast<unsigned long long>(
                            stats.byStatus[s]));
        }
    }
    std::printf("\n  routes: fast=%llu fallback_sim=%llu flagged_ood=%llu "
                "fallback_rejected=%llu feedback_appended=%llu\n",
                static_cast<unsigned long long>(stats.servedFast),
                static_cast<unsigned long long>(stats.servedFallbackSim),
                static_cast<unsigned long long>(stats.flaggedOod),
                static_cast<unsigned long long>(
                    stats.fallbackRejectedOverload),
                static_cast<unsigned long long>(stats.feedbackAppended));
    return 0;
}

int
runPipeline(const Args &a)
{
    const std::string mode = a.text("mode");
    // The service endpoint serves independent regions with the default
    // warmup convention; only reject options the user explicitly set.
    const std::string state = a.has("state") ? a.text("state")
        : mode == "service" ? "independent" : "carry";
    if (mode == "service" && state == "carry") {
        return badInput(*a.cmd, "the service endpoint serves independent "
                        "regions; use state=independent");
    }
    if (mode == "service" && a.has("warmup")
        && a.num("warmup") != kDefaultWarmupChunks) {
        return badInput(*a.cmd, "the service endpoint always uses the "
                        "default warmup (" + std::to_string(
                            kDefaultWarmupChunks) + " chunks); warmup= "
                        "applies to scalar/sharded modes");
    }

    TraceSpan span;
    span.programId = a.pid;
    span.traceId = 0;
    span.startChunk = static_cast<uint64_t>(a.num("start"));
    span.numChunks = static_cast<uint64_t>(a.num("chunks"));

    pipeline::PipelineConfig config;
    config.regionChunks = static_cast<uint32_t>(a.num("region"));
    config.warmupChunks = static_cast<uint32_t>(a.num("warmup"));
    config.mode = mode == "scalar" ? pipeline::ExecMode::Scalar
        : pipeline::ExecMode::Sharded;
    config.state = state == "carry" ? pipeline::StateMode::Carry
        : pipeline::StateMode::Independent;
    config.threads = static_cast<size_t>(a.num("threads"));

    ConcordePredictor predictor(artifacts::fullModel(),
                                artifacts::featureConfig());
    std::printf("pipeline over %s: %llu chunks (%.1fk instructions), "
                "regions of %lld chunks, mode %s/%s\n", a.code,
                static_cast<unsigned long long>(span.numChunks),
                static_cast<double>(span.numInstructions()) / 1000.0,
                static_cast<long long>(a.num("region")), mode.c_str(),
                state.c_str());

    // Independent-state runs share region analyses with the rest of the
    // process through the global store (Carry analyses are never cached).
    config.analysisStore = &AnalysisStore::global();

    pipeline::PipelineResult result;
    if (mode == "service") {
        serve::ServeConfig sc;
        sc.poolThreads = config.threads == 0
            ? defaultThreads() : config.threads;
        serve::PredictionService service(sc);
        service.registry().add("default", std::move(predictor));
        result = service.predictSpan("default", span, config.regionChunks,
                                     a.params);
    } else {
        pipeline::AnalysisPipeline pipe(predictor, config);
        result = pipe.run(span, a.params);
    }

    std::printf("  program CPI %.4f over %zu regions (%llu "
                "instructions)\n", result.programCpi,
                result.regions.size(),
                static_cast<unsigned long long>(result.instructions));
    double lo = 0.0, hi = 0.0;
    if (!result.regionCpi.empty()) {
        const auto [min_it, max_it] = std::minmax_element(
            result.regionCpi.begin(), result.regionCpi.end());
        lo = *min_it;
        hi = *max_it;
    }
    std::printf("  region CPI min %.4f / max %.4f\n", lo, hi);
    const double rate = static_cast<double>(result.instructions) / 1e6
        / std::max(result.totalSeconds, 1e-9);
    if (mode == "service") {
        // The service path has no per-phase breakdown (work happens
        // inside batched dispatches).
        std::printf("  %.3fs total -> %.2f Minstr/s\n",
                    result.totalSeconds, rate);
    } else {
        // Sharded + Carry featurizes shards while it stitches; only the
        // wait for the last rows after the stitch is a phase of its own.
        const char *features = mode == "sharded" && state == "carry"
            ? "post-stitch feature wait" : "features";
        std::printf("  %.3fs total (analyze %.3fs, %s %.3fs, "
                    "inference %.3fs) -> %.2f Minstr/s\n",
                    result.totalSeconds, result.analyzeSeconds, features,
                    result.featureSeconds, result.inferSeconds, rate);
    }
    return 0;
}

/**
 * Load a training/eval dataset from either a sharded directory (with a
 * manifest) or a single .bin file. Returns false (with a diagnostic) if
 * neither exists; `manifest_hash_out` identifies the dataset for
 * artifact provenance.
 */
bool
loadDatasetArg(const std::string &path, Dataset &data,
               uint64_t &manifest_hash_out)
{
    if (fileExists(path)) {
        data = Dataset::load(path);
        manifest_hash_out = fileHash(path);
        return true;
    }
    if (fileExists(DatasetManifest::manifestFile(path))) {
        data = loadDatasetShards(path);
        manifest_hash_out = datasetManifestHash(path);
        return true;
    }
    std::fprintf(stderr, "no dataset at '%s' (expected a .bin file or a "
                 "sharded directory with manifest.bin)\n", path.c_str());
    return false;
}

// ---- multi-process scale-out plumbing ----

/**
 * The path workers are exec'd from: the running binary itself, so a
 * supervisor always spawns workers of its own build (argv[0] as the
 * fallback where /proc is unavailable).
 */
std::string
selfExePath(const char *argv0)
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
    return argv0;
}

/**
 * Deterministic crash injection for the supervisor tests: a
 * dataset-worker with CONCORDE_WORKER_CRASH_AFTER_SHARDS=<n> set dies
 * (exit 42) after publishing n new shards, forcing the respawn path
 * without SIGKILL timing races. 0 = disabled.
 */
size_t
crashAfterShardsEnv()
{
    const char *env = std::getenv("CONCORDE_WORKER_CRASH_AFTER_SHARDS");
    if (!env || !*env)
        return 0;
    int64_t parsed = 0;
    if (!parseInt(env, parsed) || parsed < 1)
        return 0;
    return static_cast<size_t>(parsed);
}

/** Parse a comma-separated shard-index list ("0,3,7"). */
bool
parseShardList(const std::string &text, std::vector<size_t> &shards)
{
    size_t at = 0;
    while (at <= text.size()) {
        const auto comma = text.find(',', at);
        const std::string item = text.substr(
            at, comma == std::string::npos ? std::string::npos : comma - at);
        int64_t parsed = 0;
        if (!parseInt(item, parsed) || parsed < 0)
            return false;
        shards.push_back(static_cast<size_t>(parsed));
        if (comma == std::string::npos)
            break;
        at = comma + 1;
    }
    return !shards.empty();
}

/** The DatasetConfig of a `dataset` or `dataset-worker` command line. */
DatasetConfig
datasetConfig(const Args &a)
{
    DatasetConfig config;
    config.numSamples = static_cast<size_t>(a.num("samples"));
    config.regionChunks = static_cast<uint32_t>(a.num("chunks"));
    config.seed = static_cast<uint64_t>(a.num("seed"));
    config.features = artifacts::featureConfig();
    config.threads = static_cast<size_t>(a.num("threads"));
    if (a.has("program"))
        config.programFilter = {programIdByCode(a.text("program"))};
    return config;
}

int
runDataset(const Args &a)
{
    if (a.num("workers") > 0 && a.num("max_shards") > 0) {
        return badInput(*a.cmd, "max_shards= bounds one in-process run; "
                        "it does not combine with workers=");
    }
    const DatasetConfig config = datasetConfig(a);
    const std::string out_dir = a.text("out");
    const size_t shard_size = static_cast<size_t>(a.num("shard"));

    if (a.num("workers") > 0) {
        // Supervisor: plan the build serially (manifest + crash-debris
        // repair), stride-partition the missing shards across a worker
        // pool, and respawn any worker that dies until the directory is
        // complete or the respawn budget runs out. Workers resume from
        // published shards, so a respawn never redoes finished work.
        Stopwatch timer;
        const DatasetManifest manifest =
            ensureDatasetManifest(config, out_dir, shard_size);
        repairDatasetDir(out_dir, manifest);
        const std::vector<size_t> missing =
            missingDatasetShards(out_dir, manifest);
        if (missing.empty()) {
            std::printf("dataset %s: already complete (manifest hash "
                        "%016llx)\n", out_dir.c_str(),
                        static_cast<unsigned long long>(
                            datasetManifestHash(out_dir)));
            return 0;
        }
        const size_t n = std::min<size_t>(
            static_cast<size_t>(a.num("workers")), missing.size());
        const std::string exe = selfExePath(a.exe);
        std::vector<std::vector<std::string>> argvs(n);
        for (size_t w = 0; w < n; ++w) {
            std::string shards_arg;
            for (size_t i = w; i < missing.size(); i += n) {
                if (!shards_arg.empty())
                    shards_arg.push_back(',');
                shards_arg += std::to_string(missing[i]);
            }
            argvs[w] = {exe, "dataset-worker", "out=" + out_dir};
            for (const char *key :
                 {"samples", "shard", "chunks", "seed", "threads"}) {
                argvs[w].push_back(std::string(key) + "="
                                   + std::to_string(a.num(key)));
            }
            if (a.has("program"))
                argvs[w].push_back("program=" + a.text("program"));
            argvs[w].push_back("shards=" + shards_arg);
        }
        std::printf("dataset %s: %zu missing shards across %zu "
                    "workers\n", out_dir.c_str(), missing.size(), n);
        std::fflush(stdout);
        ProcessPool pool;
        const bool ok = pool.superviseAll(
            argvs, static_cast<size_t>(a.num("respawns")));
        const std::vector<size_t> still_missing =
            missingDatasetShards(out_dir, manifest);
        if (!ok || !still_missing.empty()) {
            std::fprintf(stderr, "dataset %s: %zu shards still missing "
                         "after supervision\n", out_dir.c_str(),
                         still_missing.size());
            return 1;
        }
        std::printf("dataset %s: complete via %zu workers (%.1fs), "
                    "manifest hash %016llx\n", out_dir.c_str(), n,
                    timer.seconds(), static_cast<unsigned long long>(
                        datasetManifestHash(out_dir)));
        return 0;
    }

    Stopwatch timer;
    const ShardedBuildResult result = buildDatasetShards(
        config, out_dir, shard_size,
        static_cast<size_t>(a.num("max_shards")));
    std::printf("dataset %s: %zu shards built, %zu resumed from disk "
                "(%.1fs)\n", out_dir.c_str(), result.shardsBuilt,
                result.shardsSkipped, timer.seconds());
    if (!result.complete()) {
        std::printf("  %zu shards remaining -- rerun the same command "
                    "to resume\n", result.shardsRemaining);
    } else {
        std::printf("  complete: %lld samples of %lld chunks, manifest "
                    "hash %016llx\n",
                    static_cast<long long>(a.num("samples")),
                    static_cast<long long>(a.num("chunks")),
                    static_cast<unsigned long long>(
                        datasetManifestHash(out_dir)));
    }
    return 0;
}

/**
 * Worker half of the `dataset workers=N` protocol: build exactly the
 * assigned shard indices of an existing plan. Exit 0 when every
 * assigned shard is published (resumable: shards already on disk are
 * skipped), so a respawned worker converges instead of redoing work.
 */
int
runDatasetWorker(const Args &a)
{
    std::vector<size_t> shards;
    if (!parseShardList(a.text("shards"), shards))
        return badInput(*a.cmd, "bad shard list '" + a.text("shards") + "'");

    const size_t crash_after = crashAfterShardsEnv();
    const ShardedBuildResult result = buildDatasetShardSet(
        datasetConfig(a), a.text("out"),
        static_cast<size_t>(a.num("shard")), shards, crash_after);
    if (crash_after > 0 && !result.complete()) {
        // Injected crash (see crashAfterShardsEnv): die abruptly, the
        // way a real worker loss looks to the supervisor.
        ::_exit(42);
    }
    return result.complete() ? 0 : 1;
}

int
runTrain(const Args &a)
{
    const double val_fraction = a.real("val");
    if (val_fraction >= 1.0)
        return badInput(*a.cmd, "val must be in [0, 1)");
    const std::string checkpoint = a.text("checkpoint");
    if (a.num("max_epochs") > 0 && checkpoint.empty()) {
        // Without a checkpoint the partial run's work would be lost.
        return badInput(*a.cmd, "max_epochs= requires checkpoint= (a "
                        "partial run persists nothing otherwise)");
    }
    const std::string data_path = a.text("data");
    const std::string out_path = a.text("out");
    const std::string feedback_path = a.text("feedback");

    Dataset data;
    uint64_t manifest_hash = 0;
    if (!loadDatasetArg(data_path, data, manifest_hash))
        return 1;
    fatal_if(FeatureLayout(artifacts::featureConfig()).dim() != data.dim,
             "dataset dim %zu does not match the feature layout",
             data.dim);
    if (!feedback_path.empty()) {
        // Active-learning loop: fold the serving layer's fallback
        // feedback file (simulator-labeled OOD requests) into this run.
        if (!fileExists(feedback_path))
            return missingFile("feedback file", feedback_path);
        const Dataset feedback = Dataset::load(feedback_path);
        fatal_if(feedback.dim != data.dim,
                 "feedback dim %zu does not match dataset dim %zu",
                 feedback.dim, data.dim);
        data.append(feedback);
        std::printf("folded %zu feedback samples from %s into the "
                    "training set\n", feedback.size(),
                    feedback_path.c_str());
    }

    TrainConfig tc;
    tc.epochs = static_cast<size_t>(a.num("epochs"));
    tc.batchSize = static_cast<size_t>(a.num("batch"));
    tc.seed = static_cast<uint64_t>(a.num("seed"));
    tc.threads = static_cast<size_t>(a.num("threads"));
    tc.valFraction = val_fraction;
    tc.verbose = true;

    std::printf("training on %zu samples (dim %zu, val fraction %.2f, "
                "%zu epochs)\n", data.size(), data.dim, val_fraction,
                tc.epochs);
    Stopwatch timer;
    const TrainRun run = trainMlpResumable(
        data.features, data.labels, data.dim, tc, nullptr, checkpoint,
        static_cast<size_t>(a.num("max_epochs")));
    if (!run.finished) {
        std::printf("stopped after %zu/%zu epochs (%.1fs); rerun with "
                    "the same checkpoint to resume\n",
                    run.epochsCompleted(), tc.epochs, timer.seconds());
        return 0;
    }

    ModelArtifact artifact;
    artifact.features = artifacts::featureConfig();
    artifact.model = run.model;
    // Ship the conformal calibration (fitted on the held-out split)
    // with the weights: the serving layer reads it for intervals and
    // the OOD guardrail. val=0 -> an uncalibrated (point-only) artifact.
    artifact.calibration = run.calibration;
    artifact.provenance.datasetManifestHash = manifest_hash;
    artifact.provenance.datasetPath = data_path;
    artifact.provenance.gitDescribe = buildGitDescribe();
    artifact.provenance.trainConfig = tc;
    artifact.provenance.trainedEpochs = run.epochsCompleted();
    if (!run.history.empty())
        artifact.provenance.heldOutRelErr = run.history.back().valRelErr;
    artifact.save(out_path);
    if (artifact.calibrated()) {
        std::printf("calibrated: %zu held-out conformity scores travel "
                    "with the artifact\n",
                    artifact.calibration.scores.size());
    }
    if (run.history.back().valRelErr >= 0.0) {
        std::printf("trained in %.1fs: train rel-err %.4f, held-out "
                    "rel-err %.4f\n", timer.seconds(),
                    run.history.back().trainRelErr,
                    run.history.back().valRelErr);
    } else {
        std::printf("trained in %.1fs: train rel-err %.4f (no "
                    "validation split)\n", timer.seconds(),
                    run.history.back().trainRelErr);
    }
    std::printf("wrote %s (dataset %016llx, %s)\n", out_path.c_str(),
                static_cast<unsigned long long>(manifest_hash),
                artifact.provenance.gitDescribe.c_str());
    return 0;
}

int
runEval(const Args &a)
{
    const std::string model_path = a.text("model");
    const std::string data_path = a.text("data");
    if (!fileExists(model_path))
        return missingFile("model artifact", model_path);

    const ModelArtifact artifact = ModelArtifact::load(model_path);
    Dataset data;
    uint64_t manifest_hash = 0;
    if (!loadDatasetArg(data_path, data, manifest_hash))
        return 1;
    fatal_if(artifact.model.inputDim() != data.dim,
             "artifact expects %zu-dim features, dataset holds %zu",
             artifact.model.inputDim(), data.dim);

    const double trained_err =
        artifact.model.meanRelativeError(data.features, data.labels,
                                         data.dim);
    // Same layout, random weights: the floor any real training must
    // clear.
    const TrainedModel stub = artifacts::untrainedModel(
        artifact.features, 2026, artifact.provenance.trainConfig
        .hiddenSizes.empty() ? std::vector<size_t>{192, 96}
        : artifact.provenance.trainConfig.hiddenSizes);
    const double stub_err =
        stub.meanRelativeError(data.features, data.labels, data.dim);

    std::printf("artifact %s\n", model_path.c_str());
    std::printf("  provenance: dataset %016llx at '%s', %llu epochs, "
                "%s\n",
                static_cast<unsigned long long>(
                    artifact.provenance.datasetManifestHash),
                artifact.provenance.datasetPath.c_str(),
                static_cast<unsigned long long>(
                    artifact.provenance.trainedEpochs),
                artifact.provenance.gitDescribe.c_str());
    if (artifact.provenance.heldOutRelErr >= 0.0) {
        std::printf("  ship-time held-out rel-err: %.4f\n",
                    artifact.provenance.heldOutRelErr);
    }
    std::printf("eval over %zu samples (%s, dataset %016llx):\n",
                data.size(), data_path.c_str(),
                static_cast<unsigned long long>(manifest_hash));
    std::printf("  trained model mean rel CPI err:  %.4f\n", trained_err);
    std::printf("  untrained stub mean rel CPI err: %.4f\n", stub_err);
    return 0;
}

// ---- sweep (in-process and scaled-out) ----

/** Merged sweep result file: magic + the CPI vector in grid order. */
constexpr uint64_t kSweepMergedMagic = 0x31304d5753434e43ULL; // "CNCSWM01"
/** One worker's contribution: its (index, CPI) pairs plus geometry. */
constexpr uint64_t kSweepPartMagic = 0x3130505753434e43ULL;   // "CNCSWP01"

std::string
sweepPartPath(const std::string &out_path, size_t part)
{
    return out_path + ".part" + std::to_string(part);
}

void
writeSweepResult(const std::string &path, const std::vector<double> &cpis)
{
    const std::string tmp = uniqueTmpName(path);
    {
        BinaryWriter out(tmp);
        out.put<uint64_t>(kSweepMergedMagic);
        out.putVector(cpis);
    }
    publishFile(tmp, path);
}

void
printSweepTable(ParamId id, const char *code,
                const std::vector<int64_t> &values,
                const std::vector<double> &cpis)
{
    std::printf("sweep of %s for %s:\n",
                paramTable()[static_cast<int>(id)].name, code);
    for (size_t i = 0; i < values.size(); ++i) {
        std::printf("  %6lld -> CPI %.4f\n",
                    static_cast<long long>(values[i]), cpis[i]);
    }
}

/**
 * The predictor a sweep evaluates: an explicit artifact when model= is
 * given (what scaled-out workers use, so none of them trains), else the
 * cached full model.
 */
ConcordePredictor
sweepPredictor(const std::string &model_path)
{
    if (model_path.empty()) {
        return ConcordePredictor(artifacts::fullModel(),
                                 artifacts::featureConfig());
    }
    const ModelArtifact artifact = ModelArtifact::load(model_path);
    return ConcordePredictor(artifact.model, artifact.features);
}

/**
 * The grid of a sweep or sweep-worker command line: the <param> values
 * and the design point of each. Returns 0, or 1 when model= names no
 * file.
 */
int
sweepGrid(const Args &a, std::vector<int64_t> &values,
          std::vector<UarchParams> &points)
{
    if (a.has("model") && !fileExists(a.text("model")))
        return missingFile("model artifact", a.text("model"));
    values = sweepValues(a.param, true);
    UarchParams params = a.params;
    for (int64_t value : values) {
        params.set(a.param, value);
        points.push_back(params);
    }
    return 0;
}

int
runSweep(const Args &a)
{
    std::vector<int64_t> values;
    std::vector<UarchParams> points;
    if (const int status = sweepGrid(a, values, points))
        return status;
    const std::string out_path = a.text("out");
    const std::string model_path = a.text("model");

    if (a.num("workers") == 0) {
        // The DSE fast path: one store-shared analysis, one provider's
        // memo caches across the grid, one batched-inference pass.
        const ConcordePredictor predictor = sweepPredictor(model_path);
        const auto cpis = predictor.predictSweep(regionFor(a.pid), points);
        if (!out_path.empty())
            writeSweepResult(out_path, cpis);
        printSweepTable(a.param, a.code, values, cpis);
        return 0;
    }

    // Supervisor: stride-partition the grid over a worker pool, respawn
    // crashed workers, and merge the part files into the same bytes a
    // 1-worker run writes (predictSweep is batch-composition-invariant,
    // so per-point CPIs do not depend on the partitioning).
    if (out_path.empty()) {
        return badInput(*a.cmd, "sweep workers= requires out=<file> (the "
                        "merge target)");
    }
    if (model_path.empty()) {
        // Train-or-load the shared model cache before forking: fresh
        // workers would otherwise race to train it.
        (void)artifacts::fullModel();
    }
    const size_t n = std::min<size_t>(
        static_cast<size_t>(a.num("workers")), points.size());
    const std::string exe = selfExePath(a.exe);
    std::vector<std::vector<std::string>> argvs(n);
    for (size_t w = 0; w < n; ++w) {
        argvs[w] = {exe, "sweep-worker", a.code, a.paramName,
                    "part=" + std::to_string(w),
                    "nparts=" + std::to_string(n),
                    "out=" + sweepPartPath(out_path, w)};
        if (!model_path.empty())
            argvs[w].push_back("model=" + model_path);
        for (const auto &override_arg : a.overrides)
            argvs[w].push_back(override_arg);
    }
    ProcessPool pool;
    if (!pool.superviseAll(argvs, static_cast<size_t>(a.num("respawns")))) {
        std::fprintf(stderr, "sweep: a partition never completed\n");
        return 1;
    }

    std::vector<double> cpis(points.size(), 0.0);
    std::vector<char> filled(points.size(), 0);
    for (size_t w = 0; w < n; ++w) {
        const std::string path = sweepPartPath(out_path, w);
        fatal_if(!fileExists(path),
                 "sweep part '%s' missing after supervision",
                 path.c_str());
        BinaryReader in(path);
        fatal_if(in.get<uint64_t>() != kSweepPartMagic,
                 "'%s' is not a sweep part file", path.c_str());
        fatal_if(in.get<uint64_t>() != n || in.get<uint64_t>() != w
                 || in.get<uint64_t>() != points.size(),
                 "sweep part '%s' was written for a different "
                 "partitioning", path.c_str());
        const uint64_t count = in.get<uint64_t>();
        for (uint64_t k = 0; k < count; ++k) {
            const uint64_t index = in.get<uint64_t>();
            const double cpi = in.get<double>();
            fatal_if(index >= points.size() || filled[index],
                     "sweep part '%s' holds an out-of-range or duplicate "
                     "point", path.c_str());
            cpis[index] = cpi;
            filled[index] = 1;
        }
    }
    for (size_t i = 0; i < filled.size(); ++i) {
        fatal_if(!filled[i], "sweep point %zu is missing from every "
                 "part file", i);
    }
    writeSweepResult(out_path, cpis);
    for (size_t w = 0; w < n; ++w)
        ::unlink(sweepPartPath(out_path, w).c_str());
    printSweepTable(a.param, a.code, values, cpis);
    return 0;
}

/**
 * Worker half of the `sweep workers=N` protocol: recompute the same
 * grid, evaluate the points of one stride partition, and publish them
 * as an (index, CPI) part file for the supervisor to merge.
 */
int
runSweepWorker(const Args &a)
{
    const size_t part = static_cast<size_t>(a.num("part"));
    const size_t nparts = static_cast<size_t>(a.num("nparts"));
    if (part >= nparts)
        return badInput(*a.cmd, "sweep-worker requires part < nparts");
    std::vector<int64_t> values;
    std::vector<UarchParams> grid;
    if (const int status = sweepGrid(a, values, grid))
        return status;
    std::vector<uint64_t> indices;
    std::vector<UarchParams> points;
    for (size_t i = part; i < grid.size(); i += nparts) {
        indices.push_back(i);
        points.push_back(grid[i]);
    }

    const ConcordePredictor predictor = sweepPredictor(a.text("model"));
    const auto cpis = predictor.predictSweep(regionFor(a.pid), points);

    const std::string out_path = a.text("out");
    const std::string tmp = uniqueTmpName(out_path);
    {
        BinaryWriter out(tmp);
        out.put<uint64_t>(kSweepPartMagic);
        out.put<uint64_t>(nparts);
        out.put<uint64_t>(part);
        out.put<uint64_t>(values.size());
        out.put<uint64_t>(indices.size());
        for (size_t k = 0; k < indices.size(); ++k) {
            out.put<uint64_t>(indices[k]);
            out.put<double>(cpis[k]);
        }
    }
    publishFile(tmp, out_path);
    return 0;
}

// ---- single-point subcommands ----

int
runSimulate(const Args &a)
{
    RegionAnalysis analysis(regionFor(a.pid));
    const SimResult result = simulateRegion(a.params, analysis);
    std::printf("cycle-level simulation of %s @ %s\n", a.code,
                a.params.toString().c_str());
    std::printf("  CPI %.4f (%llu cycles, %llu instructions, "
                "%llu mispredicts)\n", result.cpi(),
                static_cast<unsigned long long>(result.cycles),
                static_cast<unsigned long long>(result.instructions),
                static_cast<unsigned long long>(
                    result.branchMispredicts));
    return 0;
}

/**
 * `predict` and `attribute`. Both share the region analysis through the
 * process-wide AnalysisStore, the same cache the serve layer and
 * dataset generation use.
 */
int
runPredict(const Args &a)
{
    ConcordePredictor predictor(artifacts::fullModel(),
                                artifacts::featureConfig());
    FeatureProvider provider(
        AnalysisStore::global().acquire(regionFor(a.pid)),
        artifacts::featureConfig());

    if (std::strcmp(a.cmd->name, "predict") == 0) {
        const double cpi = predictor.predictCpi(provider, a.params);
        std::printf("%s @ %s\n  predicted CPI %.4f\n", a.code,
                    a.params.toString().c_str(), cpi);
        return 0;
    }

    // attribute: every permutation scan point is evaluated through one
    // batched inference pass instead of thousands of scalar predictions.
    const BatchEval eval = [&](const std::vector<UarchParams> &pts) {
        return predictor.predictCpiBatch(provider, pts);
    };
    const UarchParams base = UarchParams::bigCore();
    ShapleyConfig config;
    config.numPermutations = a.permutations;
    const auto &components = attributionComponents();
    const auto phi =
        shapleyAttribution(base, a.params, components, eval, config);
    const auto endpoints = predictor.predictCpiBatch(
        provider, std::vector<UarchParams>{base, a.params});
    std::printf("CPI attribution for %s (target vs big core):\n", a.code);
    std::printf("  big core %.3f -> target %.3f\n", endpoints[0],
                endpoints[1]);
    for (size_t c = 0; c < components.size(); ++c) {
        if (std::abs(phi[c]) >= 0.005) {
            std::printf("  %-30s %+8.3f\n", components[c].name.c_str(),
                        phi[c]);
        }
    }
    return 0;
}

int
runList(const Args &)
{
    std::printf("programs:\n");
    for (const auto &info : workloadCorpus()) {
        std::printf("  %-5s %s (%s)\n", info.code().c_str(),
                    info.profile.name.c_str(),
                    info.profile.group.c_str());
    }
    std::printf("\nparameters (short=long, ARM N1 default):\n");
    const UarchParams n1 = UarchParams::armN1();
    for (const auto &[name, id] : kShortNames) {
        std::printf("  %-8s %-38s %lld\n", name.c_str(),
                    paramTable()[static_cast<int>(id)].name,
                    static_cast<long long>(n1.get(id)));
    }
    return 0;
}

// ---- the option tables ----

/** Every subcommand, in usage order. */
const std::vector<Command> &
commands()
{
    const Type Int = Type::Int, Double = Type::Double, Text = Type::Text,
               Enum = Type::Enum;
    // Chunk counts land in uint32_t fields (RegionSpec, PipelineConfig).
    const double u32 = UINT32_MAX;
    const std::vector<Option> dataset = {
        {"out", Text, nullptr, "<dir>"},
        {"samples", Int, "512", "", 1},
        {"shard", Int, "128", "", 1},
        {"chunks", Int, "8", "", 1, u32},
        {"seed", Int, "99"},
        {"threads", Int, "0"},
        {"program", Type::Program, "", "<code>"},
    };
    const auto plus = [](std::vector<Option> rows,
                         const std::vector<Option> &more) {
        rows.insert(rows.end(), more.begin(), more.end());
        return rows;
    };
    static const std::vector<Command> table = {
        {"predict", kProgram, withParams({}), runPredict},
        {"sweep", kProgram | kParam, withParams({
             {"workers", Int, "0"},
             {"respawns", Int, "3"},
             {"out", Text, "", "<file>"},
             {"model", Text, "", "<artifact>"},
         }), runSweep},
        {"attribute", kProgram | kPermutations, withParams({}),
         runPredict},
        {"simulate", kProgram, withParams({}), runSimulate},
        {"serve", kProgram | kModelFlag, withParams({
             {"model", Text, "", "<artifact>"},
             {"clients", Int, "4"},
             {"requests", Int, "2000"},
             {"batch", Int, "64"},
             {"deadline_us", Int, "200"},
             {"cache", Int, "65536"},
             {"burst", Int, "32"},
             {"regions", Int, "4"},
             {"threads", Int, "0"},
             {"inflight", Int, "0"},
             {"listen", Int, "", "<port>", 0, 65535},
             {"alpha", Double, "0.1", "", 0, 1},
             {"max_width", Double, "0"},
             {"fallback", Enum, "0", "0|1"},
             {"fallback_budget", Int, "2"},
             {"fallback_reject", Enum, "0", "0|1"},
             {"feedback", Text, "", "<file>"},
         }), runServe},
        {"pipeline", kProgram, withParams({
             {"chunks", Int, "64", "", 1},
             {"region", Int, "8", "", 1, u32},
             {"warmup", Int, "8", "", 0, u32},
             {"start", Int, "16"},
             {"threads", Int, "0"},
             {"mode", Enum, "sharded", "sharded|scalar|service"},
             {"state", Enum, "", "carry|independent"},
         }), runPipeline},
        {"dataset", 0, plus(dataset, {
             {"max_shards", Int, "0"},
             {"workers", Int, "0"},
             {"respawns", Int, "3"},
         }), runDataset},
        {"dataset-worker", 0, plus(dataset, {
             {"shards", Text, nullptr, "<i,j,...>"},
         }), runDatasetWorker},
        {"sweep-worker", kProgram | kParam, withParams({
             {"out", Text, nullptr, "<file>"},
             {"part", Int, nullptr, "<k>"},
             {"nparts", Int, nullptr, "<n>", 1},
             {"model", Text, "", "<artifact>"},
         }), runSweepWorker},
        {"train", 0, {
             {"data", Text, nullptr, "<dir|file>"},
             {"out", Text, nullptr, "<artifact>"},
             {"epochs", Int, "12", "", 1},
             {"val", Double, "0.1", "", 0, 1},
             {"batch", Int, "256", "", 1},
             {"seed", Int, "1234"},
             {"threads", Int, "0"},
             {"checkpoint", Text, "", "<file>"},
             {"max_epochs", Int, "0"},
             {"feedback", Text, "", "<file>"},
         }, runTrain},
        {"eval", 0, {
             {"model", Text, nullptr, "<artifact>"},
             {"data", Text, nullptr, "<dir|file>"},
         }, runEval},
        {"list", 0, {}, runList},
    };
    return table;
}

/** The usage of every subcommand; returns exit status 2. */
int
usage()
{
    for (const Command &cmd : commands())
        std::fputs(usageOf(cmd).c_str(), stderr);
    return 2;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    for (const Command &cmd : commands()) {
        if (std::strcmp(argv[1], cmd.name) == 0) {
            Args args;
            const int status = parseArgs(cmd, argc, argv, args);
            return status != 0 ? status : cmd.run(args);
        }
    }
    std::fprintf(stderr, "unknown command '%s'\n", argv[1]);
    return usage();
}
