/**
 * @file
 * Benchmark binary. perfbench/run.py builds it and calls it; it
 * can also be run by hand:
 *
 *   concorde_perfbench --prepare MODEL
 *       write the untrained production-layout model as a ModelArtifact
 *   concorde_perfbench --workload W --seed N --seconds S --trace 0|1
 *                      --model MODEL [--setup-only] [--spans FILE]
 *       run one workload; the last stdout line is a JSON object with
 *       correct/attempted/failed and every metric's value, unit and
 *       sample count
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench_common.hh"
#include "core/artifacts.hh"
#include "core/model_artifact.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

/** Seed of the untrained model's weights (fixed: the model is part of
 *  the benchmark definition, not of a run's inputs). */
constexpr uint64_t kModelSeed = 20250611;

int
usage()
{
    std::fprintf(stderr,
                 "usage: concorde_perfbench --prepare MODEL\n"
                 "       concorde_perfbench --workload W --seed N "
                 "--seconds S --trace 0|1 --model MODEL\n"
                 "                          [--setup-only] [--spans FILE]\n"
                 "workloads: program_cpi label_dataset serve_mixed\n");
    return 2;
}

int
prepare(const std::string &path)
{
    concorde::ModelArtifact artifact;
    artifact.features = concorde::artifacts::featureConfig();
    artifact.model =
        concorde::artifacts::untrainedModel(artifact.features, kModelSeed);
    artifact.provenance.gitDescribe = concorde::buildGitDescribe();
    artifact.save(path);
    return 0;
}

void
printResult(const RunReport &report)
{
    for (const Metric &m : report.metrics) {
        std::printf("metric %-36s %16.6f %-12s samples=%llu\n", m.name.c_str(),
                    m.value, m.unit.c_str(),
                    static_cast<unsigned long long>(m.samples));
    }
    for (const std::string &f : report.failures)
        std::printf("failure %s\n", f.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                report.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed));
    for (size_t i = 0; i < report.metrics.size(); ++i) {
        const Metric &m = report.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                    "\"samples\": %llu}",
                    i ? ", " : "", m.name.c_str(),
                    std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str(),
                    static_cast<unsigned long long>(m.samples));
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    markProcessStart();
    Options opt;
    std::string prepare_path;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--setup-only") {
            opt.setupOnly = true;
        } else if (!has_value) {
            return usage();
        } else if (arg == "--prepare") {
            prepare_path = argv[++i];
        } else if (arg == "--workload") {
            opt.workload = argv[++i];
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(argv[++i], nullptr, 10);
            have_seed = true;
        } else if (arg == "--seconds") {
            opt.seconds = std::atof(argv[++i]);
            have_seconds = opt.seconds > 0.0;
        } else if (arg == "--trace") {
            const std::string v = argv[++i];
            if (v != "0" && v != "1")
                return usage();
            opt.trace = v == "1";
            have_trace = true;
        } else if (arg == "--model") {
            opt.model = argv[++i];
        } else if (arg == "--spans") {
            opt.spansOut = argv[++i];
        } else {
            return usage();
        }
    }

    try {
        if (!prepare_path.empty())
            return prepare(prepare_path);
        if (!have_seed || !have_seconds || !have_trace || opt.model.empty())
            return usage();

        RunReport report;
        if (opt.workload == "program_cpi")
            runProgramCpi(opt, report);
        else if (opt.workload == "label_dataset")
            runLabelDataset(opt, report);
        else if (opt.workload == "serve_mixed")
            runServeMixed(opt, report);
        else
            return usage();
        printResult(report);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "concorde_perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
