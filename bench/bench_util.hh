/**
 * @file
 * Shared helpers for the evaluation benches: error statistics, CDF
 * printing, and the cached TAO baseline artifact.
 */

#ifndef CONCORDE_BENCH_BENCH_UTIL_HH
#define CONCORDE_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "baseline/tao.hh"
#include "core/artifacts.hh"
#include "core/dataset.hh"
#include "ml/trainer.hh"

namespace concorde
{
namespace benchutil
{

/** Summary statistics of a relative-error sample. */
struct ErrorStats
{
    double mean = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    double fracAbove10pct = 0.0;
    size_t count = 0;
};

inline ErrorStats
summarize(std::vector<double> errors)
{
    ErrorStats stats;
    stats.count = errors.size();
    if (errors.empty())
        return stats;
    std::sort(errors.begin(), errors.end());
    double sum = 0.0;
    size_t above = 0;
    for (double e : errors) {
        sum += e;
        above += e > 0.10;
    }
    auto q = [&](double p) {
        const double pos = p * static_cast<double>(errors.size() - 1);
        const size_t lo = static_cast<size_t>(pos);
        const size_t hi = std::min(lo + 1, errors.size() - 1);
        const double frac = pos - static_cast<double>(lo);
        return errors[lo] * (1 - frac) + errors[hi] * frac;
    };
    stats.mean = sum / static_cast<double>(errors.size());
    stats.p50 = q(0.5);
    stats.p90 = q(0.9);
    stats.p99 = q(0.99);
    stats.fracAbove10pct =
        static_cast<double>(above) / static_cast<double>(errors.size());
    return stats;
}

/** Per-sample relative CPI errors of a model over a dataset. */
inline std::vector<double>
relativeErrors(const TrainedModel &model, const Dataset &data)
{
    const auto preds = model.predictBatch(data.features, data.dim);
    std::vector<double> errors(preds.size());
    for (size_t i = 0; i < preds.size(); ++i) {
        errors[i] = std::abs(preds[i] - data.labels[i])
            / std::max(data.labels[i], 1e-6f);
    }
    return errors;
}

/** Print a one-line error summary. */
inline void
printErrorRow(const std::string &label, const ErrorStats &stats)
{
    std::printf("  %-28s avg %6.2f%%  p50 %6.2f%%  p90 %6.2f%%  "
                "p99 %7.2f%%  >10%%: %5.2f%%  (n=%zu)\n",
                label.c_str(), 100 * stats.mean, 100 * stats.p50,
                100 * stats.p90, 100 * stats.p99,
                100 * stats.fracAbove10pct, stats.count);
}

/** Print an inline CDF (selected percentiles) of arbitrary values. */
inline void
printCdf(const std::string &label, std::vector<double> values,
         const char *unit = "")
{
    if (values.empty())
        return;
    std::sort(values.begin(), values.end());
    auto q = [&](double p) {
        return values[static_cast<size_t>(
            p * static_cast<double>(values.size() - 1))];
    };
    std::printf("  %-28s p5 %9.3g%s  p25 %9.3g%s  p50 %9.3g%s  "
                "p75 %9.3g%s  p95 %9.3g%s\n",
                label.c_str(), q(0.05), unit, q(0.25), unit, q(0.5), unit,
                q(0.75), unit, q(0.95), unit);
}

/** Cached TAO baseline trained on the SPEC@N1 dataset. */
inline TaoModel
taoArtifact()
{
    const TaoConfig default_config;
    const std::string path = artifacts::dir() + "/model_tao_h"
        + std::to_string(default_config.hidden) + "s"
        + std::to_string(default_config.seqLen) + "e"
        + std::to_string(default_config.epochs) + "_"
        + std::to_string(artifacts::specN1Train().size()) + ".bin";
    if (fileExists(path))
        return TaoModel::load(path);

    const Dataset &train = artifacts::specN1Train();
    std::vector<RegionSpec> regions;
    std::vector<float> labels;
    for (size_t i = 0; i < train.size(); ++i) {
        regions.push_back(train.meta[i].region);
        labels.push_back(train.labels[i]);
    }
    TaoConfig config;
    TaoModel model(config, UarchParams::armN1());
    std::printf("training TAO baseline on %zu SPEC@N1 regions...\n",
                regions.size());
    const double final_loss = model.train(regions, labels);
    std::printf("TAO final train rel-err: %.4f\n", final_loss);
    const std::string tmp = uniqueTmpName(path);
    model.save(tmp);
    publishFile(tmp, path);
    return model;
}

/** Indices of dataset samples belonging to one program. */
inline std::vector<size_t>
samplesOfProgram(const Dataset &data, int program_id)
{
    std::vector<size_t> indices;
    for (size_t i = 0; i < data.size(); ++i) {
        if (data.meta[i].region.programId == program_id)
            indices.push_back(i);
    }
    return indices;
}

} // namespace benchutil
} // namespace concorde

#endif // CONCORDE_BENCH_BENCH_UTIL_HH
