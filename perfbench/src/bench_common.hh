/**
 * @file
 * Shared pieces of the performance benchmark binary: command-line
 * options, the metric report every workload fills, the fixed program
 * list and design-point grid the workloads draw from, and the small
 * statistics helpers (percentiles, result digests, peak RSS).
 *
 * The benchmark only ever calls the library's public entry points; every
 * input it hands them is generated here from the run's seed.
 */

#ifndef PERFBENCH_BENCH_COMMON_HH
#define PERFBENCH_BENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/program_model.hh"
#include "uarch/params.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Stop after set-up and report only setup_s. */
    bool setupOnly = false;
    /** ModelArtifact file every workload loads. */
    std::string model;
    /** Where a traced run writes its spans (CSV). */
    std::string spansOut;
};

/** Called first thing in main(): the origin of setup_s. */
void markProcessStart();
double secondsSinceProcessStart();

/** Seconds between two clock readings. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    uint64_t samples = 0;
};

/** What one workload run reports. */
struct RunReport
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** First few failure diagnostics (printed, not part of the result). */
    std::vector<std::string> failures;

    void add(const std::string &name, double value, const std::string &unit,
             uint64_t samples);
    /** Count one failed operation and keep its diagnostic. */
    void fail(uint64_t op, const std::string &why);
};

/**
 * The program list every workload draws from: SPEC, open-source, cloud
 * and proprietary codes whose working sets sit below, around and above
 * the modelled caches. Seven entries, an odd count, so that with the
 * workloads' round-robin program order the median and p90 operation
 * fall inside one program's cluster of latencies instead of on the gap
 * between two.
 */
const std::vector<int> &benchPrograms();

/**
 * Number of operations of a run: `seconds` at the workload's nominal
 * rate on the reference machine, at least `min_ops`, rounded up to a
 * multiple of `multiple` (so a round-robin over programs stays
 * balanced). The list is fixed for a seed, so a slow host phase
 * stretches the run instead of changing its mix.
 */
size_t opsFor(double seconds, double ops_per_second, size_t min_ops,
              size_t multiple = 1);

/** Linear-interpolated percentile (q in [0, 1]) of unsorted samples. */
double percentile(std::vector<double> xs, double q);

/** True when at least ten samples lie beyond percentile q. */
bool tailSupported(size_t samples, double q);

/** FNV-1a over the bit patterns of doubles / floats. */
uint64_t digestBits(const double *xs, size_t n, uint64_t h = 0xcbf29ce484222325ULL);
uint64_t digestBits(const float *xs, size_t n, uint64_t h = 0xcbf29ce484222325ULL);

/** Bitwise equality of two double vectors. */
bool sameBits(const std::vector<double> &a, const std::vector<double> &b);

/** Peak resident set of this process, MB (getrusage). */
double peakRssMb();

/**
 * The end-to-end metrics of a closed-loop workload: throughput over the
 * summed operation wall time, p50/p90 operation latency, and the share
 * of operations that succeeded within `slo_limit_us`.
 */
void addClosedLoopMetrics(RunReport &report,
                          const std::vector<double> &op_seconds,
                          const std::vector<bool> &op_ok, double work_units,
                          double slo_limit_us);

/** RegionSpec identity, for "not seen before" checks. */
inline std::tuple<int, int, uint64_t, uint32_t>
regionKey(const concorde::RegionSpec &r)
{
    return {r.programId, r.traceId, r.startChunk, r.numChunks};
}

std::string describeRegion(const concorde::RegionSpec &r);

} // namespace perfbench

#endif // PERFBENCH_BENCH_COMMON_HH
