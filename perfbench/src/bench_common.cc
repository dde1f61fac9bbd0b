#include "bench_common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "trace/workloads.hh"

namespace perfbench
{

namespace
{

Clock::time_point processStart;

constexpr size_t kMaxKeptFailures = 8;

} // anonymous namespace

void
markProcessStart()
{
    processStart = Clock::now();
}

double
secondsSinceProcessStart()
{
    return secondsBetween(processStart, Clock::now());
}

void
RunReport::add(const std::string &name, double value, const std::string &unit,
               uint64_t samples)
{
    metrics.push_back({name, value, unit, samples});
}

void
RunReport::fail(uint64_t op, const std::string &why)
{
    ++failed;
    if (failures.size() < kMaxKeptFailures)
        failures.push_back("op " + std::to_string(op) + ": " + why);
}

const std::vector<int> &
benchPrograms()
{
    static const std::vector<int> programs = [] {
        std::vector<int> ids;
        for (const char *code : {"S7", "P1", "C1", "O2", "S3", "P5", "S1"}) {
            const int id = concorde::programIdByCode(code);
            if (id < 0)
                throw std::runtime_error(std::string("unknown program ") + code);
            ids.push_back(id);
        }
        return ids;
    }();
    return programs;
}

size_t
opsFor(double seconds, double ops_per_second, size_t min_ops,
       size_t multiple)
{
    const size_t n = std::max(
        min_ops, static_cast<size_t>(std::ceil(seconds * ops_per_second)));
    return (n + multiple - 1) / multiple * multiple;
}

double
percentile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double pos = q * static_cast<double>(xs.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, xs.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

bool
tailSupported(size_t samples, double q)
{
    return (1.0 - q) * static_cast<double>(samples) >= 10.0 - 1e-9;
}

namespace
{

template <typename T, typename U>
uint64_t
fnvBits(const T *xs, size_t n, uint64_t h)
{
    for (size_t i = 0; i < n; ++i) {
        U bits;
        std::memcpy(&bits, &xs[i], sizeof(bits));
        for (size_t b = 0; b < sizeof(bits); ++b) {
            h ^= (bits >> (8 * b)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

} // anonymous namespace

uint64_t
digestBits(const double *xs, size_t n, uint64_t h)
{
    return fnvBits<double, uint64_t>(xs, n, h);
}

uint64_t
digestBits(const float *xs, size_t n, uint64_t h)
{
    return fnvBits<float, uint32_t>(xs, n, h);
}

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size()
        && (a.empty()
            || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void
addClosedLoopMetrics(RunReport &report, const std::vector<double> &op_seconds,
                     const std::vector<bool> &op_ok, double work_units,
                     double slo_limit_us)
{
    const size_t n = op_seconds.size();
    double total = 0.0;
    std::vector<double> us(n);
    size_t met = 0;
    for (size_t i = 0; i < n; ++i) {
        total += op_seconds[i];
        us[i] = op_seconds[i] * 1e6;
        if (op_ok[i] && us[i] <= slo_limit_us)
            ++met;
    }
    report.add("throughput_per_s", total > 0.0 ? work_units / total : 0.0,
               "1/s", n);
    report.add("latency_p50_us", percentile(us, 0.5), "us", n);
    if (tailSupported(n, 0.9))
        report.add("latency_p90_us", percentile(us, 0.9), "us", n);
    report.add("slo_met_ratio",
               n ? static_cast<double>(met) / static_cast<double>(n) : 0.0,
               "ratio", n);
}

std::string
describeRegion(const concorde::RegionSpec &r)
{
    return concorde::workloadCorpus()[r.programId].code() + "/t"
        + std::to_string(r.traceId) + "@" + std::to_string(r.startChunk)
        + "+" + std::to_string(r.numChunks);
}

} // namespace perfbench
