/**
 * @file
 * In-memory span log for the traced benchmark run. A span is one timed
 * call into a library layer (name, start, end, parent span, operation
 * id, thread, and a work count such as instructions or rows). Spans are
 * appended to per-thread buffers and only merged after the timed part,
 * then written out as CSV at exit. Untraced runs never create spans.
 *
 * Self time of a span is its duration minus the part of its interval
 * covered by its direct children (the union, so overlapping children on
 * different threads are not counted twice).
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hh"

namespace perfbench
{

struct SpanRecord
{
    const char *name = "";      ///< static string: "<layer>.<call>"
    int64_t startNs = 0;        ///< since the log's origin
    int64_t endNs = 0;
    int64_t id = -1;
    int64_t parent = -1;        ///< -1 = top level
    uint64_t op = 0;            ///< operation the span belongs to
    uint32_t thread = 0;
    uint64_t work = 0;          ///< instructions, rows, frames, ...

    int64_t durationNs() const { return endNs - startNs; }
};

/** Nanoseconds since the span log's origin. */
int64_t spanClockNs();
int64_t spanClockNs(Clock::time_point t);

/** Open spans record their start on construction, append on scope end. */
class Span
{
  public:
    /** Child of the innermost open span on this thread (if any). */
    Span(const char *name, uint64_t op, uint64_t work = 0);
    /** Child of an explicit parent, e.g. a span opened on another thread. */
    Span(const char *name, uint64_t op, int64_t parent, uint64_t work);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    int64_t id() const { return rec.id; }
    void setWork(uint64_t work) { rec.work = work; }

  private:
    SpanRecord rec;
    bool pushed = false;
};

/** Record an already-finished interval (e.g. a phase timed inside the
 *  library and reported back in a result struct). */
void recordSpan(const char *name, uint64_t op, int64_t parent,
                int64_t start_ns, int64_t end_ns, uint64_t work);

/** Reserve an id for a span recorded later with recordSpanWithId (so
 *  its children, recorded first, can name it as their parent). */
int64_t reserveSpanId();
void recordSpanWithId(int64_t id, const char *name, uint64_t op,
                      int64_t parent, int64_t start_ns, int64_t end_ns,
                      uint64_t work);

/** Every span recorded so far, by id. Call only when no span is open. */
std::vector<SpanRecord> collectSpans();

/** Per-span self time (ns), indexed like `spans`. */
std::vector<int64_t> selfTimes(const std::vector<SpanRecord> &spans);

/** Write spans as CSV (one header line). */
void writeSpans(const std::vector<SpanRecord> &spans, const std::string &path);

/** Sum of duration and of work over spans with this name. */
struct SpanTotals
{
    uint64_t count = 0;
    int64_t ns = 0;
    uint64_t work = 0;
};
SpanTotals totalsFor(const std::vector<SpanRecord> &spans, const char *name);

/**
 * Share of the traced thread time that no layer span covers: self time
 * of the structural spans (the operation, and worker spans that only
 * group layer calls) over the self time of all spans.
 */
double untracedShare(const std::vector<SpanRecord> &spans,
                     const std::vector<std::string> &structural);

/**
 * Report workload.untraced_share and workload.tracing_overhead_share:
 * `traced_s`/`untraced_s` are the summed times of the same operations
 * run with and without spans.
 */
void addWorkloadLayerMetrics(RunReport &report, double traced_s,
                             double untraced_s, double untraced_share,
                             uint64_t ops);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
