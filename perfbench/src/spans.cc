#include "spans.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>

namespace perfbench
{

namespace
{

const Clock::time_point origin = Clock::now();

std::atomic<int64_t> nextId{0};
std::atomic<uint32_t> nextThread{0};

struct ThreadBuffer
{
    uint32_t thread = 0;
    std::vector<SpanRecord> records;
    std::vector<int64_t> open;      ///< stack of open span ids
};

std::mutex buffersMtx;
std::vector<std::shared_ptr<ThreadBuffer>> buffers;   // guarded by buffersMtx

ThreadBuffer &
localBuffer()
{
    thread_local std::shared_ptr<ThreadBuffer> buf = [] {
        auto b = std::make_shared<ThreadBuffer>();
        b->thread = nextThread++;
        b->records.reserve(1 << 14);
        std::lock_guard<std::mutex> lock(buffersMtx);
        buffers.push_back(b);
        return b;
    }();
    return *buf;
}

} // anonymous namespace

int64_t
spanClockNs(Clock::time_point t)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
        .count();
}

int64_t
spanClockNs()
{
    return spanClockNs(Clock::now());
}

Span::Span(const char *name, uint64_t op, uint64_t work)
{
    ThreadBuffer &buf = localBuffer();
    rec.name = name;
    rec.op = op;
    rec.work = work;
    rec.thread = buf.thread;
    rec.id = nextId++;
    rec.parent = buf.open.empty() ? -1 : buf.open.back();
    buf.open.push_back(rec.id);
    pushed = true;
    rec.startNs = spanClockNs();
}

Span::Span(const char *name, uint64_t op, int64_t parent, uint64_t work)
    : Span(name, op, work)
{
    rec.parent = parent;
}

Span::~Span()
{
    rec.endNs = spanClockNs();
    ThreadBuffer &buf = localBuffer();
    if (pushed)
        buf.open.pop_back();
    buf.records.push_back(rec);
}

int64_t
reserveSpanId()
{
    return nextId++;
}

void
recordSpanWithId(int64_t id, const char *name, uint64_t op, int64_t parent,
                 int64_t start_ns, int64_t end_ns, uint64_t work)
{
    ThreadBuffer &buf = localBuffer();
    SpanRecord rec;
    rec.name = name;
    rec.op = op;
    rec.work = work;
    rec.thread = buf.thread;
    rec.id = id;
    rec.parent = parent;
    rec.startNs = start_ns;
    rec.endNs = end_ns;
    buf.records.push_back(rec);
}

void
recordSpan(const char *name, uint64_t op, int64_t parent, int64_t start_ns,
           int64_t end_ns, uint64_t work)
{
    recordSpanWithId(reserveSpanId(), name, op, parent, start_ns, end_ns,
                     work);
}

std::vector<SpanRecord>
collectSpans()
{
    std::vector<SpanRecord> all;
    std::lock_guard<std::mutex> lock(buffersMtx);
    for (const auto &buf : buffers)
        all.insert(all.end(), buf->records.begin(), buf->records.end());
    std::sort(all.begin(), all.end(),
              [](const SpanRecord &a, const SpanRecord &b) {
                  return a.id < b.id;
              });
    return all;
}

std::vector<int64_t>
selfTimes(const std::vector<SpanRecord> &spans)
{
    // `spans` is sorted by id; a reserved id may never have been recorded.
    std::vector<std::vector<size_t>> children(spans.size());
    const auto index_of = [&](int64_t id) {
        const auto it = std::lower_bound(
            spans.begin(), spans.end(), id,
            [](const SpanRecord &s, int64_t v) { return s.id < v; });
        return it != spans.end() && it->id == id
            ? static_cast<size_t>(it - spans.begin()) : spans.size();
    };
    for (size_t i = 0; i < spans.size(); ++i) {
        const size_t p = spans[i].parent >= 0 ? index_of(spans[i].parent)
                                              : spans.size();
        if (p < spans.size())
            children[p].push_back(i);
    }
    std::vector<int64_t> self(spans.size());
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        iv.clear();
        for (size_t c : children[i]) {
            const int64_t a = std::max(s.startNs, spans[c].startNs);
            const int64_t b = std::min(s.endNs, spans[c].endNs);
            if (b > a)
                iv.emplace_back(a, b);
        }
        std::sort(iv.begin(), iv.end());
        int64_t covered = 0;
        int64_t cur_a = 0, cur_b = -1;
        for (const auto &[a, b] : iv) {
            if (a > cur_b) {
                if (cur_b > cur_a)
                    covered += cur_b - cur_a;
                cur_a = a;
                cur_b = b;
            } else {
                cur_b = std::max(cur_b, b);
            }
        }
        if (cur_b > cur_a)
            covered += cur_b - cur_a;
        self[i] = s.durationNs() - covered;
    }
    return self;
}

void
writeSpans(const std::vector<SpanRecord> &spans, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        throw std::runtime_error("cannot write spans to " + path);
    const std::vector<int64_t> self = selfTimes(spans);
    std::fprintf(f, "id,parent,op,thread,name,start_ns,end_ns,self_ns,work\n");
    for (size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        std::fprintf(f, "%lld,%lld,%llu,%u,%s,%lld,%lld,%lld,%llu\n",
                     static_cast<long long>(s.id),
                     static_cast<long long>(s.parent),
                     static_cast<unsigned long long>(s.op), s.thread, s.name,
                     static_cast<long long>(s.startNs),
                     static_cast<long long>(s.endNs),
                     static_cast<long long>(self[i]),
                     static_cast<unsigned long long>(s.work));
    }
    if (std::fclose(f) != 0)
        throw std::runtime_error("short write of spans to " + path);
}

SpanTotals
totalsFor(const std::vector<SpanRecord> &spans, const char *name)
{
    SpanTotals t;
    for (const SpanRecord &s : spans) {
        if (std::strcmp(s.name, name) == 0) {
            ++t.count;
            t.ns += s.durationNs();
            t.work += s.work;
        }
    }
    return t;
}

double
untracedShare(const std::vector<SpanRecord> &spans,
              const std::vector<std::string> &structural)
{
    const std::vector<int64_t> self = selfTimes(spans);
    int64_t glue = 0, all = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
        all += self[i];
        if (std::find(structural.begin(), structural.end(), spans[i].name)
            != structural.end())
            glue += self[i];
    }
    return all > 0 ? static_cast<double>(glue) / static_cast<double>(all)
                   : 0.0;
}

void
addWorkloadLayerMetrics(RunReport &report, double traced_s, double untraced_s,
                        double untraced_share, uint64_t ops)
{
    report.add("workload.untraced_share", untraced_share, "ratio", ops);
    report.add("workload.tracing_overhead_share",
               untraced_s > 0.0 ? traced_s / untraced_s - 1.0 : 0.0, "ratio",
               ops);
}

} // namespace perfbench
