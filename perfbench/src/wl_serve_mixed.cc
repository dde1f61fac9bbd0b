/**
 * @file
 * serve_mixed: the network serving path. NetServer on loopback inside
 * this process, over a PredictionService with one pool thread; a fixed
 * set of regions is warmed (analysis and a small hot point set) during
 * set-up. One generator drives 2 connections; with the two receiver
 * threads the client uses 3 threads.
 *
 * Four requests in five are hot -- Interactive repeats of points
 * already served, answered from the PredictionCache -- and the others
 * are Bulk requests for fresh random design points on the warm regions,
 * which run assembly, the GEMM and a cache insert. The hot share is not
 * one half on purpose. Hot and cold latencies form two clusters, and
 * with half of each the median falls on the gap between them. Hot
 * requests also share the one pool thread with cold batches, so the
 * upper part of the hot cluster is hot requests that waited behind one;
 * at 3/5 hot the median still sat in that waiting tail and moved by 23%
 * between runs. At 4/5 hot, and at a rate where few hot requests wait,
 * the median lies in the hot requests that did not wait and p90/p99 in
 * the cold cluster.
 *
 *  - Phase 1, open loop: Poisson arrivals at kOpenRate. Latency is timed
 *    from when a request was due to be sent, so a stall also charges the
 *    requests queued behind it. Gives the latency metrics and
 *    slo_met_ratio.
 *  - Phase 2, saturation: each connection keeps kWindow requests in
 *    flight. Gives throughput_per_s (OK replies per second).
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "analysis/analysis_store.hh"
#include "common/rng.hh"
#include "core/model_artifact.hh"
#include "serve/net_server.hh"
#include "serve/prediction_service.hh"
#include "serve/wire.hh"
#include "spans.hh"
#include "trace/workloads.hh"
#include "workloads.hh"

using namespace concorde;
using namespace concorde::serve;

namespace perfbench
{

namespace
{

constexpr const char *kModelName = "bench";
constexpr size_t kRegionsPerProgram = 2;
constexpr uint32_t kRegionChunks = 8;
constexpr size_t kHotPointsPerRegion = 8;
constexpr size_t kConnections = 2;
/** Requests i with i % kHotPattern < kHotPerPattern are hot. */
constexpr size_t kHotPattern = 5;
constexpr size_t kHotPerPattern = 4;
/** Open-loop arrival rate, requests/s. The pool thread is about 15% busy
 *  at this rate on the reference machine (cold requests arrive in
 *  batches of about one, so each pays the full per-batch cost), so a
 *  1.5x slow host phase stays far from saturation. With 3/5 hot, 1800/s
 *  (about 40% of the saturated rate) built a queue in one slow run in
 *  five. Fixed: it is part of the workload's definition. */
constexpr double kOpenRate = 800.0;
/** Share of --seconds spent in the open-loop phase. */
constexpr double kOpenShare = 0.6;
/** Requests each connection keeps in flight in the saturation phase. */
constexpr size_t kWindow = 8;
/** Saturated rate on the reference machine (sizes phase 2 only). */
constexpr double kSaturatedRate = 8000.0;
/** Latency limit of one open-loop request for slo_met_ratio. */
constexpr double kSloUs = 5000.0;
/** Every kCheckStride-th cold reply is re-predicted by the scalar path. */
constexpr size_t kCheckStride = 16;
/** Cold checks per fresh provider (bounds the checker's memo growth). */
constexpr size_t kChecksPerProvider = 16;
/** Rows per GEMM call when a traced run replays the cold requests. */
constexpr size_t kReplayBatch = 16;

struct Request
{
    size_t region = 0;
    UarchParams params;
    bool hot = false;
    size_t hotIndex = 0;    ///< into the hot set, when hot
};

/** What came back for one request. */
struct Reply
{
    Clock::time_point due{};
    Clock::time_point sendStart{};
    Clock::time_point encoded{};
    Clock::time_point received{};
    ServeStatus status = ServeStatus::INTERNAL_ERROR;
    double cpi = 0.0;
    bool answered = false;
    int64_t opSpan = -1;
};

/** A raw client connection: the benchmark encodes and decodes frames
 *  itself, so the wire calls can be timed. */
class Connection
{
  public:
    explicit Connection(uint16_t port)
    {
        fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd < 0)
            throw std::runtime_error("socket() failed");
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr))
            != 0) {
            ::close(fd);
            throw std::runtime_error(std::string("connect failed: ")
                                     + std::strerror(errno));
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    ~Connection() { ::close(fd); }
    /** Unblock a reader waiting on this connection. */
    void shutdown() { ::shutdown(fd, SHUT_RDWR); }
    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    void
    send(const std::vector<uint8_t> &bytes)
    {
        std::lock_guard<std::mutex> lock(sendMtx);
        size_t done = 0;
        while (done < bytes.size()) {
            const ssize_t n = ::send(fd, bytes.data() + done,
                                     bytes.size() - done, MSG_NOSIGNAL);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                throw std::runtime_error(std::string("send failed: ")
                                         + std::strerror(errno));
            }
            done += static_cast<size_t>(n);
        }
    }

    /** Next complete frame payload (after the length prefix); false on
     *  close. `received` is when its last byte was read. */
    bool
    nextFrame(std::vector<uint8_t> &payload, Clock::time_point &received)
    {
        for (;;) {
            if (buf.size() - head >= wire::kLengthPrefixBytes) {
                uint32_t len = 0;
                for (size_t b = 0; b < 4; ++b)
                    len |= static_cast<uint32_t>(buf[head + b]) << (8 * b);
                if (len > wire::kMaxPayloadBytes)
                    throw std::runtime_error("oversized response frame");
                if (buf.size() - head >= wire::kLengthPrefixBytes + len) {
                    const uint8_t *at =
                        buf.data() + head + wire::kLengthPrefixBytes;
                    payload.assign(at, at + len);
                    head += wire::kLengthPrefixBytes + len;
                    received = lastRead;
                    return true;
                }
            }
            if (head > 0) {
                buf.erase(buf.begin(),
                          buf.begin() + static_cast<ptrdiff_t>(head));
                head = 0;
            }
            const size_t old = buf.size();
            buf.resize(old + 65536);
            const ssize_t n = ::read(fd, buf.data() + old, 65536);
            lastRead = Clock::now();
            if (n <= 0) {
                buf.resize(old);
                if (n < 0 && errno == EINTR)
                    continue;
                return false;
            }
            buf.resize(old + static_cast<size_t>(n));
        }
    }

  private:
    int fd = -1;
    std::mutex sendMtx;
    std::vector<uint8_t> buf;
    size_t head = 0;
    Clock::time_point lastRead{};
};

struct Workload
{
    std::vector<RegionSpec> regions;
    std::vector<UarchParams> hotPoints;     ///< per region, same set
    std::vector<Request> requests;
    std::vector<double> arrivals;           ///< open-loop offsets (s)
};

Workload
generate(uint64_t seed, size_t open_count, size_t sat_count)
{
    Workload w;
    Rng rng(hashMix(seed, 0x5E4FEULL));
    for (size_t k = 0; k < kRegionsPerProgram; ++k) {
        for (int program : benchPrograms())
            w.regions.push_back(
                sampleRegionFromProgram(rng, program, kRegionChunks));
    }
    for (size_t h = 0; h < kHotPointsPerRegion; ++h)
        w.hotPoints.push_back(UarchParams::sampleRandom(rng));
    const size_t hot_set = w.regions.size() * w.hotPoints.size();
    double t = 0.0;
    for (size_t i = 0; i < open_count + sat_count; ++i) {
        Request r;
        if (i % kHotPattern < kHotPerPattern) {
            r.hot = true;
            r.hotIndex = rng.nextBounded(hot_set);
            r.region = r.hotIndex / w.hotPoints.size();
            r.params = w.hotPoints[r.hotIndex % w.hotPoints.size()];
        } else {
            // Fresh core parameters over one of the warmed memory and
            // branch configurations: the request runs the bound models,
            // encoding and the GEMM, while the region's trace analysis
            // stays warm, as in a long-running server.
            r.region = rng.nextBounded(w.regions.size());
            r.params = UarchParams::sampleRandom(rng);
            const UarchParams &side =
                w.hotPoints[rng.nextBounded(w.hotPoints.size())];
            r.params.memory = side.memory;
            r.params.branch = side.branch;
        }
        w.requests.push_back(r);
        if (i < open_count) {
            t += -std::log(1.0 - rng.nextDouble()) / kOpenRate;
            w.arrivals.push_back(t);
        }
    }
    return w;
}

PredictRequest
toRequest(const Workload &w, const Request &r)
{
    PredictRequest req;
    req.model = kModelName;
    req.region = w.regions[r.region];
    req.params = r.params;
    req.cls = r.hot ? RequestClass::Interactive : RequestClass::Bulk;
    return req;
}

/** Encode request `id`, under a span when traced. */
void
encodeFrame(const Workload &w, size_t id, bool traced, Reply &reply,
            std::vector<uint8_t> &out)
{
    wire::RequestFrame frame;
    frame.requestId = id;
    frame.request = toRequest(w, w.requests[id]);
    out.clear();
    if (traced) {
        reply.opSpan = reserveSpanId();
        Span s("wire.encode", id, reply.opSpan, 1);
        wire::encodeRequest(frame, out);
    } else {
        wire::encodeRequest(frame, out);
    }
    reply.encoded = Clock::now();
}

/** Decode one reply into `replies`; in a traced run, a reply to a traced
 *  request records its spans. */
bool
decodeFrame(const std::vector<uint8_t> &payload, Clock::time_point received,
            bool traced, std::vector<Reply> &replies)
{
    wire::ResponseFrame frame;
    const int64_t t0 = traced ? spanClockNs() : 0;
    if (!wire::decodeResponse(payload.data(), payload.size(), frame)
        || frame.requestId >= replies.size())
        return false;
    Reply &r = replies[frame.requestId];
    r.received = received;
    r.status = frame.response.status;
    r.cpi = frame.response.cpi;
    r.answered = true;
    if (traced && r.opSpan >= 0) {
        const uint64_t op = frame.requestId;
        recordSpan("wire.decode", op, r.opSpan, t0, spanClockNs(), 1);
        recordSpan("serve.round_trip", op, r.opSpan, spanClockNs(r.encoded),
                   spanClockNs(received), 0);
        recordSpan("client.lag", op, r.opSpan, spanClockNs(r.due),
                   spanClockNs(r.sendStart), 0);
        recordSpanWithId(r.opSpan, "op", op, -1, spanClockNs(r.due),
                         spanClockNs(), 0);
    }
    return true;
}

/**
 * Open loop over requests [begin, end): the generator sends each at its
 * due time, alternating connections; one receiver per connection. In a
 * traced run every even request is traced, so traced and untraced
 * requests share the server state and the overhead compares like with
 * like.
 */
void
openLoop(const Workload &w, size_t begin, size_t end, bool traced,
         std::vector<std::unique_ptr<Connection>> &conns,
         std::vector<Reply> &replies)
{
    std::vector<std::thread> receivers;
    std::atomic<bool> protocol_error{false};
    for (size_t c = 0; c < kConnections; ++c) {
        size_t expect = 0;
        for (size_t i = begin; i < end; ++i)
            expect += (i % kConnections) == c;
        receivers.emplace_back([&, c, expect] {
            std::vector<uint8_t> payload;
            Clock::time_point received;
            try {
                for (size_t got = 0; got < expect; ++got) {
                    if (!conns[c]->nextFrame(payload, received)
                        || !decodeFrame(payload, received, traced, replies)) {
                        protocol_error = true;
                        return;
                    }
                }
            } catch (const std::exception &) {
                protocol_error = true;
            }
        });
    }

    const Clock::time_point start = Clock::now();
    const double offset = w.arrivals[begin] - 1e-3;
    std::vector<uint8_t> bytes;
    for (size_t i = begin; i < end && !protocol_error; ++i) {
        Reply &r = replies[i];
        r.due = start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(w.arrivals[i]
                                                          - offset));
        // Sleep through long gaps; spin-yield the last stretch so the
        // send is not late by a scheduler quantum.
        if (r.due - Clock::now() > std::chrono::microseconds(300))
            std::this_thread::sleep_until(r.due
                                          - std::chrono::microseconds(200));
        while (Clock::now() < r.due)
            std::this_thread::yield();
        r.sendStart = Clock::now();
        encodeFrame(w, i, traced && i % 2 == 0, r, bytes);
        try {
            conns[i % kConnections]->send(bytes);
        } catch (const std::exception &) {
            protocol_error = true;
        }
    }
    // On a failure, unblock receivers still waiting for replies to
    // requests that were never sent.
    if (protocol_error) {
        for (auto &conn : conns)
            conn->shutdown();
    }
    for (auto &t : receivers)
        t.join();
    if (protocol_error)
        throw std::runtime_error("open loop: connection closed or bad frame");
}

/**
 * Saturation over requests [begin, end): each connection keeps kWindow
 * requests in flight, sending the next as each reply lands. Returns the
 * phase's wall time.
 */
double
saturate(const Workload &w, size_t begin, size_t end,
         std::vector<std::unique_ptr<Connection>> &conns,
         std::vector<Reply> &replies)
{
    std::atomic<bool> protocol_error{false};
    std::vector<std::thread> clients;
    const Clock::time_point start = Clock::now();
    for (size_t c = 0; c < kConnections; ++c) {
        clients.emplace_back([&, c] {
            std::vector<size_t> mine;
            for (size_t i = begin; i < end; ++i) {
                if (i % kConnections == c)
                    mine.push_back(i);
            }
            std::vector<uint8_t> bytes, payload;
            Clock::time_point received;
            size_t sent = 0;
            const auto send_next = [&] {
                const size_t i = mine[sent++];
                Reply &r = replies[i];
                r.due = r.sendStart = Clock::now();
                encodeFrame(w, i, false, r, bytes);
                conns[c]->send(bytes);
            };
            try {
                while (sent < std::min(kWindow, mine.size()))
                    send_next();
                for (size_t got = 0; got < mine.size(); ++got) {
                    if (!conns[c]->nextFrame(payload, received)
                        || !decodeFrame(payload, received, false, replies)) {
                        protocol_error = true;
                        return;
                    }
                    if (sent < mine.size())
                        send_next();
                }
            } catch (const std::exception &) {
                protocol_error = true;
            }
        });
    }
    for (auto &t : clients)
        t.join();
    if (protocol_error)
        throw std::runtime_error("saturation: connection closed or bad frame");
    return secondsBetween(start, Clock::now());
}

/**
 * Traced runs only: replay every cold open-loop request that came back
 * OK through the layer calls of the service's miss path, each under a
 * span -- FeatureProvider::assemble per row (analytical), then one
 * predictCpiFromFeatures per kReplayBatch rows of a region (ml) -- and
 * require each CPI to equal its reply bitwise. A region's trace and side
 * analyses are built first, outside the spans, as the warmed service
 * holds them.
 */
void
replayColdPath(const Workload &w, size_t open_count,
               const ConcordePredictor &predictor,
               const std::vector<Reply> &replies,
               std::vector<std::string> &mismatch, uint64_t &model_runs)
{
    std::vector<std::vector<size_t>> cold(w.regions.size());
    for (size_t i = 0; i < open_count; ++i) {
        if (!w.requests[i].hot && replies[i].answered
            && replies[i].status == ServeStatus::OK)
            cold[w.requests[i].region].push_back(i);
    }
    const size_t dim = predictor.layout().dim();
    std::vector<float> features, row;
    row.reserve(dim);
    for (size_t g = 0; g < w.regions.size(); ++g) {
        AnalysisStore store;
        const std::shared_ptr<RegionAnalysis> analysis =
            store.acquire(w.regions[g]);
        for (const UarchParams &p : w.hotPoints)
            analysis->analyzeAll(p.memory, p.branch);
        FeatureProvider provider(analysis, predictor.featureConfig());
        for (size_t b = 0; b < cold[g].size(); b += kReplayBatch) {
            const size_t n = std::min(kReplayBatch, cold[g].size() - b);
            Span batch("replay", cold[g][b], n);
            features.assign(n * dim, 0.0f);
            for (size_t k = 0; k < n; ++k) {
                const size_t i = cold[g][b + k];
                const size_t runs0 = provider.modelRuns();
                {
                    Span s("analytical.assemble", i, 1);
                    row.clear();
                    provider.assemble(w.requests[i].params, row);
                }
                model_runs += provider.modelRuns() - runs0;
                std::copy(row.begin(), row.end(), features.begin() + k * dim);
            }
            std::vector<double> cpis;
            {
                Span s("ml.gemm", cold[g][b], n);
                cpis = predictor.predictCpiFromFeatures(features, n, 1);
            }
            for (size_t k = 0; k < n; ++k) {
                const size_t i = cold[g][b + k];
                if (digestBits(&cpis[k], 1) != digestBits(&replies[i].cpi, 1))
                    mismatch[i] = "cold reply differs from the replayed "
                                  "assemble + GEMM";
            }
        }
    }
}

QueueStats
queueDelta(const QueueStats &a, const QueueStats &b)
{
    QueueStats d = b;
    d.batches -= a.batches;
    d.flushOnSize -= a.flushOnSize;
    d.flushOnDeadline -= a.flushOnDeadline;
    for (size_t s = 0; s < a.batchSizeCounts.size()
                       && s < d.batchSizeCounts.size(); ++s)
        d.batchSizeCounts[s] -= a.batchSizeCounts[s];
    return d;
}

} // anonymous namespace

void
runServeMixed(const Options &opt, RunReport &report)
{
    // Open-loop and saturated request counts follow from --seconds. The
    // per-layer metrics describe the open loop, so a traced run spends
    // all of its time there.
    const size_t open_count = opsFor(
        opt.seconds * (opt.trace ? 1.0 : kOpenShare), kOpenRate, 2000);
    const size_t sat_count = opt.trace ? 0
        : opsFor(opt.seconds * (1.0 - kOpenShare), kSaturatedRate, 2000);
    const Workload w = generate(opt.seed, open_count, sat_count);

    ServeConfig sc;
    sc.poolThreads = 1;
    sc.mlpThreads = 1;
    sc.cacheCapacity = 1 << 18;
    // The latency reservoir holds exactly the open-loop phase, so the
    // set-up's priming requests are out of the window when it is read.
    sc.latencyWindow = open_count;
    PredictionService service(sc);
    service.loadModel(kModelName, opt.model);
    if (service.warmRegions(kModelName, w.regions, w.hotPoints)
        != ServeStatus::OK)
        throw std::runtime_error("warmRegions failed");
    NetServer server(service);
    server.start();
    std::vector<std::unique_ptr<Connection>> conns;
    for (size_t c = 0; c < kConnections; ++c)
        conns.push_back(std::make_unique<Connection>(server.port()));
    report.add("setup_s", secondsSinceProcessStart(), "s", 1);
    if (opt.setupOnly) {
        conns.clear();
        server.stop();
        service.shutdown();
        return;
    }

    std::vector<Reply> replies(w.requests.size());
    const ServeStats before = service.stats();
    double sat_seconds = 0.0;
    openLoop(w, 0, open_count, opt.trace, conns, replies);
    const ServeStats open_stats = service.stats();
    if (sat_count > 0)
        sat_seconds = saturate(w, open_count, open_count + sat_count, conns,
                               replies);
    const ServeStats after = service.stats();
    if (!opt.trace)
        report.add("peak_rss_mb", peakRssMb(), "MB", 1);
    conns.clear();
    server.stop();
    service.shutdown();

    // ---- checks (outside the timed part) ----
    const ModelArtifact artifact = ModelArtifact::load(opt.model);
    const ConcordePredictor predictor = artifact.predictor();
    std::vector<double> hot_expect(w.regions.size() * w.hotPoints.size());
    for (size_t g = 0; g < w.regions.size(); ++g) {
        FeatureProvider provider(w.regions[g], predictor.featureConfig());
        for (size_t h = 0; h < w.hotPoints.size(); ++h)
            hot_expect[g * w.hotPoints.size() + h] =
                predictor.predictCpi(provider, w.hotPoints[h]);
    }
    // Cold checks, grouped by region through short-lived providers.
    std::vector<std::vector<size_t>> cold_checks(w.regions.size());
    for (size_t i = 0, cold = 0; i < w.requests.size(); ++i) {
        if (!w.requests[i].hot && cold++ % kCheckStride == 0)
            cold_checks[w.requests[i].region].push_back(i);
    }
    std::vector<std::string> mismatch(w.requests.size());
    for (size_t g = 0; g < w.regions.size(); ++g) {
        std::unique_ptr<FeatureProvider> provider;
        for (size_t k = 0; k < cold_checks[g].size(); ++k) {
            if (k % kChecksPerProvider == 0)
                provider = std::make_unique<FeatureProvider>(
                    w.regions[g], predictor.featureConfig());
            const size_t i = cold_checks[g][k];
            const double expect =
                predictor.predictCpi(*provider, w.requests[i].params);
            if (replies[i].answered
                && digestBits(&expect, 1) != digestBits(&replies[i].cpi, 1))
                mismatch[i] = "cold reply differs from scalar predictCpi";
        }
    }
    uint64_t model_runs = 0;
    if (opt.trace)
        replayColdPath(w, open_count, predictor, replies, mismatch,
                       model_runs);

    report.attempted = w.requests.size();
    std::vector<double> latency_us, rtt_us, lag_us;
    std::vector<double> traced_rtt_us, untraced_rtt_us;
    size_t slo_met = 0, sat_ok = 0;
    for (size_t i = 0; i < w.requests.size(); ++i) {
        const Reply &r = replies[i];
        std::string why = mismatch[i];
        if (!r.answered)
            why = "no reply";
        else if (r.status != ServeStatus::OK)
            why = std::string("status ") + serveStatusName(r.status);
        else if (!std::isfinite(r.cpi) || r.cpi <= 0.0)
            why = "non-finite or non-positive CPI";
        else if (w.requests[i].hot
                 && digestBits(&r.cpi, 1)
                        != digestBits(&hot_expect[w.requests[i].hotIndex], 1))
            why = "hot reply differs from scalar predictCpi";
        if (!why.empty())
            report.fail(i, why);
        if (i >= open_count) {
            sat_ok += why.empty();
            continue;
        }
        const double lat = secondsBetween(r.due, r.received) * 1e6;
        const double rtt = secondsBetween(r.sendStart, r.received) * 1e6;
        latency_us.push_back(lat);
        (r.opSpan >= 0 ? traced_rtt_us : untraced_rtt_us).push_back(rtt);
        rtt_us.push_back(rtt);
        lag_us.push_back(secondsBetween(r.due, r.sendStart) * 1e6);
        slo_met += why.empty() && lat <= kSloUs;
    }

    if (!opt.trace) {
        const size_t n = latency_us.size();
        report.add("throughput_per_s", sat_ok / sat_seconds, "1/s", sat_count);
        report.add("latency_p50_us", percentile(latency_us, 0.5), "us", n);
        report.add("latency_p90_us", percentile(latency_us, 0.9), "us", n);
        if (tailSupported(n, 0.99))
            report.add("latency_p99_us", percentile(latency_us, 0.99), "us",
                       n);
        report.add("slo_met_ratio", static_cast<double>(slo_met) / n, "ratio",
                   n);
        return;
    }

    const std::vector<SpanRecord> spans = collectSpans();
    if (!opt.spansOut.empty())
        writeSpans(spans, opt.spansOut);
    const SpanTotals enc = totalsFor(spans, "wire.encode");
    const SpanTotals dec = totalsFor(spans, "wire.decode");
    report.add("wire.encode_ns_per_frame",
               static_cast<double>(enc.ns) / enc.work, "ns/frame", enc.work);
    report.add("wire.decode_ns_per_frame",
               static_cast<double>(dec.ns) / dec.work, "ns/frame", dec.work);
    const SpanTotals assemble = totalsFor(spans, "analytical.assemble");
    const SpanTotals gemm = totalsFor(spans, "ml.gemm");
    report.add("analytical.assemble_us_per_row",
               static_cast<double>(assemble.ns) / 1e3 / assemble.work,
               "us/row", assemble.work);
    report.add("analytical.model_runs_per_row",
               static_cast<double>(model_runs) / assemble.work, "count",
               assemble.work);
    report.add("ml.gemm_ns_per_row", static_cast<double>(gemm.ns) / gemm.work,
               "ns/row", gemm.work);

    const QueueStats q = queueDelta(before.queue, open_stats.queue);
    uint64_t rows = 0;
    for (size_t s = 0; s < q.batchSizeCounts.size(); ++s)
        rows += s * q.batchSizeCounts[s];
    report.add("serve.mean_batch_size",
               q.batches ? static_cast<double>(rows) / q.batches : 0.0,
               "count", q.batches);
    report.add("serve.deadline_flush_share",
               q.batches ? static_cast<double>(q.flushOnDeadline) / q.batches
                         : 0.0,
               "ratio", q.batches);
    const uint64_t hits = after.cache.hits - before.cache.hits;
    const uint64_t lookups = hits + after.cache.misses - before.cache.misses;
    report.add("serve.cache_hit_ratio",
               lookups ? static_cast<double>(hits) / lookups : 0.0, "ratio",
               lookups);
    report.add("serve.service_latency_p99_us", open_stats.latency.p99Us, "us",
               open_stats.latency.count);
    report.add("serve.socket_overhead_p50_us",
               percentile(rtt_us, 0.5) - open_stats.latency.p50Us, "us",
               rtt_us.size());
    report.add("serve.generator_lag_p99_us", percentile(lag_us, 0.99), "us",
               lag_us.size());
    report.add("serve.request_latency_p99_us", percentile(latency_us, 0.99),
               "us", latency_us.size());
    addWorkloadLayerMetrics(
        report,
        std::accumulate(traced_rtt_us.begin(), traced_rtt_us.end(), 0.0)
            / std::max<size_t>(1, traced_rtt_us.size()),
        std::accumulate(untraced_rtt_us.begin(), untraced_rtt_us.end(), 0.0)
            / std::max<size_t>(1, untraced_rtt_us.size()),
        untracedShare(spans, {"op", "replay"}), traced_rtt_us.size());
}

} // namespace perfbench
