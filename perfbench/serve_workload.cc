/**
 * @file
 * serve-wt-mix: open-loop traffic over one v2 TCP connection against
 * an in-process GraphService behind net::TcpServer.
 *
 * Seeded random arrivals at a fixed rate per worker. A quarter of the
 * requests are fresh BFS/SSSP queries on WT from distinct sources,
 * each admitted, queued and simulated (30-40% of the simulated-job
 * capacity). The rest repeat a hot set of hub queries primed before
 * the window and are answered by the result cache (socket, decode,
 * cache lookup, encode, flush). The window is cut into segments, and
 * each segment is followed by a burst of fresh jobs submitted at once,
 * which measures capacity, so the bursts span the run as the window
 * does.
 *
 * Latency is timed from each request's due time: a hit until its
 * response arrives, a simulated job until it is terminal (the
 * client-observed submit delay plus the job's server-side
 * total_seconds from poll). Every job's values_checksum is checked
 * against an untimed direct Session run of the same query.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>

#include "perfbench/bench.hh"
#include "src/algo/golden.hh"
#include "src/algo/spec.hh"
#include "src/graph/datasets.hh"
#include "src/graph/reorder.hh"
#include "src/net/line_client.hh"
#include "src/net/tcp_server.hh"
#include "src/obs/json_check.hh"
#include "src/serve/protocol.hh"
#include "src/serve/service.hh"
#include "src/sim/rng.hh"

namespace perfbench
{

using namespace gmoms;
using namespace gmoms::serve;

namespace
{

constexpr int kSetups = 3;
/** Workers: at most 2, so the workers, the server's event loop and the
 *  client's two threads fit on a 4-CPU host. */
constexpr unsigned kMaxWorkers = 2;
constexpr std::size_t kHotQueries = 10;
/** Offered load per worker, fixed: 4/3 fresh jobs/s per worker, each
 *  0.22-0.3 s on a shared 4-CPU host (30-40% of the simulated-job
 *  capacity), plus 3 hot requests per fresh one. */
constexpr double kJobRatePerWorker = 4.0 / 3.0;
constexpr double kHotShare = 0.75;
constexpr unsigned kSegments = 5;
constexpr unsigned kBurstPerWorker = 6;  //!< per segment
/** The writer spins for the last stretch before each due time. */
constexpr std::chrono::microseconds kSpinBeforeDue{2000};
/** The generator has fallen behind when its p95 lateness exceeds this
 *  share of the mean gap between arrivals. */
constexpr double kMaxLatenessShare = 0.25;

const char* const kDataset = "WT";
const char* const kPreset = "paper18x16";

struct Query
{
    std::string algo;  //!< "BFS" or "SSSP"
    NodeId source = 0;
};

JobSpec
specFor(const Query& q)
{
    JobSpec spec;
    spec.tenant = "perfbench";
    spec.dataset = kDataset;
    spec.prep = Preprocessing::DbgHash;
    spec.algo = q.algo;
    spec.source = q.source;
    spec.preset = kPreset;
    return spec;
}

std::string
submitLine(const Query& q, const std::string& rid)
{
    Request req;
    req.v = kProtocolV2;
    req.request_id = rid;
    req.verb = Verb::Submit;
    req.spec = specFor(q);
    return encodeRequestLine(req);
}

std::string
verbLine(Verb verb, const std::string& rid, JobId id = 0)
{
    Request req;
    req.v = kProtocolV2;
    req.request_id = rid;
    req.verb = verb;
    req.poll_id = id;
    return encodeRequestLine(req);
}

/** A parsed v2 response. */
struct Reply
{
    bool ok = false;  //!< type "result" or "ok"
    std::string request_id;
    JsonValue result;  //!< the "result" object (null when absent)
};

Reply
parseReply(const std::optional<std::string>& line)
{
    Reply out;
    if (!line)
        return out;
    const std::optional<JsonValue> v = parseJson(*line);
    if (!v || !v->isObject())
        return out;
    const JsonValue* type = v->find("type");
    const JsonValue* rid = v->find("request_id");
    out.ok = type && type->isString() &&
             (type->string == "result" || type->string == "ok");
    if (rid && rid->isString())
        out.request_id = rid->string;
    if (const JsonValue* r = v->find("result"))
        out.result = *r;
    return out;
}

double
number(const JsonValue* obj, const char* key)
{
    const JsonValue* v = obj ? obj->find(key) : nullptr;
    return v && v->isNumber() ? v->number : 0.0;
}

std::uint64_t
uint64Of(const JsonValue* obj, const char* key)
{
    const JsonValue* v = obj ? obj->find(key) : nullptr;
    return v ? v->asUint64() : 0;
}

/** An in-process endpoint: service, epoll server and one client
 *  connection. Members are destroyed client first, service last. */
struct Endpoint
{
    std::unique_ptr<GraphService> service;
    std::unique_ptr<net::TcpServer> server;
    net::LineClient client;

    explicit Endpoint(unsigned workers)
    {
        ServiceConfig cfg;
        cfg.workers = workers;
        cfg.max_queue_depth = 4096;
        cfg.per_tenant_quota = 0;
        service = std::make_unique<GraphService>(cfg);
        GraphService* svc = service.get();
        server = std::make_unique<net::TcpServer>(
            net::TcpServerConfig{}, [svc](const std::string& line) {
                net::HandlerResult out;
                bool quit = false;
                out.line = handleRequestLine(*svc, line, quit);
                out.shutdown_server = quit;
                return out;
            });
        std::string error;
        if (!server->start(&error) ||
            !client.connect("127.0.0.1", server->port(), &error))
            throw std::runtime_error("serve endpoint: " + error);
    }

    ~Endpoint()
    {
        // The quit verb stops the loop from its own thread. Calling
        // shutdown() from here races the loop's teardown of its wake
        // descriptor (a ThreadSanitizer report), so that is only the
        // fallback for a broken connection.
        if (!client.roundTrip(verbLine(Verb::Quit, "quit")))
            server->shutdown(true);
        server->waitUntilStopped();
    }

    Endpoint(const Endpoint&) = delete;
    Endpoint& operator=(const Endpoint&) = delete;

    JsonValue
    stats()
    {
        const Reply r = parseReply(client.roundTrip(
            verbLine(Verb::Stats, "stats")));
        const JsonValue* s = r.result.find("stats");
        return s ? *s : JsonValue{};
    }
};

/** The query generator's view of WT: the same dataset the service
 *  builds, and the sources it may use. */
struct WtView
{
    std::shared_ptr<const CooGraph> graph;  //!< preprocessed
    std::vector<NodeId> sources;  //!< eligible traversal sources
    std::vector<NodeId> hubs;     //!< the kHotQueries highest-degree sources
    double build_s = 0, prep_s = 0;
};

WtView
buildWt()
{
    WtView out;
    WallTimer t;
    const CooGraph raw = buildDataset(datasetByTag(kDataset));
    out.build_s = t.elapsedSeconds();
    t.restart();
    const std::uint32_t nd =
        defaultIntervalsFor(raw.numNodes(), raw.numEdges()).first;
    out.graph = std::make_shared<const CooGraph>(
        applyPreprocessing(raw, Preprocessing::DbgHash, nd));
    out.prep_s = t.elapsedSeconds();
    // Eligible sources can reach the highest-out-degree node, so every
    // traversal covers its component, the giant one (the way Graph500
    // picks roots): one source reaching a handful of nodes next to one
    // covering the graph made job cost bimodal and the seed's mix of
    // the two dominate latency and capacity.
    const std::vector<std::uint32_t> od = out.graph->outDegrees();
    const NodeId top = static_cast<NodeId>(
        std::max_element(od.begin(), od.end()) - od.begin());
    CooGraph reversed(out.graph->numNodes());
    for (const Edge& e : out.graph->edges())
        reversed.addEdge(e.dst, e.src);
    const std::vector<std::uint32_t> to_top = goldenBfs(reversed, top);
    for (NodeId n = 0; n < out.graph->numNodes(); ++n)
        if (to_top[n] != kInfDist && n != top)
            out.sources.push_back(n);
    out.hubs = out.sources;
    std::stable_sort(out.hubs.begin(), out.hubs.end(),
                     [&od](NodeId a, NodeId b) { return od[a] > od[b]; });
    if (out.hubs.size() < kHotQueries)
        throw std::runtime_error("WT has too few eligible sources");
    out.hubs.resize(kHotQueries);
    return out;
}

/** What the direct Session run of a query gave. */
struct Truth
{
    std::uint64_t checksum = 0;
    std::size_t reached = 0;
};

/** Untimed direct Session runs of @p queries on @p workers threads. */
std::vector<Truth>
directRuns(const WtView& wt, const AccelConfig& cfg,
           const std::vector<Query>& queries, unsigned workers)
{
    std::vector<Truth> out(queries.size());
    std::vector<std::exception_ptr> errors(workers);
    std::vector<std::thread> pool;
    for (unsigned w = 0; w < workers; ++w)
        pool.emplace_back([&, w] {
            try {
                Session session(wt.graph, cfg);
                for (std::size_t i = w; i < queries.size(); i += workers) {
                    const Query& q = queries[i];
                    const SessionResult r = q.algo == "BFS"
                                                ? session.bfs(q.source)
                                                : session.sssp(q.source);
                    out[i].checksum = valuesChecksum(r.run.raw_values);
                    out[i].reached = static_cast<std::size_t>(
                        std::count_if(r.run.raw_values.begin(),
                                      r.run.raw_values.end(),
                                      [](std::uint32_t d) {
                                          return d != kInfDist;
                                      }));
                }
            } catch (...) {
                errors[w] = std::current_exception();
            }
        });
    for (std::thread& t : pool)
        t.join();
    for (const std::exception_ptr& e : errors)
        if (e)
            std::rethrow_exception(e);
    return out;
}

/** One request of the measured window or of a burst. */
struct Sent
{
    std::size_t query = 0;  //!< index into the query list
    bool hot = false;
    double due = 0;      //!< seconds from window start
    double sent_at = 0;  //!< when the writer sent it
    double recv_at = -1;  //!< when its submit response arrived
    Reply reply;
    JsonValue job;  //!< poll record, once polled
};

} // namespace

void
runServeWorkload(const Args& args, Metrics& m, Oracle& oracle,
                 Context& ctx)
{
    const unsigned workers =
        std::clamp(hostCpus() > 1 ? hostCpus() - 1 : 1u, 1u, kMaxWorkers);
    const double rate = kJobRatePerWorker * workers / (1.0 - kHotShare);
    const unsigned burst = (args.smoke ? 2 : kBurstPerWorker) * workers;
    const double segment_s = args.seconds / kSegments;
    ctx.note("workers", static_cast<std::uint64_t>(workers));
    ctx.note("offered_rate_hz", rate);
    ctx.note("client_threads", static_cast<std::uint64_t>(2));

    // Generator inputs (untimed): the hot set is WT's most popular
    // queries (its hub sources); fresh sources, arrival times and the
    // hot query of each hit come from the seed. Algorithms alternate.
    const WtView wt = buildWt();
    Rng rng(args.seed);
    std::vector<NodeId> pool;
    for (NodeId n : wt.sources)
        if (std::find(wt.hubs.begin(), wt.hubs.end(), n) == wt.hubs.end())
            pool.push_back(n);
    for (std::size_t i = pool.size(); i > 1; --i)
        std::swap(pool[i - 1], pool[rng.below(i)]);
    std::vector<Query> queries;
    for (std::size_t i = 0; i < kHotQueries; ++i)
        queries.push_back({i % 2 ? "SSSP" : "BFS", wt.hubs[i]});
    std::size_t next_source = 0;
    auto freshQuery = [&]() -> std::size_t {
        if (next_source >= pool.size())
            throw std::runtime_error("WT has too few eligible sources");
        queries.push_back(
            {next_source % 2 ? "SSSP" : "BFS", pool[next_source]});
        ++next_source;
        return queries.size() - 1;
    };

    // Arrivals: a Poisson process conditioned on its count, i.e. a
    // fixed number of fresh and of hot requests, each at a uniformly
    // random time. A free count let the seed swing the load by ~25%.
    const std::size_t fresh_count = static_cast<std::size_t>(
        std::llround(kJobRatePerWorker * workers * args.seconds));
    const std::size_t hot_count = static_cast<std::size_t>(std::llround(
        fresh_count * kHotShare / (1.0 - kHotShare)));
    std::vector<Sent> window(fresh_count + hot_count);
    for (std::size_t i = 0; i < window.size(); ++i) {
        window[i].due = rng.uniform() * args.seconds;
        window[i].hot = i >= fresh_count;
    }
    std::sort(window.begin(), window.end(),
              [](const Sent& a, const Sent& b) { return a.due < b.due; });
    for (Sent& s : window)
        s.query = s.hot ? rng.below(kHotQueries) : freshQuery();
    std::vector<Sent> bursts(burst * kSegments);
    for (Sent& s : bursts)
        s.query = freshQuery();

    // Set-up: start the service and server, connect, prime the hot set.
    std::vector<double> setups;
    std::unique_ptr<Endpoint> ep;
    for (int i = 0; i < kSetups; ++i) {
        ep.reset();
        WallTimer t;
        ep = std::make_unique<Endpoint>(workers);
        for (std::size_t q = 0; q < kHotQueries; ++q)
            oracle.check(parseReply(ep->client.roundTrip(submitLine(
                             queries[q], "p" + std::to_string(q))))
                             .ok,
                         "priming submit " + std::to_string(q));
        oracle.check(parseReply(ep->client.roundTrip(
                                    verbLine(Verb::Drain, "prime-drain")))
                         .ok,
                     "priming drain");
        setups.push_back(t.elapsedSeconds());
    }
    m.add("setup_s", median(setups), "s");
    const JsonValue before = ep->stats();

    // The window, segment by segment: this thread writes on schedule, a
    // reader thread matches responses by request id. Due, send and
    // receive times are seconds on the window's schedule.
    std::vector<std::string> lines(window.size());
    for (std::size_t i = 0; i < window.size(); ++i)
        lines[i] = submitLine(queries[window[i].query],
                              "q" + std::to_string(i));
    std::vector<std::string> received(window.size());
    bool reader_failed = false;
    double window_s = 0, burst_s = 0;
    net::TcpServer::Stats net_stats;
    std::size_t lo = 0;
    for (unsigned k = 0; k < kSegments; ++k) {
        const double origin = k * segment_s;
        std::size_t hi = lo;
        while (hi < window.size() &&
               (k + 1 == kSegments || window[hi].due < origin + segment_s))
            ++hi;
        const auto start = std::chrono::steady_clock::now();
        auto since = [&start, origin] {
            return origin + std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count();
        };
        std::thread reader([&, lo, hi] {
            for (std::size_t seen = lo; seen < hi; ++seen) {
                std::optional<std::string> line = ep->client.recvLine();
                const double now = since();
                Reply r = parseReply(line);
                const std::size_t idx =
                    r.request_id.size() > 1 && r.request_id[0] == 'q'
                        ? std::strtoull(r.request_id.c_str() + 1, nullptr,
                                        10)
                        : hi;
                if (idx < lo || idx >= hi || window[idx].recv_at >= 0) {
                    reader_failed = true;
                    return;
                }
                window[idx].recv_at = now;
                window[idx].reply = std::move(r);
                received[idx] = std::move(*line);
            }
        });
        for (std::size_t i = lo; i < hi; ++i) {
            // Sleep until shortly before the due time, then spin: a
            // sleeping thread's wake-up on a shared VM is late by up to
            // milliseconds, which would count into every latency.
            const auto due = start + std::chrono::duration_cast<
                                         std::chrono::steady_clock::duration>(
                                         std::chrono::duration<double>(
                                             window[i].due - origin));
            std::this_thread::sleep_until(due - kSpinBeforeDue);
            while (std::chrono::steady_clock::now() < due) {
            }
            window[i].sent_at = since();
            if (!ep->client.sendLine(lines[i]))
                break;
        }
        reader.join();
        window_s += since() - origin;
        lo = hi;
        if (k + 1 == kSegments)
            net_stats = ep->server->stats();
        oracle.check(parseReply(ep->client.roundTrip(verbLine(
                                    Verb::Drain,
                                    "window-drain" + std::to_string(k))))
                         .ok,
                     "window drain " + std::to_string(k));

        // The burst: its jobs submitted at once, then a drain barrier.
        const auto burst_start = std::chrono::steady_clock::now();
        for (std::size_t i = k * burst; i < (k + 1) * burst; ++i)
            ep->client.sendLine(submitLine(queries[bursts[i].query],
                                           "b" + std::to_string(i)));
        ep->client.sendLine(verbLine(Verb::Drain, "burst-drain"));
        for (std::size_t i = k * burst; i <= (k + 1) * burst; ++i) {
            Reply r = parseReply(ep->client.recvLine());
            if (i < (k + 1) * burst)
                bursts[i].reply = std::move(r);
            else
                oracle.check(r.ok && r.request_id == "burst-drain",
                             "burst drain " + std::to_string(k));
        }
        burst_s += std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - burst_start)
                       .count();
    }
    oracle.check(!reader_failed, "reader matched every window response");
    m.add("capacity_jobs_per_s",
          static_cast<double>(bursts.size()) / burst_s, "jobs/s");

    // Poll every job (untimed).
    auto pollAll = [&](std::vector<Sent>& sent, const char* tag) {
        for (std::size_t i = 0; i < sent.size(); ++i) {
            const JsonValue* id = sent[i].reply.result.find("id");
            if (!sent[i].reply.ok || !id)
                continue;
            const Reply r = parseReply(ep->client.roundTrip(verbLine(
                Verb::Poll, std::string(tag) + std::to_string(i),
                id->asUint64())));
            if (const JsonValue* job = r.result.find("job"))
                sent[i].job = *job;
        }
    };
    pollAll(window, "pw");
    pollAll(bursts, "pb");
    const JsonValue after = ep->stats();
    ep.reset();
    m.add("peak_rss_mb", peakRssMb(), "MiB");

    // Oracle: every job against a direct Session run of its query.
    const AccelConfig cfg = validateJobSpec(specFor(queries[0])).config;
    WallTimer oracle_timer;
    const std::vector<Truth> truth =
        directRuns(wt, cfg, queries, hostCpus());
    ctx.note("oracle_s", oracle_timer.elapsedSeconds());
    for (std::size_t q = 0; q < queries.size(); ++q)
        oracle.check(truth[q].reached > 1,
                     queries[q].algo + " from " +
                         std::to_string(queries[q].source) +
                         " reaches only its source");

    std::vector<double> hit_lat, job_lat, lateness, gteps;
    double sim_cycles = 0, sim_seconds = 0;
    std::vector<double> queue_wait, prep, sim;
    auto audit = [&](const Sent& s, const std::string& what) {
        const JsonValue* state = s.job.find("state");
        const bool completed =
            state && state->isString() && state->string == "completed";
        const JsonValue* fc = s.job.find("from_cache");
        const bool from_cache = fc && fc->kind == JsonValue::Kind::Bool &&
                                fc->boolean;
        oracle.check(s.reply.ok && completed && from_cache == s.hot,
                     what + (s.hot ? " (hot)" : " (fresh)") +
                         " was not completed" +
                         (s.hot ? " from the result cache"
                                : " by a simulation"));
        oracle.checksum(uint64Of(&s.job, "values_checksum"),
                        truth[s.query].checksum,
                        what + " vs direct Session run");
        return completed;
    };
    for (std::size_t i = 0; i < window.size(); ++i) {
        const Sent& s = window[i];
        lateness.push_back(s.sent_at - s.due);
        if (!audit(s, "window request " + std::to_string(i)))
            continue;
        const double submit_delay = s.recv_at - s.due;
        if (s.hot) {
            hit_lat.push_back(submit_delay);
            continue;
        }
        job_lat.push_back(submit_delay + number(&s.job, "total_seconds"));
        sim_cycles += number(&s.job, "cycles");
        sim_seconds += number(&s.job, "sim_seconds");
        gteps.push_back(number(&s.job, "gteps"));
        queue_wait.push_back(number(&s.job, "queue_seconds"));
        prep.push_back(number(&s.job, "prep_seconds"));
        sim.push_back(number(&s.job, "sim_seconds"));
    }
    for (std::size_t i = 0; i < bursts.size(); ++i)
        audit(bursts[i], "burst job " + std::to_string(i));

    const double late_p95 = percentile(lateness, 95);
    ctx.note("window_s", window_s);
    ctx.note("burst_s", burst_s);
    ctx.note("hit_samples", static_cast<std::uint64_t>(hit_lat.size()));
    ctx.note("hit_p95_ms", percentile(hit_lat, 95) * 1e3);
    ctx.note("job_samples", static_cast<std::uint64_t>(job_lat.size()));
    ctx.note("bursts", static_cast<std::uint64_t>(kSegments));
    ctx.note("burst_jobs", static_cast<std::uint64_t>(bursts.size()));
    ctx.note("lateness_p95_ms", late_p95 * 1e3);
    ctx.note("lateness_max_ms", percentile(lateness, 100) * 1e3);
    if (late_p95 > kMaxLatenessShare / rate) {
        ctx.valid = false;
        ctx.invalid_reason = "open-loop generator fell behind its schedule";
    }

    ctx.note("job_p90_ms", percentile(job_lat, 90) * 1e3);
    ctx.note("job_p95_ms", percentile(job_lat, 95) * 1e3);
    m.add("sim_cycles_per_s", sim_seconds > 0 ? sim_cycles / sim_seconds : 0,
          "cycles/s");
    m.add("sim_gteps", median(gteps), "GTEPS");
    m.add("hit_p50_ms", percentile(hit_lat, 50) * 1e3, "ms");
    m.add("job_p50_ms", percentile(job_lat, 50) * 1e3, "ms");
    if (!args.trace)
        return;

    // Serving layers: poll records, the stats verb and the server's
    // own per-request timings.
    m.add("serve.queue_wait_p50_ms", percentile(queue_wait, 50) * 1e3, "ms");
    m.add("serve.queue_wait_p95_ms", percentile(queue_wait, 95) * 1e3, "ms");
    m.add("serve.prep_p50_ms", percentile(prep, 50) * 1e3, "ms");
    m.add("serve.sim_p50_ms", percentile(sim, 50) * 1e3, "ms");
    const double hits = number(&after, "result_cache_hits") -
                        number(&before, "result_cache_hits");
    const double misses = number(&after, "result_cache_misses") -
                          number(&before, "result_cache_misses");
    m.add("serve.result_cache_hit_share",
          hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    m.add("serve.checkpoint_hits",
          number(&after, "checkpoint_hits") -
              number(&before, "checkpoint_hits"),
          "count");
    m.add("serve.checkpoint_misses",
          number(&after, "checkpoint_misses") -
              number(&before, "checkpoint_misses"),
          "count");
    m.add("serve.dataset_builds", number(&after, "cache_misses"), "count");
    auto p50us = [&net_stats](const char* layer) {
        const LatencyStats* s = net_stats.latency.find(layer);
        return s ? s->percentile(50) * 1e6 : 0.0;
    };
    m.add("net.handle_p50_us", p50us("net_handle"), "us");
    m.add("net.flush_p50_us", p50us("net_flush"), "us");

    // Protocol: decode the window's own request lines and re-encode
    // its responses (which must reproduce the bytes received).
    std::vector<double> decode_ns, encode_ns;
    std::vector<Response> responses;
    for (std::size_t i = 0; i < window.size(); ++i) {
        Response r;
        r.kind = Response::Kind::Result;
        r.v = kProtocolV2;
        r.request_id = window[i].reply.request_id;
        r.op = "submit";
        const JsonValue* fc = window[i].reply.result.find("from_cache");
        r.result.set("id", uint64Of(&window[i].reply.result, "id"))
            .set("from_cache", fc && fc->boolean);
        oracle.check(encodeResponseLine(r) == received[i],
                     "re-encoded response " + std::to_string(i) +
                         " differs from the bytes received");
        responses.push_back(std::move(r));
    }
    for (int pass = 0; pass < 5; ++pass) {
        WallTimer t;
        std::size_t problems = 0;
        for (const std::string& line : lines)
            problems += decodeRequestLine(line).problems.size();
        decode_ns.push_back(t.elapsedSeconds() * 1e9 /
                            static_cast<double>(lines.size()));
        oracle.check(problems == 0, "window request lines decode cleanly");
        t.restart();
        std::size_t bytes = 0;
        for (const Response& r : responses)
            bytes += encodeResponseLine(r).size();
        encode_ns.push_back(t.elapsedSeconds() * 1e9 /
                            static_cast<double>(responses.size()));
        oracle.check(bytes > 0, "responses encode");
    }
    m.add("protocol.decode_ns", median(decode_ns), "ns");
    m.add("protocol.encode_ns", median(encode_ns), "ns");

    // Simulation layers for one fresh BFS query of the workload: set-up
    // phases, an untimed-order direct run and its traced twin.
    m.add("graph.build_s", wt.build_s, "s");
    m.add("graph.prep_s", wt.prep_s, "s");
    const auto bfs =
        std::find_if(queries.begin(), queries.end(),
                     [](const Query& q) { return q.algo == "BFS"; });
    if (bfs == queries.end())
        throw std::runtime_error("the workload has no BFS query");
    WallTimer t;
    Session session(wt.graph, cfg);
    session.partition();
    m.add("graph.partition_s", t.elapsedSeconds(), "s");
    const AlgoSpec spec = AlgoSpec::bfs(bfs->source);
    t.restart();
    {
        Accelerator accel(session.config(), session.partition(), spec);
    }
    m.add("accel.construct_s", t.elapsedSeconds(), "s");
    const SessionResult untraced = session.bfs(bfs->source);
    runLayerMetrics(untraced, m);
    tracedRun(session.config(), session.partition(), spec, untraced, m,
              oracle, ctx);
    momsProbe(m, false);
    memoryProbes(m);
}

} // namespace perfbench
