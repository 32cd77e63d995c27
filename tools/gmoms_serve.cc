/**
 * @file
 * gmoms_serve: the serving layer as a process. Two front ends over the
 * same protocol (src/serve/protocol.hh):
 *
 *   - stdin mode (default): JSON-lines over stdin/stdout, one request
 *     object per line, one response object per line — shell-scriptable,
 *     zero sockets;
 *   - TCP mode (--listen PORT): the epoll front end (src/net/) on
 *     --bind (loopback by default), any number of pipelining clients,
 *     graceful drain-and-exit on a quit request. The bound port is
 *     printed to stdout as `{"listening":PORT}` so drivers using an
 *     ephemeral port (--listen 0) can find it.
 *
 * Both speak v1 (PR 5 bare JSON-lines, answered bit-compatibly) and v2
 * (`"v":2` + `request_id`, tagged-union responses); see the protocol
 * header for the wire shapes and docs/MODEL.md for the schema.
 *
 * Service flags: --workers N (0-256), --paused (batch mode: dispatch
 * only on drain), --queue-depth N, --quota N, --cache-mb N,
 * --no-fallback, --result-cache-mb N, --no-result-cache, --rate-hz R
 * --rate-burst B (per-tenant token bucket; 0 = unlimited).
 * Network flags: --listen PORT (0-65535), --bind ADDR, --max-conns N.
 *
 * Every number must be a whole non-negative decimal token in its
 * range; anything else prints the usage and exits 2 before the
 * service is built. --help prints the usage and exits 0.
 *
 * Stats responses include the admission/cache/result-cache/
 * rate-limiter block (ServiceStats::toJson) and, in TCP mode, the
 * server's connection counters under "net".
 */

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>

#include "src/net/tcp_server.hh"
#include "src/serve/protocol.hh"
#include "src/serve/service.hh"

using namespace gmoms;
using namespace gmoms::serve;

namespace
{

constexpr const char* kUsage =
    "usage: gmoms_serve [--workers N] [--paused] [--queue-depth N]\n"
    "                   [--quota N] [--cache-mb N] [--no-fallback]\n"
    "                   [--result-cache-mb N] [--no-result-cache]\n"
    "                   [--rate-hz R] [--rate-burst B]\n"
    "                   [--listen PORT] [--bind ADDR] [--max-conns N]\n"
    "                   [--help]\n"
    "  --workers N    0-256 worker threads (0 = GMOMS_JOBS or the CPU "
    "count)\n"
    "  --listen PORT  0-65535 (0 = an ephemeral port)\n"
    "JSON-lines serving front end (stdin by default, epoll TCP\n"
    "with --listen); see the file header for the protocol.\n";

/** Print @p problem and the usage to stderr; the exit code for bad
 *  arguments. */
int
usageError(const std::string& problem)
{
    std::fprintf(stderr, "gmoms_serve: %s\n%s", problem.c_str(), kUsage);
    return 2;
}

/** @p text as a whole decimal token in [0, @p max]; nullopt for a
 *  sign, junk, an empty token or a value out of range. */
std::optional<std::uint64_t>
parseCount(const char* text, std::uint64_t max)
{
    std::uint64_t v = 0;
    const char* end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, v);
    if (ec != std::errc() || ptr != end || v > max)
        return std::nullopt;
    return v;
}

/** @p text as a whole finite decimal number without a sign. */
std::optional<double>
parseRate(const char* text)
{
    double v = 0;
    const char* end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, v);
    if (ec != std::errc() || ptr != end || !std::isfinite(v) ||
        std::signbit(v))
        return std::nullopt;
    return v;
}

int
runStdin(GraphService& service)
{
    std::string line;
    bool quit = false;
    while (!quit && std::getline(std::cin, line)) {
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        std::cout << handleRequestLine(service, line, quit) << "\n"
                  << std::flush;
    }
    // ~GraphService drains whatever is still in flight.
    return 0;
}

int
runTcp(GraphService& service, const net::TcpServerConfig& net_cfg)
{
    net::TcpServer server(net_cfg, [&](const std::string& line) {
        net::HandlerResult out;
        bool quit = false;
        // Stats requests get the server's own counters appended; one
        // snapshot per request keeps the handler allocation-light.
        const JsonReport net_json = server.stats().toJson();
        out.line = handleRequestLine(service, line, quit, &net_json);
        out.shutdown_server = quit;
        return out;
    });
    std::string error;
    if (!server.start(&error)) {
        std::fprintf(stderr, "gmoms_serve: %s\n", error.c_str());
        return 1;
    }
    std::cout << "{\"listening\":" << server.port() << "}\n"
              << std::flush;
    server.waitUntilStopped();
    const net::TcpServer::Stats net = server.stats();
    if (net.active != 0) {
        std::fprintf(stderr,
                     "gmoms_serve: %llu connection(s) leaked at exit\n",
                     static_cast<unsigned long long>(net.active));
        return 1;
    }
    // Drain admitted work before tearing the service down so the exit
    // code reflects a clean quiesce, not an abandoned queue.
    service.drain();
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    constexpr std::uint64_t kMaxSize = std::numeric_limits<std::size_t>::max();

    ServiceConfig cfg;
    net::TcpServerConfig net_cfg;
    bool tcp = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char* value = nullptr;  // the flag's value, once taken
        auto take = [&] {
            value = i + 1 < argc ? argv[++i] : nullptr;
            return value != nullptr;
        };
        // Take the value as a count in [0, max] and store it times
        // 2^shift in field; false if it is missing or bad.
        auto count = [&](std::uint64_t max, auto& field,
                         unsigned shift = 0) {
            const std::optional<std::uint64_t> n =
                take() ? parseCount(value, max >> shift) : std::nullopt;
            if (n)
                field = static_cast<std::remove_reference_t<
                    decltype(field)>>(*n << shift);
            return n.has_value();
        };
        auto rate = [&](double& field) {
            const std::optional<double> r =
                take() ? parseRate(value) : std::nullopt;
            if (r)
                field = *r;
            return r.has_value();
        };

        bool ok = true;
        if (arg == "--help" || arg == "-h") {
            std::fputs(kUsage, stdout);
            return 0;
        } else if (arg == "--workers") {
            ok = count(256, cfg.workers);
        } else if (arg == "--paused") {
            cfg.start_paused = true;
        } else if (arg == "--queue-depth") {
            ok = count(kMaxSize, cfg.max_queue_depth);
        } else if (arg == "--quota") {
            ok = count(kMaxSize, cfg.per_tenant_quota);
        } else if (arg == "--cache-mb") {
            ok = count(kMaxSize, cfg.cache_budget_bytes, 20);
        } else if (arg == "--no-fallback") {
            cfg.enable_fallback = false;
        } else if (arg == "--result-cache-mb") {
            ok = count(kMaxSize, cfg.result_cache_budget_bytes, 20);
        } else if (arg == "--no-result-cache") {
            cfg.enable_result_cache = false;
        } else if (arg == "--rate-hz") {
            ok = rate(cfg.rate_limit_hz);
        } else if (arg == "--rate-burst") {
            ok = rate(cfg.rate_limit_burst);
        } else if (arg == "--listen") {
            ok = count(65535, net_cfg.port);
            tcp = true;
        } else if (arg == "--bind") {
            ok = take();
            if (ok)
                net_cfg.bind_address = value;
        } else if (arg == "--max-conns") {
            ok = count(kMaxSize, net_cfg.max_connections);
        } else {
            return usageError("unknown flag '" + arg + "'");
        }
        if (!ok)
            return usageError(value ? "bad value '" + std::string(value) +
                                          "' for " + arg
                                    : arg + " needs a value");
    }

    GraphService service(cfg);
    return tcp ? runTcp(service, net_cfg) : runStdin(service);
}
