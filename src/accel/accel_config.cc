#include "src/accel/accel_config.hh"

#include <vector>

#include "src/sim/log.hh"

namespace gmoms
{

namespace
{

void
validateBank(const char* which, const MomsBankConfig& b,
             std::vector<std::string>& problems)
{
    const std::string p = std::string(which) + " bank: ";
    if (b.num_mshrs == 0)
        problems.push_back(p + "num_mshrs must be > 0 (a bank with no "
                               "MSHRs can never miss)");
    if (!b.assoc_mshr && b.mshr_tables == 0)
        problems.push_back(p + "mshr_tables must be > 0 for the cuckoo "
                               "MSHR file");
    if (!b.assoc_mshr && b.mshr_tables > 0 &&
        b.num_mshrs % b.mshr_tables != 0)
        problems.push_back(
            p + "num_mshrs must be a multiple of mshr_tables (the "
                "cuckoo ways partition the file evenly); got " +
            std::to_string(b.num_mshrs) + " MSHRs over " +
            std::to_string(b.mshr_tables) + " tables");
    if (b.num_subentries == 0)
        problems.push_back(p + "num_subentries must be > 0");
    if (b.req_queue_depth == 0 || b.resp_queue_depth == 0)
        problems.push_back(p + "request/response queue depths must be "
                               "> 0");
    if (b.req_latency == 0 || b.resp_latency == 0)
        problems.push_back(p + "req/resp latencies must be >= 1 (the "
                               "engine's token-visibility invariant "
                               "requires every link latency >= 1 cycle)");
    if (b.cache_bytes > 0 && b.cache_ways == 0)
        problems.push_back(p + "cache_ways must be > 0 when a cache "
                               "array is present (set cache_bytes = 0 "
                               "to disable the array instead)");
}

} // namespace

std::vector<std::string>
AccelConfig::validateProblems() const
{
    std::vector<std::string> problems;

    if (num_pes == 0)
        problems.push_back("num_pes must be > 0");
    if (num_pes > SubentryStore::kMaxClients)
        problems.push_back(
            "num_pes must be <= " +
            std::to_string(SubentryStore::kMaxClients) +
            " (MOMS subentries hold a 16-bit client index); got " +
            std::to_string(num_pes));

    switch (mem.kind) {
      case MemKind::Ddr4:
        if (mem.channels == 0 || mem.channels > 8)
            problems.push_back(
                "mem.channels must be in [1, 8] for DDR4 (the f1 shell "
                "exposes at most 4; 8 covers dual-card what-ifs); got " +
                std::to_string(mem.channels));
        break;
      case MemKind::Hbm2:
        if (mem.channels < 2 || mem.channels > 32)
            problems.push_back(
                "mem.channels must be in [2, 32] for HBM2 (pseudo-"
                "channels come in pairs; one 8-high stack exposes 32); "
                "got " + std::to_string(mem.channels));
        break;
      default:
        problems.push_back("mem.kind must be Ddr4 or Hbm2");
        break;
    }
    if (mem.interleave_bytes < kLineBytes ||
        mem.interleave_bytes > kInterleaveBytes ||
        !isPow2(mem.interleave_bytes))
        problems.push_back(
            "mem.interleave_bytes must be a power of two in [" +
            std::to_string(kLineBytes) + ", " +
            std::to_string(kInterleaveBytes) +
            "] (at least one cache line, at most the DRAM-image "
            "section alignment); got " +
            std::to_string(mem.interleave_bytes));
    if (mem.timing.row_bytes == 0 || !isPow2(mem.timing.row_bytes))
        problems.push_back(
            "mem.timing.row_bytes must be a nonzero power of two (the "
            "open-row tracker masks addresses); got " +
            std::to_string(mem.timing.row_bytes));
    if (mem.timing.bus_bytes_per_cycle == 0)
        problems.push_back("mem.timing.bus_bytes_per_cycle must be > 0");
    if (mem.timing.num_banks == 0)
        problems.push_back("mem.timing.num_banks must be > 0");
    if (mem.timing.port_queue_depth == 0 ||
        mem.timing.resp_queue_depth == 0)
        problems.push_back("mem.timing port/response queue depths must "
                           "be > 0");
    if (moms.dynaburst &&
        static_cast<std::uint64_t>(moms.dynaburst_cfg.window_lines) *
                kLineBytes > mem.interleave_bytes)
        problems.push_back(
            "moms.dynaburst_cfg.window_lines (" +
            std::to_string(moms.dynaburst_cfg.window_lines) +
            " lines) must fit in one interleave unit (" +
            std::to_string(mem.interleave_bytes) +
            " B): assembled bursts may not straddle channels");

    if (nd == 0) {
        problems.push_back("nd (destination interval) must be > 0");
    } else {
        if (ns == 0 || ns % nd != 0)
            problems.push_back(
                "ns must be a nonzero multiple of nd (destination "
                "intervals may never straddle source intervals); got "
                "nd=" + std::to_string(nd) + ", ns=" +
                std::to_string(ns));
        if (nd > 32768)
            problems.push_back("nd must be <= 32768: the compressed "
                               "edge word carries a 15-bit destination "
                               "offset; got " + std::to_string(nd));
        if (ns > 65536)
            problems.push_back("ns must be <= 65536: the compressed "
                               "edge word carries a 16-bit source "
                               "offset; got " + std::to_string(ns));
    }

    if (max_threads == 0)
        problems.push_back("max_threads must be > 0 (no outstanding "
                           "source reads means no progress)");
    if (edge_burst_lines == 0 || max_edge_bursts == 0)
        problems.push_back("edge_burst_lines and max_edge_bursts must "
                           "be > 0 (PEs stream edges in bursts)");
    if (init_burst_lines == 0)
        problems.push_back("init_burst_lines must be > 0");
    if (init_outstanding_bursts == 0)
        problems.push_back("init_outstanding_bursts must be > 0 (no "
                           "outstanding init bursts means no node "
                           "data ever arrives)");
    if (nodes_per_cycle == 0)
        problems.push_back("nodes_per_cycle must be > 0");
    if (max_cycles == 0)
        problems.push_back("max_cycles must be > 0");

    const bool has_shared =
        moms.topology != MomsConfig::Topology::Private;
    if (has_shared) {
        if (mem.channels > 0 &&
            (moms.num_shared_banks == 0 ||
             moms.num_shared_banks % mem.channels != 0))
            problems.push_back(
                "shared bank count must be a nonzero multiple of the "
                "channel count (static bank-to-channel binding, "
                "Section IV-B); got " +
                std::to_string(moms.num_shared_banks) + " banks on " +
                std::to_string(mem.channels) + " channels");
        if (moms.crossbar_queue_depth == 0)
            problems.push_back("moms.crossbar_queue_depth must be > 0");
        if (moms.crossing_latency == 0)
            problems.push_back("moms.crossing_latency must be >= 1 "
                               "(link latency contract)");
        validateBank("shared", moms.shared_bank, problems);
    }
    if (moms.topology != MomsConfig::Topology::Shared)
        validateBank("private", moms.private_bank, problems);

    if (telemetry.enabled && telemetry.window_cycles == 0)
        problems.push_back("telemetry.window_cycles must be > 0 when "
                           "telemetry is enabled");
    if (checks.enabled && checks.watchdog_interval == 0)
        problems.push_back("checks.watchdog_interval must be > 0 when "
                           "checks are enabled");

    if (cluster.boards == 0 ||
        cluster.boards > ClusterConfig::kMaxBoards)
        problems.push_back(
            "cluster.boards must be in [1, " +
            std::to_string(ClusterConfig::kMaxBoards) +
            "] (1 = single board); got " +
            std::to_string(cluster.boards));
    if (cluster.mode != ClusterConfig::Mode::Bsp &&
        cluster.mode != ClusterConfig::Mode::Async)
        problems.push_back("cluster.mode must be Bsp or Async");
    if (cluster.partitioner != ClusterConfig::Partitioner::BlockEdges &&
        cluster.partitioner != ClusterConfig::Partitioner::RoundRobin)
        problems.push_back("cluster.partitioner must be BlockEdges or "
                           "RoundRobin");
    if (cluster.enabled()) {
        if (cluster.link_bytes_per_cycle == 0 ||
            cluster.link_bytes_per_cycle > 4096)
            problems.push_back(
                "cluster.link_bytes_per_cycle must be in [1, 4096] "
                "(a serial link, not a magic zero-cost wire); got " +
                std::to_string(cluster.link_bytes_per_cycle));
        if (cluster.link_latency == 0 || cluster.link_latency > 1'000'000)
            problems.push_back(
                "cluster.link_latency must be in [1, 1000000] cycles "
                "(the engine's link-latency contract requires >= 1); "
                "got " + std::to_string(cluster.link_latency));
        if (cluster.link_credits == 0)
            problems.push_back("cluster.link_credits must be > 0 (a "
                               "pair with no credits can never send)");
        if (cluster.link_max_packet_bytes <
            ClusterConfig::kUpdateBytes)
            problems.push_back(
                "cluster.link_max_packet_bytes must hold at least one "
                "update (" +
                std::to_string(ClusterConfig::kUpdateBytes) +
                " bytes); got " +
                std::to_string(cluster.link_max_packet_bytes));
    }

    return problems;
}

void
AccelConfig::validate() const
{
    const std::vector<std::string> problems = validateProblems();
    if (problems.empty())
        return;
    std::string msg = "invalid AccelConfig (" + label() + "):";
    for (const std::string& p : problems)
        msg += "\n  - " + p;
    fatal(msg);
}

AccelConfig
AccelConfig::preset(MomsConfig moms, std::uint32_t pes,
                    std::uint32_t channels)
{
    AccelConfig cfg;
    cfg.num_pes = pes;
    cfg.mem = MemSubstrateConfig::ddr4(channels);
    cfg.moms = std::move(moms);
    return cfg;
}

AccelConfig
AccelConfig::paper18x16TwoLevel()
{
    return preset(MomsConfig::twoLevel(16, 2048), 18);
}

AccelConfig
AccelConfig::sharedMoms()
{
    return preset(MomsConfig::shared(16), 16);
}

AccelConfig
AccelConfig::privateMoms()
{
    return preset(MomsConfig::privateOnly(), 20);
}

AccelConfig
AccelConfig::traditionalNbc()
{
    return preset(MomsConfig::traditionalTwoLevel(16), 16);
}

AccelConfig
AccelConfig::hbmTwoLevel(std::uint32_t pseudo_channels,
                         std::uint32_t pes,
                         std::uint64_t private_cache_bytes)
{
    // One shared bank per pseudo-channel keeps the static binding
    // (banks % channels == 0) at its finest legal grain, so every
    // narrow bus has a dedicated miss handler in front of it.
    AccelConfig cfg = preset(
        MomsConfig::twoLevel(pseudo_channels, private_cache_bytes),
        pes);
    cfg.mem = MemSubstrateConfig::hbm2(pseudo_channels);
    // The 256 B interleave caps every node-array burst at a quarter
    // line-count of the DDR4 unit; pipeline init bursts so the fine
    // stripe costs bandwidth, not round-trip latency.
    cfg.init_outstanding_bursts = 8;
    return cfg;
}

} // namespace gmoms
