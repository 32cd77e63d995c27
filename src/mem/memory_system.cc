#include "src/mem/memory_system.hh"

#include <algorithm>
#include <bit>

#include "src/sim/log.hh"

namespace gmoms
{

MemorySystem::MemorySystem(Engine& engine, const MemSubstrateConfig& cfg,
                           std::uint32_t num_ports,
                           const std::string& name_prefix)
    : cfg_(cfg)
{
    if (cfg_.channels == 0)
        fatal("MemorySystem needs at least one channel");
    if (cfg_.interleave_bytes < kLineBytes ||
        cfg_.interleave_bytes > kInterleaveBytes ||
        !isPow2(cfg_.interleave_bytes))
        fatal("MemorySystem interleave must be a power of two in [" +
              std::to_string(kLineBytes) + ", " +
              std::to_string(kInterleaveBytes) + "] bytes; got " +
              std::to_string(cfg_.interleave_bytes));
    if (cfg_.channels > 64)
        fatal("MemorySystem supports at most 64 channels (one occupancy "
              "word per port); got " + std::to_string(cfg_.channels));
    interleave_shift_ = log2Exact(cfg_.interleave_bytes);
    pow2_channels_ = isPow2(cfg_.channels);
    channels_.reserve(cfg_.channels);
    for (std::uint32_t c = 0; c < cfg_.channels; ++c) {
        channels_.push_back(std::make_unique<DramChannel>(
            engine, name_prefix + cfg_.channelName(c), cfg_.kind,
            cfg_.timing, num_ports));
        engine.add(channels_.back().get());
    }
    resp_pending_.assign(num_ports, 0);
    resp_table_.resize(static_cast<std::size_t>(num_ports) * cfg_.channels);
    for (std::uint32_t p = 0; p < num_ports; ++p) {
        for (std::uint32_t c = 0; c < cfg_.channels; ++c) {
            TimedQueue<MemResp>& q = channels_[c]->respPort(p);
            resp_table_[static_cast<std::size_t>(p) * cfg_.channels + c] =
                &q;
            q.trackOccupancy(&resp_pending_[p], std::uint64_t{1} << c);
        }
    }
}

MemorySystem::MemorySystem(Engine& engine, const DramConfig& cfg,
                           std::uint32_t num_channels,
                           std::uint32_t num_ports,
                           const std::string& name_prefix)
    : MemorySystem(engine,
                   [&] {
                       MemSubstrateConfig s =
                           MemSubstrateConfig::ddr4(num_channels);
                       s.timing = cfg;
                       return s;
                   }(),
                   num_ports, name_prefix)
{
}

std::uint64_t
MemorySystem::totalBytesRead() const
{
    std::uint64_t total = 0;
    for (const auto& ch : channels_)
        total += ch->stats().bytes_read;
    return total;
}

std::uint64_t
MemorySystem::totalBytesWritten() const
{
    std::uint64_t total = 0;
    for (const auto& ch : channels_)
        total += ch->stats().bytes_written;
    return total;
}

bool
MemorySystem::idle() const
{
    for (const auto& ch : channels_)
        if (!ch->idle())
            return false;
    return true;
}

MemPort::MemPort(MemorySystem* sys, std::uint32_t port_index)
    : sys_(sys), resp_pending_(&sys->resp_pending_[port_index]),
      resp_(&sys->resp_table_[static_cast<std::size_t>(port_index) *
                               sys->numChannels()]),
      port_(port_index)
{
}

bool
MemPort::send(const MemReq& req)
{
    const Addr last = req.addr + req.bytes - 1;
    if (req.addr >> sys_->interleave_shift_ !=
        last >> sys_->interleave_shift_)
        panic("MemPort request crosses interleave boundary; the issuer "
              "must split bursts at " +
              std::to_string(sys_->cfg_.interleave_bytes) + " B");
    return sys_->channels_[sys_->channelOf(req.addr)]
        ->reqPort(port_).push(req);
}

bool
MemPort::canSend(Addr addr) const
{
    return sys_->channels_[sys_->channelOf(addr)]->reqPort(port_).canPush();
}

std::uint32_t
MemPort::interleaveBytes() const
{
    return sys_->cfg_.interleave_bytes;
}

std::optional<MemResp>
MemPort::receivePending()
{
    const std::uint64_t pending = *resp_pending_;
    // Round-robin from rr_ over the channels whose queue holds a
    // token: first channels >= rr_, then the wrap-around below it.
    const std::uint64_t from_rr = ~std::uint64_t{0} << rr_;
    for (std::uint64_t bits : {pending & from_rr, pending & ~from_rr}) {
        for (; bits != 0; bits &= bits - 1) {
            const std::uint32_t c =
                static_cast<std::uint32_t>(std::countr_zero(bits));
            TimedQueue<MemResp>& q = *resp_[c];
            if (q.canPop()) {
                rr_ = c + 1 == sys_->numChannels() ? 0 : c + 1;
                return q.pop();
            }
        }
    }
    return std::nullopt;
}

void
MemPort::bindClient(Component* c)
{
    const std::uint32_t n = sys_->numChannels();
    for (std::uint32_t ch = 0; ch < n; ++ch) {
        sys_->channels_[ch]->reqPort(port_).setProducer(c);
        resp_[ch]->setConsumer(c);
    }
}

Cycle
MemPort::responseReadyCycle() const
{
    Cycle next = kCycleNever;
    for (std::uint64_t bits = *resp_pending_; bits != 0; bits &= bits - 1)
        next = std::min(next, resp_[std::countr_zero(bits)]
                                  ->peekReadyCycle());
    return next;
}

} // namespace gmoms
