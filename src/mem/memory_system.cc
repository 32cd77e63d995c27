#include "src/mem/memory_system.hh"

#include <algorithm>

#include "src/mem/dram_channel.hh"
#include "src/mem/hbm_channel.hh"
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
    channels_.reserve(cfg_.channels);
    for (std::uint32_t c = 0; c < cfg_.channels; ++c) {
        const std::string name = name_prefix + cfg_.channelName(c);
        if (cfg_.kind == MemKind::Hbm2)
            channels_.push_back(std::make_unique<HbmChannel>(
                engine, name, cfg_.timing, num_ports));
        else
            channels_.push_back(std::make_unique<DramChannel>(
                engine, name, cfg_.timing, num_ports));
        engine.add(channels_.back().get());
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

bool
MemPort::send(const MemReq& req)
{
    const std::uint32_t il = sys_->cfg_.interleave_bytes;
    const Addr last = req.addr + req.bytes - 1;
    if (req.addr / il != last / il)
        panic("MemPort request crosses interleave boundary; the issuer "
              "must split bursts at " + std::to_string(il) + " B");
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
MemPort::receive()
{
    const std::uint32_t n = sys_->numChannels();
    for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint32_t c = (rr_ + i) % n;
        auto& q = sys_->channels_[c]->respPort(port_);
        if (q.canPop()) {
            rr_ = (c + 1) % n;
            return q.pop();
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
        sys_->channels_[ch]->respPort(port_).setConsumer(c);
    }
}

Cycle
MemPort::responseReadyCycle() const
{
    const std::uint32_t n = sys_->numChannels();
    Cycle next = kCycleNever;
    for (std::uint32_t c = 0; c < n; ++c)
        next = std::min(next,
                        sys_->channels_[c]->respPort(port_)
                            .peekReadyCycle());
    return next;
}

} // namespace gmoms
