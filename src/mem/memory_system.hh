/**
 * @file
 * Multi-channel external memory behind a configurable address
 * interleave, with per-requester ports (Section IV-B of the paper).
 *
 * The substrate is pluggable: a MemSubstrateConfig picks the channel
 * timing (DDR4 channels vs HBM2 pseudo-channels, one DramChannel model
 * for both), the channel count and the interleave granularity.
 * Requesters only ever see MemPort.
 *
 * Response polling touches only queues that hold tokens: every
 * (port, channel) response queue keeps bit `channel` of its port's
 * occupancy word set while it is non-empty, so MemPort::receive()
 * costs one load when nothing is pending and never scans idle
 * channels.
 */

#ifndef GMOMS_MEM_MEMORY_SYSTEM_HH
#define GMOMS_MEM_MEMORY_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/mem/backing_store.hh"
#include "src/mem/dram_config.hh"
#include "src/mem/dram_channel.hh"
#include "src/mem/mem_substrate.hh"
#include "src/sim/engine.hh"

namespace gmoms
{

class MemorySystem;

/**
 * One requester's window onto all channels.
 *
 * send() routes by address to the owning channel; receive() polls the
 * requester's non-empty response queues round-robin. Requests must not
 * cross an interleave boundary — the issuing logic (DMA, MOMS bank)
 * splits at interleaveBytes().
 */
class MemPort
{
  public:
    MemPort() = default;
    MemPort(MemorySystem* sys, std::uint32_t port_index);

    /** Try to issue @p req; false when the target channel port is full. */
    bool send(const MemReq& req);

    /** Whether a send to @p addr would be accepted this cycle. */
    bool canSend(Addr addr) const;

    /** Pop one completed transaction, if any arrived. One load when
     *  no response is queued on any channel. */
    std::optional<MemResp>
    receive()
    {
        if (*resp_pending_ == 0)
            return std::nullopt;
        return receivePending();
    }

    /** Earliest cycle receive() may yield a response across all
     *  channels; kCycleNever when nothing is in flight in the response
     *  queues. Reports in-flight tokens (not just poppable ones) for
     *  the requester's quiescence check. */
    Cycle responseReadyCycle() const;

    /** Burst-split granularity the requester must respect. */
    std::uint32_t interleaveBytes() const;

    /**
     * Bind @p c as this port's requester for engine wake-ups: @p c is
     * woken when a response arrives on any channel and when a full
     * request queue frees a slot (a rejected send can be retried).
     */
    void bindClient(Component* c);

  private:
    /** receive() when some channel's response queue holds a token. */
    std::optional<MemResp> receivePending();

    MemorySystem* sys_ = nullptr;
    /** This port's occupancy word: bit c set while channel c's
     *  response queue for this port holds a token. */
    const std::uint64_t* resp_pending_ = nullptr;
    /** This port's row of the [port][channel] response-queue table. */
    TimedQueue<MemResp>* const* resp_ = nullptr;
    std::uint32_t port_ = 0;
    std::uint32_t rr_ = 0;  //!< next channel in receive() rotation

    friend class MemorySystem;
};

/**
 * The full external memory: N interleaved channels of the configured
 * substrate plus the functional backing store.
 */
class MemorySystem
{
  public:
    /**
     * @param cfg           substrate: kind, channel count, interleave,
     *                      per-channel timing.
     * @param num_ports     requester ports replicated on every channel.
     * @param name_prefix   prepended to component names ("b2." for
     *                      cluster board 2; empty single-board).
     */
    MemorySystem(Engine& engine, const MemSubstrateConfig& cfg,
                 std::uint32_t num_ports,
                 const std::string& name_prefix = "");

    /** Convenience: @p num_channels DDR4 channels with @p cfg timing
     *  at the default 2 KiB interleave (micro tests/benches). */
    MemorySystem(Engine& engine, const DramConfig& cfg,
                 std::uint32_t num_channels, std::uint32_t num_ports,
                 const std::string& name_prefix = "");

    /** Channel that owns byte address @p addr. */
    std::uint32_t
    channelOf(Addr addr) const
    {
        const Addr unit = addr >> interleave_shift_;
        return static_cast<std::uint32_t>(
            pow2_channels_ ? unit & (channels_.size() - 1)
                           : unit % channels_.size());
    }

    MemPort port(std::uint32_t p) { return MemPort(this, p); }

    std::uint32_t numChannels() const
    {
        return static_cast<std::uint32_t>(channels_.size());
    }

    std::uint32_t interleaveBytes() const
    {
        return cfg_.interleave_bytes;
    }

    const MemSubstrateConfig& substrate() const { return cfg_; }

    DramChannel& channel(std::uint32_t c) { return *channels_[c]; }
    const DramChannel& channel(std::uint32_t c) const
    {
        return *channels_[c];
    }

    BackingStore& store() { return store_; }
    const BackingStore& store() const { return store_; }

    /** Aggregate bytes moved on all channels. */
    std::uint64_t totalBytesRead() const;
    std::uint64_t totalBytesWritten() const;

    bool idle() const;

  private:
    MemSubstrateConfig cfg_;
    std::uint32_t interleave_shift_ = 0;  //!< log2(interleave_bytes)
    bool pow2_channels_ = false;
    std::vector<std::unique_ptr<DramChannel>> channels_;
    /** Per-port occupancy word over channels (see MemPort). */
    std::vector<std::uint64_t> resp_pending_;
    /** Response queues, [port * channels + channel]. */
    std::vector<TimedQueue<MemResp>*> resp_table_;
    BackingStore store_;

    friend class MemPort;
};

} // namespace gmoms

#endif // GMOMS_MEM_MEMORY_SYSTEM_HH
