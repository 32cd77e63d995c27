#include "src/graph/layout.hh"

#include "src/sim/log.hh"

namespace gmoms
{

GraphLayout::GraphLayout(const PartitionedGraph& pg, const Options& opts)
    : has_const_(opts.has_const), synchronous_(opts.synchronous),
      weighted_(pg.weighted()), qs_(pg.qs()), qd_(pg.qd()),
      num_nodes_(pg.numNodes()), opts_(opts)
{
    if (!opts_.init_value)
        fatal("GraphLayout requires an init_value function");
    if (has_const_ && !opts_.const_value)
        fatal("GraphLayout: has_const set but no const_value function");

    const std::uint64_t node_bytes = 4ull * num_nodes_;
    Addr cursor = 0;
    v_in_base_ = cursor;
    cursor = alignUp(cursor + node_bytes, kInterleaveBytes);
    if (has_const_) {
        v_const_base_ = cursor;
        cursor = alignUp(cursor + node_bytes, kInterleaveBytes);
    }
    if (synchronous_) {
        v_out_base_ = cursor;
        cursor = alignUp(cursor + node_bytes, kInterleaveBytes);
    } else {
        v_out_base_ = v_in_base_;  // asynchronous: same array
    }

    edge_base_ = cursor;
    const std::uint32_t words_per_edge = weighted_ ? 2 : 1;
    // Each shard: its edges, one terminating edge, padded to 64 B.
    std::uint64_t edge_words = 0;
    for (std::uint32_t d = 0; d < qd_; ++d) {
        for (std::uint32_t s = 0; s < qs_; ++s) {
            const std::uint64_t w =
                (pg.shardSize(s, d) + 1) * words_per_edge;
            edge_words += ceilDiv(w, 16) * 16;  // 16 words = 64 B
        }
    }
    cursor = alignUp(cursor + 4ull * edge_words, kInterleaveBytes);
    ptr_base_ = cursor;
    cursor += 8ull * qs_ * qd_;
    total_bytes_ = alignUp(cursor, kInterleaveBytes);
}

void
GraphLayout::build(const PartitionedGraph& pg, BackingStore& store)
{
    if (store.size() < total_bytes_)
        store.resize(total_bytes_);

    for (NodeId n = 0; n < num_nodes_; ++n) {
        store.write32(vInAddr(n), opts_.init_value(n));
        if (has_const_)
            store.write32(vConstAddr(n), opts_.const_value(n));
        if (synchronous_)
            store.write32(vOutAddr(n), opts_.init_value(n));
    }

    const std::uint32_t words_per_edge = weighted_ ? 2 : 1;
    std::uint64_t word = edge_base_ / 4;
    for (std::uint32_t d = 0; d < qd_; ++d) {
        for (std::uint32_t s = 0; s < qs_; ++s) {
            const std::uint64_t start = word;
            for (const Edge& e : pg.shardEdges(s, d)) {
                const std::uint32_t src_off =
                    e.src - static_cast<NodeId>(s) * pg.ns();
                const std::uint32_t dst_off =
                    e.dst - pg.dstIntervalBase(d);
                store.write32(4 * word++,
                              edgeword::pack(src_off, dst_off));
                if (weighted_)
                    store.write32(4 * word++, e.weight);
            }
            // Terminating edge, then pad the remainder of the last line
            // with terminating words so out-of-order DMA never decodes
            // stale data.
            const std::uint64_t payload =
                (pg.shardSize(s, d) + 1) * words_per_edge;
            const std::uint64_t padded = ceilDiv(payload, 16) * 16;
            for (std::uint64_t i = payload - words_per_edge; i < padded;
                 ++i)
                store.write32(4 * (start + i), edgeword::kTerminating);
            word = start + padded;
            // All shards start active; the scheduler updates the flags
            // between iterations (Template 1, line 22).
            store.write64(ptrAddr(s, d),
                          edgeptr::pack(start, padded, true));
        }
    }
}

void
GraphLayout::swapInOut()
{
    if (!synchronous_)
        panic("swapInOut on an asynchronous layout");
    std::swap(v_in_base_, v_out_base_);
}

void
GraphLayout::setActive(BackingStore& store, std::uint32_t s,
                       std::uint32_t d, bool active) const
{
    std::uint64_t p = store.read64(ptrAddr(s, d));
    p = active ? (p | edgeptr::kActive) : (p & ~edgeptr::kActive);
    store.write64(ptrAddr(s, d), p);
}

bool
GraphLayout::isActive(const BackingStore& store, std::uint32_t s,
                      std::uint32_t d) const
{
    return edgeptr::isActive(store.read64(ptrAddr(s, d)));
}

} // namespace gmoms
