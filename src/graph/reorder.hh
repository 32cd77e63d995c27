/**
 * @file
 * Node reordering techniques (Section IV-E of the paper).
 *
 * All functions return a permutation `new_label` such that node i of the
 * input graph becomes node new_label[i]; apply with CooGraph::relabeled().
 */

#ifndef GMOMS_GRAPH_REORDER_HH
#define GMOMS_GRAPH_REORDER_HH

#include <cstdint>
#include <vector>

#include "src/graph/coo.hh"

namespace gmoms
{

/**
 * ForeGraph/FabGraph-style hash relabeling: node i goes to destination
 * interval (i mod Qd). Balances in-edges across intervals but destroys
 * label-space clusters.
 */
std::vector<NodeId> hashNodeIntervals(NodeId num_nodes, std::uint32_t nd);

/**
 * The paper's variant: keep 64-byte cache lines intact (16 consecutive
 * 32-bit node values) and deal whole lines round-robin among destination
 * intervals. Balances load while preserving intra-line reuse.
 */
std::vector<NodeId> hashCacheLines(NodeId num_nodes, std::uint32_t nd);

/**
 * Degree-Based Grouping [Faldu et al. IISWC'19]: coarsely partition nodes
 * into 8 groups by out-degree (highest degree first), preserving original
 * order within each group. O(N).
 */
std::vector<NodeId> dbgReorder(const CooGraph& g);

/** Compose permutations: apply @p first, then @p second. */
std::vector<NodeId> composePermutations(const std::vector<NodeId>& first,
                                        const std::vector<NodeId>& second);

/** Verify that @p perm is a permutation of [0, n). */
bool isPermutation(const std::vector<NodeId>& perm);

/** Preprocessing selector used by benches (Fig. 13 series). */
enum class Preprocessing
{
    None,        //!< partitioning only
    Hash,        //!< cache-line hashing
    Dbg,         //!< DBG only
    DbgHash,     //!< DBG then cache-line hashing (paper default)
};

/** Human-readable name for a Preprocessing value. */
const char* preprocessingName(Preprocessing p);

/**
 * Apply the selected preprocessing to @p g for destination intervals of
 * @p nd nodes; returns the relabeled graph.
 */
CooGraph applyPreprocessing(const CooGraph& g, Preprocessing p,
                            std::uint32_t nd);

} // namespace gmoms

#endif // GMOMS_GRAPH_REORDER_HH
