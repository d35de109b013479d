#ifndef PEREACH_GRAPH_ALGORITHMS_H_
#define PEREACH_GRAPH_ALGORITHMS_H_

#include <functional>
#include <span>
#include <vector>

#include "src/graph/graph.h"
#include "src/util/bitset.h"
#include "src/util/common.h"

namespace pereach {

/// Forward BFS: flags[v] == true iff s reaches v (reflexively: flags[s]).
std::vector<bool> ReachableFrom(const Graph& g, NodeId s);

/// True iff s reaches t (s == t counts, via the empty path).
bool Reaches(const Graph& g, NodeId s, NodeId t);

/// Unweighted shortest-path distances from s; kInfDistance if unreachable.
/// Nodes farther than `max_dist` are left at kInfDistance (search is pruned).
std::vector<uint32_t> BfsDistances(const Graph& g, NodeId s,
                                   uint32_t max_dist = kInfDistance);

/// Unweighted distance from s to t (kInfDistance if unreachable).
uint32_t BfsDistance(const Graph& g, NodeId s, NodeId t);

/// Strongly connected components. Component ids are assigned in Tarjan
/// emission order, which is *reverse topological*: every edge of the
/// condensation goes from a higher component id to a lower one. This property
/// is what the bitset propagation below relies on.
struct SccResult {
  std::vector<uint32_t> component_of;  // node -> component id
  size_t num_components = 0;
};

/// The graph is given in CSR form over dense ids [0, n): the out-neighbors
/// of v are targets[offsets[v] .. offsets[v + 1]), so `offsets` holds n + 1
/// entries (or none, for the empty graph). The Graph overload forwards its
/// own CSR arrays.
SccResult StronglyConnectedComponents(std::span<const size_t> offsets,
                                      std::span<const NodeId> targets);
SccResult StronglyConnectedComponents(const Graph& g);

/// Condensation DAG of g: one node per SCC, deduplicated edges. Component c's
/// targets are exactly the other components its members point to, ascending
/// and without duplicates.
struct Condensation {
  SccResult scc;
  // Adjacency of the condensation in CSR form (component -> components).
  std::vector<size_t> offsets;
  std::vector<uint32_t> targets;
};

/// O(|V| + |E|) plus a sort of each component's own (de-duplicated)
/// out-list; there is no global edge sort. CSR input as above.
Condensation Condense(std::span<const size_t> offsets,
                      std::span<const NodeId> targets);
Condensation Condense(const Graph& g);

/// For every node v, the set of target indices i such that v reaches
/// targets[i] (reflexive: a target reaches itself). One pass over the SCC
/// condensation in reverse topological order with word-parallel bitset
/// unions — O((|V| + |E|) * |targets|/64). This is the engine behind the
/// paper's localEval (targets = virtual nodes ∪ {t}).
std::vector<Bitset> ReachableTargets(const Graph& g,
                                     const std::vector<NodeId>& targets);

/// Memory-bounded variant of ReachableTargets restricted to `sources`:
/// calls emit(source_index, target_index) for every pair with
/// sources[source_index] reaching targets[target_index] (reflexively).
/// Targets are processed in blocks of `block_bits`, bounding peak memory at
/// O(num_components * block_bits / 8) regardless of |targets|. Single pass
/// over the SCC condensation per block; emit runs on the calling thread.
void ForEachReachableTarget(
    const Graph& g, const std::vector<NodeId>& sources,
    const std::vector<NodeId>& targets, size_t block_bits,
    const std::function<void(uint32_t, uint32_t)>& emit);

/// Variant reusing a precomputed condensation of the same graph — the
/// per-fragment Tarjan pass is query-independent, so engines that serve many
/// queries over one fragment condense once and sweep per query.
void ForEachReachableTarget(
    const Condensation& cond, const std::vector<NodeId>& sources,
    const std::vector<NodeId>& targets, size_t block_bits,
    const std::function<void(uint32_t, uint32_t)>& emit);

/// Grouped variant of ForEachReachableTarget: sources in the same strongly
/// connected component have identical reachable sets, so emission happens
/// once per *source group* — emit(group_index, target_index). Returns the
/// group index of every source; group indices are dense, assigned in order
/// of first appearance over `sources`. This is the equation-merging
/// optimization of localEval: on graphs with a giant SCC it shrinks the
/// partial answer from |I| dense rows to one row plus |I| aliases.
std::vector<uint32_t> ForEachReachableTargetGrouped(
    const Graph& g, const std::vector<NodeId>& sources,
    const std::vector<NodeId>& targets, size_t block_bits,
    const std::function<void(uint32_t, uint32_t)>& emit);

/// Grouped variant over a precomputed condensation (see above).
std::vector<uint32_t> ForEachReachableTargetGrouped(
    const Condensation& cond, const std::vector<NodeId>& sources,
    const std::vector<NodeId>& targets, size_t block_bits,
    const std::function<void(uint32_t, uint32_t)>& emit);

/// Bounded multi-source-to-multi-target distances: calls
/// emit(source_index, target_index, dist) for every pair with
/// dist(sources[i], targets[j]) <= bound (including dist 0 when a source is
/// a target). Level-synchronous backward propagation of target bitsets along
/// reversed edges, blocked like ForEachReachableTarget:
/// O(bound * |E| * block_bits/64) per block, frontier-driven, plus
/// O(|V|) scratch per call. Meant for MANY sources against many targets
/// (the per-in-node dist rows, localEvald's full matrix), where one bitset
/// word serves 64 targets at once. A single-endpoint sweep is a plain
/// bounded BFS instead: it touches only the nodes within the bound
/// (FragmentContext::BoundedSweep).
void ForEachBoundedDistance(
    const Graph& g, const std::vector<NodeId>& sources,
    const std::vector<NodeId>& targets, uint32_t bound, size_t block_bits,
    const std::function<void(uint32_t, uint32_t, uint32_t)>& emit);

/// Full transitive closure as one |V|-bitset per node (reflexive).
/// Quadratic memory: intended for test oracles on small graphs.
std::vector<Bitset> TransitiveClosure(const Graph& g);

/// All-pairs unweighted distances (Floyd-Warshall, O(|V|^3)).
/// Test oracle for small graphs only.
std::vector<std::vector<uint32_t>> AllPairsDistances(const Graph& g);

/// Nodes in `order[i]` listed so that every edge (u, v) has u before v,
/// when g is a DAG; CHECK-fails on cyclic input. Used by tests.
std::vector<NodeId> TopologicalOrder(const Graph& g);

}  // namespace pereach

#endif  // PEREACH_GRAPH_ALGORITHMS_H_
