#ifndef PEREACH_CORE_INCREMENTAL_H_
#define PEREACH_CORE_INCREMENTAL_H_

#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "src/bes/bes.h"
#include "src/fragment/fragmentation.h"
#include "src/graph/graph.h"
#include "src/util/common.h"

namespace pereach {

/// Incremental partial evaluation for reachability — the paper's §8 future
/// work ("combine partial evaluation and incremental computation").
///
/// Observation: the equations localEval ships are almost query-independent —
/// X_v = ⋁ X_w over the virtual nodes w reachable from in-node v inside its
/// fragment. Only the has_true disjuncts depend on t, and only the X_s
/// equation depends on s. This class caches the query-independent boundary
/// equations per fragment and answers queries by adding the two
/// query-dependent pieces:
///  - one forward pass in s's fragment (s's own equation), and
///  - one backward pass in t's fragment (which in-nodes reach t locally).
///
/// On AddEdge(u, v), only the fragments whose cached equations can change
/// are recomputed: u's fragment always (its reachable sets grow); v's
/// fragment only through the structural rebuild (a new cross edge makes v an
/// in-node with a fresh equation). All other fragments' caches survive.
class IncrementalReachIndex {
 public:
  IncrementalReachIndex(const Graph& graph, std::vector<SiteId> partition,
                        size_t num_sites);

  /// q_r(s, t) against the current graph.
  bool Reach(NodeId s, NodeId t);

  /// Inserts edge (u, v) and invalidates only the affected caches. One call
  /// is one update epoch.
  void AddEdge(NodeId u, NodeId v);

  /// Inserts a batch of edges as ONE update epoch: affected caches are
  /// invalidated per edge (listener fires once per distinct touched
  /// fragment) but the structural rebuild — the expensive part of the writer
  /// path — runs once for the whole batch. This is the amortized writer path
  /// the QueryServer's update queue uses.
  void AddEdges(std::span<const std::pair<NodeId, NodeId>> edges);

  /// Number of update epochs applied (non-empty AddEdge / AddEdges calls).
  /// QueryServer's writer path checks its gate's committed epoch against
  /// this after every update, so the serving snapshot counter and the
  /// index's applied-update count cannot drift apart.
  uint64_t epoch() const { return epoch_; }

  /// Registers a callback invoked with every fragment id whose cached
  /// query-independent structure an AddEdge invalidates (u's fragment, and
  /// v's when the edge crosses fragments). External caches keyed by fragment
  /// — e.g. PartialEvalEngine::InvalidateFragment, which drops the site
  /// contexts of the engine's Cluster and the engine's boundary rows — hook
  /// here so all update flows share one invalidation path.
  void SetUpdateListener(std::function<void(SiteId)> listener) {
    update_listener_ = std::move(listener);
  }

  /// Number of per-fragment equation recomputations performed so far —
  /// the ablation benches compare this against card(F) * updates.
  size_t recompute_count() const { return recompute_count_; }

  const Fragmentation& fragmentation() const { return fragmentation_; }

 private:
  void RebuildStructure();
  void EnsureFragmentEquations(SiteId site);

  // Mutable edge list + labels; fragmentation is rebuilt from these.
  std::vector<std::pair<NodeId, NodeId>> edges_;
  std::vector<LabelId> labels_;
  std::vector<SiteId> partition_;
  size_t num_sites_;

  Fragmentation fragmentation_;
  // Cached query-independent equations per fragment: for each in-node, the
  // global ids of the virtual nodes it reaches locally.
  std::vector<std::vector<BoolEquation>> cached_equations_;
  std::vector<bool> cache_valid_;
  size_t recompute_count_ = 0;
  uint64_t epoch_ = 0;
  std::function<void(SiteId)> update_listener_;
};

}  // namespace pereach

#endif  // PEREACH_CORE_INCREMENTAL_H_
