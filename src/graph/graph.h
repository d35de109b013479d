#ifndef PEREACH_GRAPH_GRAPH_H_
#define PEREACH_GRAPH_GRAPH_H_

#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/util/common.h"
#include "src/util/logging.h"

namespace pereach {

/// Builds a CSR over `num_nodes` dense ids by counting sort, straight from an
/// edge enumerator: `for_each_edge(emit)` calls emit(u, v) once per edge
/// u -> v and must enumerate the same sequence on each of its two calls (a
/// counting pass, then a placing pass). Each node's out-list keeps
/// enumeration order, and no edge-pair list is materialised.
template <typename ForEachEdge>
void CountSortCsr(size_t num_nodes, const ForEachEdge& for_each_edge,
                  std::vector<size_t>* offsets,
                  std::vector<uint32_t>* targets) {
  offsets->assign(num_nodes + 1, 0);
  for_each_edge([&](uint32_t u, uint32_t) { ++(*offsets)[u + 1]; });
  for (size_t i = 1; i <= num_nodes; ++i) (*offsets)[i] += (*offsets)[i - 1];
  targets->resize(offsets->back());
  std::vector<size_t> cursor(offsets->begin(), offsets->end() - 1);
  for_each_edge([&](uint32_t u, uint32_t v) { (*targets)[cursor[u]++] = v; });
}

/// Bidirectional mapping between label strings (e.g. "DB", "HR") and dense
/// LabelIds. A dictionary is shared by a graph and the queries posed on it.
class LabelDictionary {
 public:
  LabelDictionary() = default;

  /// Returns the id of `name`, interning it if new.
  LabelId Intern(const std::string& name);

  /// Returns the id of `name`, or kInvalidLabel if it was never interned.
  LabelId Find(const std::string& name) const;

  /// Returns the string for `id`; CHECK-fails on unknown ids.
  const std::string& Name(LabelId id) const;

  size_t size() const { return names_.size(); }

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, LabelId> ids_;
};

/// Immutable node-labeled directed graph G = (V, E, L) in CSR form
/// (forward adjacency; reverse adjacency built lazily on request).
/// Nodes are dense ids [0, NumNodes()); parallel edges are permitted and
/// harmless for reachability semantics.
class Graph {
 public:
  Graph() = default;

  size_t NumNodes() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  size_t NumEdges() const { return targets_.size(); }

  /// Out-neighbors of `v` in insertion order.
  std::span<const NodeId> OutNeighbors(NodeId v) const {
    PEREACH_CHECK_LT(v, NumNodes());
    return {targets_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  size_t OutDegree(NodeId v) const {
    PEREACH_CHECK_LT(v, NumNodes());
    return offsets_[v + 1] - offsets_[v];
  }

  /// In-neighbors of `v`. Builds the reverse CSR on first use.
  std::span<const NodeId> InNeighbors(NodeId v) const;

  LabelId label(NodeId v) const {
    PEREACH_CHECK_LT(v, labels_.size());
    return labels_[v];
  }

  const std::vector<LabelId>& labels() const { return labels_; }

  /// The forward CSR arrays: OutNeighbors(v) is
  /// targets()[offsets()[v] .. offsets()[v + 1]).
  std::span<const size_t> offsets() const { return offsets_; }
  std::span<const NodeId> targets() const { return targets_; }

  /// True if edge (u, v) exists (linear scan of u's list; test helper).
  bool HasEdge(NodeId u, NodeId v) const;

  /// Approximate in-memory size in bytes; used by the naive baselines to
  /// price "ship the whole fragment" network traffic.
  size_t ByteSize() const {
    return offsets_.size() * sizeof(size_t) + targets_.size() * sizeof(NodeId) +
           labels_.size() * sizeof(LabelId);
  }

 private:
  friend class GraphBuilder;

  std::vector<size_t> offsets_;    // size NumNodes()+1
  std::vector<NodeId> targets_;    // size NumEdges()
  std::vector<LabelId> labels_;    // size NumNodes()

  // Reverse CSR, built lazily by InNeighbors() (const-qualified caller, so
  // mutable; guarded by a build-once flag, not thread-safe on first call).
  mutable bool reverse_built_ = false;
  mutable std::vector<size_t> rev_offsets_;
  mutable std::vector<NodeId> rev_targets_;

  void BuildReverse() const;
};

/// Accumulates nodes and edges, then Build()s an immutable CSR Graph.
class GraphBuilder {
 public:
  GraphBuilder() = default;

  /// Pre-declares `n` nodes with label 0; returns the first new id.
  NodeId AddNodes(size_t n, LabelId label = 0);

  /// Adds one node with the given label and returns its id.
  NodeId AddNode(LabelId label = 0);

  /// Sets the label of an existing node.
  void SetLabel(NodeId v, LabelId label);

  /// Adds directed edge (u, v); both endpoints must already exist.
  void AddEdge(NodeId u, NodeId v);

  size_t NumNodes() const { return labels_.size(); }
  size_t NumEdges() const { return edges_.size(); }

  /// Finalizes into a CSR graph. The builder may be reused afterwards only
  /// after being reassigned.
  Graph Build() &&;

 private:
  std::vector<std::pair<NodeId, NodeId>> edges_;
  std::vector<LabelId> labels_;
};

}  // namespace pereach

#endif  // PEREACH_GRAPH_GRAPH_H_
