#include "src/graph/graph.h"

#include <algorithm>

namespace pereach {

LabelId LabelDictionary::Intern(const std::string& name) {
  auto [it, inserted] = ids_.emplace(name, static_cast<LabelId>(names_.size()));
  if (inserted) names_.push_back(name);
  return it->second;
}

LabelId LabelDictionary::Find(const std::string& name) const {
  auto it = ids_.find(name);
  return it == ids_.end() ? kInvalidLabel : it->second;
}

const std::string& LabelDictionary::Name(LabelId id) const {
  PEREACH_CHECK_LT(id, names_.size());
  return names_[id];
}

std::span<const NodeId> Graph::InNeighbors(NodeId v) const {
  PEREACH_CHECK_LT(v, NumNodes());
  if (!reverse_built_) BuildReverse();
  return {rev_targets_.data() + rev_offsets_[v],
          rev_offsets_[v + 1] - rev_offsets_[v]};
}

bool Graph::HasEdge(NodeId u, NodeId v) const {
  auto out = OutNeighbors(u);
  return std::find(out.begin(), out.end(), v) != out.end();
}

void Graph::BuildReverse() const {
  const auto reversed_edges = [this](auto&& emit) {
    for (NodeId u = 0; u < NumNodes(); ++u) {
      for (NodeId v : OutNeighbors(u)) emit(v, u);
    }
  };
  CountSortCsr(NumNodes(), reversed_edges, &rev_offsets_, &rev_targets_);
  reverse_built_ = true;
}

NodeId GraphBuilder::AddNodes(size_t n, LabelId label) {
  const NodeId first = static_cast<NodeId>(labels_.size());
  labels_.insert(labels_.end(), n, label);
  return first;
}

NodeId GraphBuilder::AddNode(LabelId label) { return AddNodes(1, label); }

void GraphBuilder::SetLabel(NodeId v, LabelId label) {
  PEREACH_CHECK_LT(v, labels_.size());
  labels_[v] = label;
}

void GraphBuilder::AddEdge(NodeId u, NodeId v) {
  PEREACH_CHECK_LT(u, labels_.size());
  PEREACH_CHECK_LT(v, labels_.size());
  edges_.emplace_back(u, v);
}

Graph GraphBuilder::Build() && {
  Graph g;
  const size_t n = labels_.size();
  g.labels_ = std::move(labels_);
  const auto edge_list = [this](auto&& emit) {
    for (const auto& [u, v] : edges_) emit(u, v);
  };
  CountSortCsr(n, edge_list, &g.offsets_, &g.targets_);
  return g;
}

}  // namespace pereach
