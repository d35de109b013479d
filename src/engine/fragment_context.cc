#include "src/engine/fragment_context.h"

#include <algorithm>
#include <map>

namespace pereach {

namespace {
constexpr size_t kRowBlockBits = 4096;
}  // namespace

const Condensation& FragmentContext::cond(const Fragment& f) {
  if (!cond_.has_value()) {
    cond_ = Condense(f.local_graph());
    ++section_builds_;
  }
  return *cond_;
}

void FragmentContext::EnsureOset(const Fragment& f) {
  if (oset_built_) return;
  oset_locals_.reserve(f.num_virtual());
  oset_globals_.reserve(f.num_virtual());
  oset_index_.reserve(f.num_virtual());
  oset_base_ = static_cast<NodeId>(f.num_local());
  for (NodeId v = static_cast<NodeId>(f.num_local());
       v < f.local_graph().NumNodes(); ++v) {
    const NodeId global = f.ToGlobal(v);
    oset_index_.emplace(global, static_cast<uint32_t>(oset_locals_.size()));
    oset_locals_.push_back(v);
    oset_globals_.push_back(global);
  }
  oset_built_ = true;
  ++section_builds_;
}

const std::vector<NodeId>& FragmentContext::oset_locals(const Fragment& f) {
  EnsureOset(f);
  return oset_locals_;
}

const std::vector<NodeId>& FragmentContext::oset_globals(const Fragment& f) {
  EnsureOset(f);
  return oset_globals_;
}

const std::vector<uint32_t>& FragmentContext::oset_comp(const Fragment& f) {
  if (oset_comp_.empty() && f.num_virtual() > 0) {
    EnsureOset(f);
    const Condensation& c = cond(f);
    oset_comp_.reserve(oset_locals_.size());
    for (NodeId v : oset_locals_) {
      oset_comp_.push_back(c.scc.component_of[v]);
    }
  }
  return oset_comp_;
}

uint32_t FragmentContext::OsetIndexOf(NodeId global) const {
  const auto it = oset_index_.find(global);
  return it == oset_index_.end() ? kNoIndex : it->second;
}

std::span<const NodeId> FragmentContext::BoundedSweep(const Fragment& f,
                                                      NodeId root,
                                                      uint32_t bound,
                                                      SweepDirection dir) {
  const Graph& g = f.local_graph();
  if (sweep_stamp_.empty()) {
    EnsureOset(f);
    sweep_stamp_.assign(g.NumNodes(), 0);
    sweep_hops_.assign(g.NumNodes(), 0);
    is_in_node_.assign(g.NumNodes(), 0);
    for (NodeId in : f.in_nodes()) is_in_node_[in] = 1;
    ++section_builds_;
  }
  if (++sweep_epoch_ == 0) {  // wrapped: stale stamps could collide
    std::fill(sweep_stamp_.begin(), sweep_stamp_.end(), 0);
    sweep_epoch_ = 1;
  }
  sweep_queue_.clear();
  sweep_queue_.push_back(root);
  sweep_stamp_[root] = sweep_epoch_;
  sweep_hops_[root] = 0;
  for (size_t head = 0; head < sweep_queue_.size(); ++head) {
    const NodeId v = sweep_queue_[head];
    // The queue is in hop order, so nothing from here on may expand.
    if (sweep_hops_[v] >= bound) break;
    const std::span<const NodeId> next = dir == SweepDirection::kForward
                                             ? g.OutNeighbors(v)
                                             : g.InNeighbors(v);
    for (NodeId w : next) {
      if (sweep_stamp_[w] == sweep_epoch_) continue;
      sweep_stamp_[w] = sweep_epoch_;
      sweep_hops_[w] = sweep_hops_[v] + 1;
      sweep_queue_.push_back(w);
    }
  }
  return sweep_queue_;
}

const FragmentContext::ReachRows& FragmentContext::reach_rows(
    const Fragment& f) {
  if (!rows_.has_value()) {
    EnsureOset(f);
    const Condensation& c = cond(f);
    ReachRows rows;
    // Dense group ids in first-appearance order over in_nodes() — the same
    // rule ForEachReachableTargetGrouped applies, so its emitted group ids
    // line up with these.
    std::unordered_map<uint32_t, uint32_t> group_of_comp;
    rows.in_group.reserve(f.in_nodes().size());
    for (NodeId in : f.in_nodes()) {
      const uint32_t comp = c.scc.component_of[in];
      const auto [it, inserted] = group_of_comp.emplace(
          comp, static_cast<uint32_t>(rows.group_rep.size()));
      if (inserted) {
        rows.group_rep.push_back(in);
        rows.group_comp.push_back(comp);
      }
      rows.in_group.push_back(it->second);
    }
    rows.rows.resize(rows.group_rep.size());
    if (!oset_locals_.empty()) {
      const std::vector<uint32_t> sweep_groups = ForEachReachableTargetGrouped(
          c, f.in_nodes(), oset_locals_, kRowBlockBits,
          [&rows](uint32_t group, uint32_t oset_idx) {
            rows.rows[group].push_back(oset_idx);
          });
      PEREACH_CHECK(sweep_groups == rows.in_group);
    }
    rows_ = std::move(rows);
    ++section_builds_;
  }
  return *rows_;
}

const FragmentContext::DistRows& FragmentContext::dist_rows(
    const Fragment& f) {
  if (!dist_rows_.has_value()) {
    EnsureOset(f);
    const std::vector<NodeId>& in_nodes = f.in_nodes();

    // Unbounded multi-source level propagation: ForEachBoundedDistance is
    // frontier-driven, so a bound beyond the local diameter terminates as
    // soon as the frontier empties — one sweep serves every query bound.
    std::vector<std::vector<std::pair<uint32_t, uint32_t>>> per_in(
        in_nodes.size());
    if (!oset_locals_.empty() && !in_nodes.empty()) {
      ForEachBoundedDistance(
          f.local_graph(), in_nodes, oset_locals_, kInfDistance - 1,
          kRowBlockBits,
          [&per_in](uint32_t in_idx, uint32_t oset_idx, uint32_t hops) {
            per_in[in_idx].emplace_back(oset_idx, hops);
          });
      // Emission is per BFS level, not per index; restore the ascending
      // index order the delta encoding relies on.
      for (auto& row : per_in) std::sort(row.begin(), row.end());
    }

    // Content grouping: in-nodes with bit-identical weighted rows share one
    // group (an SCC does NOT imply equal distances, so this is the exact
    // analogue of the reach rows' component grouping).
    DistRows rows;
    rows.in_group.reserve(in_nodes.size());
    std::map<std::vector<std::pair<uint32_t, uint32_t>>, uint32_t>
        group_of_row;
    for (size_t i = 0; i < in_nodes.size(); ++i) {
      const auto [it, inserted] = group_of_row.emplace(
          std::move(per_in[i]), static_cast<uint32_t>(rows.group_rep.size()));
      if (inserted) {
        rows.group_rep.push_back(in_nodes[i]);
        rows.rows.push_back(it->first);
      }
      rows.in_group.push_back(it->second);
    }
    dist_rows_ = std::move(rows);
    ++section_builds_;
  }
  return *dist_rows_;
}

const LabelIndex& FragmentContext::label_index(const Fragment& f) {
  if (!label_index_.has_value()) {
    label_index_ = LabelIndex::Build(f.local_graph());
    ++section_builds_;
  }
  return *label_index_;
}

void FragmentContext::BeginRpqRound() {
  rpq_round_start_tick_ = rpq_tick_ + 1;
  // A previous round with more distinct automata than the cap overshot
  // (its products were pinned); nothing is pinned anymore, so trim.
  while (rpq_products_.size() > kDefaultRpqCacheCap && EvictRpqLru()) {
  }
}

bool FragmentContext::EvictRpqLru() {
  auto victim = rpq_products_.end();
  for (auto slot = rpq_products_.begin(); slot != rpq_products_.end();
       ++slot) {
    if (slot->second.last_used >= rpq_round_start_tick_) continue;  // pinned
    if (victim == rpq_products_.end() ||
        slot->second.last_used < victim->second.last_used) {
      victim = slot;
    }
  }
  if (victim == rpq_products_.end()) return false;
  rpq_products_.erase(victim);
  ++rpq_evictions_;
  return true;
}

void FragmentContext::BuildRpqSkeleton(RpqProduct* p) {
  // The kept-component rule of ComputeBoundarySystem's kDag form: keep the
  // product components an in-pair group reaches that reach a frontier pair.
  // Frontier pairs sit at virtual nodes, which have no out-edges, so each is
  // a sink alone in its component; kept predecessors list it as a term
  // instead of pointing at a node of its own.
  const Condensation& cond = p->cond;
  const uint32_t k = static_cast<uint32_t>(cond.scc.num_components);
  std::vector<uint32_t> table_of_comp(k, kNoIndex);
  for (uint32_t i = 0; i < p->table_comp.size(); ++i) {
    PEREACH_CHECK_EQ(table_of_comp[p->table_comp[i]], kNoIndex);
    table_of_comp[p->table_comp[i]] = i;
  }
  // Component ids are reverse topological (every edge goes to a smaller
  // id): an ascending scan finds what reaches the frontier, a descending
  // scan what the groups reach.
  std::vector<uint8_t> reaches_frontier(k, 0);
  for (uint32_t c = 0; c < k; ++c) {
    bool r = table_of_comp[c] != kNoIndex;
    for (size_t e = cond.offsets[c]; e < cond.offsets[c + 1] && !r; ++e) {
      r = reaches_frontier[cond.targets[e]] != 0;
    }
    reaches_frontier[c] = r ? 1 : 0;
  }
  std::vector<uint8_t> reached(k, 0);
  for (const uint32_t c : p->group_comp) reached[c] = 1;
  for (uint32_t c = k; c-- > 0;) {
    if (reached[c] == 0) continue;
    for (size_t e = cond.offsets[c]; e < cond.offsets[c + 1]; ++e) {
      reached[cond.targets[e]] = 1;
    }
  }

  // Skeleton nodes: the groups, then one aux node per other kept component
  // in ascending component order.
  std::vector<uint32_t> node_of(k, kNoIndex);
  std::vector<uint32_t> node_comp = p->group_comp;
  for (uint32_t g = 0; g < node_comp.size(); ++g) node_of[node_comp[g]] = g;
  for (uint32_t c = 0; c < k; ++c) {
    if (reached[c] != 0 && reaches_frontier[c] != 0 &&
        table_of_comp[c] == kNoIndex && node_of[c] == kNoIndex) {
      node_of[c] = static_cast<uint32_t>(node_comp.size());
      node_comp.push_back(c);
    }
  }
  p->rows.assign(node_comp.size(), {});
  p->succs.assign(node_comp.size(), {});
  for (uint32_t node = 0; node < node_comp.size(); ++node) {
    const uint32_t c = node_comp[node];
    for (size_t e = cond.offsets[c]; e < cond.offsets[c + 1]; ++e) {
      const uint32_t succ = cond.targets[e];
      if (table_of_comp[succ] != kNoIndex) {
        p->rows[node].push_back(table_of_comp[succ]);
      } else if (reaches_frontier[succ] != 0) {
        p->succs[node].push_back(node_of[succ]);
      }
    }
    std::sort(p->rows[node].begin(), p->rows[node].end());
    std::sort(p->succs[node].begin(), p->succs[node].end());
  }
}

const FragmentContext::RpqProduct& FragmentContext::rpq_product(
    const Fragment& f, const std::string& signature_key,
    const QueryAutomaton& canonical) {
  const auto it = rpq_products_.find(signature_key);
  if (it != rpq_products_.end()) {
    it->second.last_used = ++rpq_tick_;
    return *it->second.product;
  }
  if (rpq_products_.size() >= kDefaultRpqCacheCap) EvictRpqLru();

  EnsureOset(f);
  const Graph& g = f.local_graph();
  const size_t n = g.NumNodes();
  const LabelIndex& labels = label_index(f);
  auto p = std::make_unique<RpqProduct>(canonical);

  // Compatibility mask per node: interior states matching the node's label.
  // Virtual nodes additionally carry u_t — any virtual node may be some
  // query's target, and an edge x -> w with u_t in out_mask(q_x) accepts at
  // w regardless of which query is asking, so the accept pairs (w, u_t) are
  // standing product sinks (u_t has no out-transitions).
  constexpr uint64_t kFinalBit = uint64_t{1} << QueryAutomaton::kFinal;
  p->compat.assign(n, 0);
  for (const auto& [label, nodes] : labels.groups) {
    const uint64_t mask = canonical.StatesWithLabel(label);
    for (NodeId v : nodes) p->compat[v] = mask;
  }
  for (NodeId w : oset_locals_) p->compat[w] |= kFinalBit;

  // Dense product ids: pid(v, q) = offset[v] + rank of q in compat[v] —
  // the same layout LocalEvalRegular uses.
  p->pid_offset.assign(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    p->pid_offset[v + 1] =
        p->pid_offset[v] +
        static_cast<uint64_t>(__builtin_popcountll(p->compat[v]));
  }
  const uint64_t num_product = p->pid_offset[n];
  PEREACH_CHECK_LT(num_product, uint64_t{1} << 32);

  // Materialize the interior product graph F_i x G_q and condense it once;
  // every query over this automaton reuses the condensation.
  GraphBuilder pb;
  pb.AddNodes(static_cast<size_t>(num_product));
  for (NodeId v = 0; v < n; ++v) {
    if (p->compat[v] == 0) continue;
    for (NodeId w : g.OutNeighbors(v)) {
      if (p->compat[w] == 0) continue;
      uint64_t qs = p->compat[v];
      while (qs != 0) {
        const uint32_t q = static_cast<uint32_t>(__builtin_ctzll(qs));
        qs &= qs - 1;
        uint64_t succs = canonical.out_mask(q) & p->compat[w];
        const NodeId from = p->pid(v, q);
        while (succs != 0) {
          const uint32_t q2 = static_cast<uint32_t>(__builtin_ctzll(succs));
          succs &= succs - 1;
          pb.AddEdge(from, p->pid(w, q2));
        }
      }
    }
  }
  p->cond = Condense(std::move(pb).Build());

  // Flattened frontier table: (oset position, state) ascending — which is
  // also ascending pid order, since oset locals are ascending local ids.
  std::vector<NodeId> targets;
  for (uint32_t j = 0; j < oset_locals_.size(); ++j) {
    const NodeId w = oset_locals_[j];
    uint64_t qs = p->compat[w];
    while (qs != 0) {
      const uint32_t q = static_cast<uint32_t>(__builtin_ctzll(qs));
      qs &= qs - 1;
      const NodeId product_node = p->pid(w, q);
      p->table_oset.push_back(j);
      p->table_state.push_back(static_cast<uint8_t>(q));
      p->table_comp.push_back(p->cond.scc.component_of[product_node]);
      targets.push_back(product_node);
    }
  }

  // In-pairs grouped by product SCC, dense group ids in first-appearance
  // order — the same rule ForEachReachableTargetGrouped applies, so its
  // emitted group ids line up with these (mirrors reach_rows).
  std::vector<NodeId> sources;
  std::unordered_map<uint32_t, uint32_t> group_of_comp;
  for (NodeId in : f.in_nodes()) {
    uint64_t qs = p->compat[in];
    while (qs != 0) {
      const uint32_t q = static_cast<uint32_t>(__builtin_ctzll(qs));
      qs &= qs - 1;
      const NodeId product_node = p->pid(in, q);
      const uint32_t comp = p->cond.scc.component_of[product_node];
      const auto [slot, inserted] = group_of_comp.emplace(
          comp, static_cast<uint32_t>(p->group_rep.size()));
      if (inserted) {
        p->group_rep.push_back(static_cast<uint32_t>(p->in_pairs.size()));
        p->group_comp.push_back(comp);
      }
      p->in_group.push_back(slot->second);
      p->in_pairs.emplace_back(in, static_cast<uint8_t>(q));
      sources.push_back(product_node);
    }
  }
  BuildRpqSkeleton(p.get());
  // Size rule (Theorem 3): the closure rows hold at most groups × table
  // entries, so a skeleton larger than that ships as closure rows instead.
  size_t skeleton_entries = 0;
  for (size_t node = 0; node < p->rows.size(); ++node) {
    skeleton_entries += p->rows[node].size() + p->succs[node].size();
  }
  if (skeleton_entries > p->group_rep.size() * targets.size()) {
    p->rows.assign(p->group_rep.size(), {});
    p->succs.assign(p->group_rep.size(), {});
    const std::vector<uint32_t> sweep_groups = ForEachReachableTargetGrouped(
        p->cond, sources, targets, kRowBlockBits,
        [&p](uint32_t group, uint32_t table_idx) {
          p->rows[group].push_back(table_idx);
        });
    PEREACH_CHECK(sweep_groups == p->in_group);
  }

  ++section_builds_;
  RpqCacheSlot slot;
  slot.product = std::move(p);
  slot.last_used = ++rpq_tick_;
  return *rpq_products_.emplace(signature_key, std::move(slot))
              .first->second.product;
}

}  // namespace pereach
