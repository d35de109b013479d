// Differential suite for the dist endpoint sweep frame: every frame
// EncodeDistSweepFrame writes must match a reference built from plain
// BfsDistances over the fragment's local graph (s side) and its reverse
// (t side), across random graphs x all partitioners x query bounds, plus the
// edge cases the frame folds specially (s == t, t's virtual copy at the s
// fragment, t as an in-node, both endpoints in one fragment). A second group
// pins the reusable per-context scratch: interleaved frames on one
// FragmentContext are byte-identical to frames on a fresh one, also across
// the stamp-epoch wrap.

#include "src/engine/site_runtime.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/engine/fragment_context.h"
#include "src/graph/algorithms.h"
#include "src/graph/generators.h"
#include "src/util/serialization.h"
#include "tests/test_util.h"

namespace pereach {
namespace {

using testing_util::AllPartitioners;

constexpr uint32_t kBounds[] = {0, 1, 3, 8, kInfDistance};

/// A decoded dist sweep frame.
struct SweepFrame {
  uint8_t flags = 0;
  uint64_t local_dist = kInfWeight;
  std::vector<std::pair<uint32_t, uint64_t>> s_out;  // (oset index, hops)
  std::vector<std::pair<NodeId, uint64_t>> t_in;     // (global, hops)
};

std::vector<uint8_t> Encode(const Fragment& f, FragmentContext* ctx, NodeId s,
                            NodeId t, uint32_t bound) {
  Encoder body;
  EncodeDistSweepFrame(f, ctx, s, t, bound, &body);
  return body.TakeBuffer();
}

SweepFrame Decode(const std::vector<uint8_t>& bytes) {
  Decoder dec(bytes);
  SweepFrame frame;
  frame.flags = dec.GetU8();
  if (frame.flags & kFrameHasLocalDist) frame.local_dist = dec.GetVarint();
  if (frame.flags & kFrameHasS) {
    uint32_t idx = 0;
    for (size_t n = dec.GetCount(2); n > 0; --n) {
      idx += static_cast<uint32_t>(dec.GetVarint());
      frame.s_out.emplace_back(idx, dec.GetVarint());
    }
  }
  if (frame.flags & kFrameHasT) {
    for (size_t n = dec.GetCount(2); n > 0; --n) {
      const NodeId global = static_cast<NodeId>(dec.GetVarint());
      frame.t_in.emplace_back(global, dec.GetVarint());
    }
  }
  EXPECT_TRUE(dec.Done());
  return frame;
}

Graph Reversed(const Graph& g) {
  GraphBuilder b;
  b.AddNodes(g.NumNodes());
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    for (NodeId w : g.OutNeighbors(v)) b.AddEdge(w, v);
  }
  return std::move(b).Build();
}

/// The frame localEvald's definition asks for, from single-source BFS.
SweepFrame Reference(const Fragment& f, const Graph& reversed, NodeId s,
                     NodeId t, uint32_t bound) {
  SweepFrame frame;
  const bool s_here = f.Contains(s);
  const bool t_here = f.Contains(t);
  if (!s_here && !t_here) return frame;
  if (s_here) {
    frame.flags |= kFrameHasS;
    const std::vector<uint32_t> dist =
        BfsDistances(f.local_graph(), f.ToLocal(s), bound);
    const NodeId t_copy = f.ToLocal(t);  // stored or virtual, if any
    if (t_copy != kInvalidNode && dist[t_copy] != kInfDistance) {
      frame.flags |= kFrameHasLocalDist;
      frame.local_dist = dist[t_copy];
    }
    for (size_t j = 0; j < f.num_virtual(); ++j) {
      const NodeId v = static_cast<NodeId>(f.num_local() + j);
      if (v == t_copy || dist[v] == kInfDistance) continue;
      frame.s_out.emplace_back(static_cast<uint32_t>(j), dist[v]);
    }
  }
  if (t_here) {
    frame.flags |= kFrameHasT;
    const std::vector<uint32_t> dist =
        BfsDistances(reversed, f.ToLocal(t), bound);
    for (NodeId in : f.in_nodes()) {
      if (dist[in] != kInfDistance) {
        frame.t_in.emplace_back(f.ToGlobal(in), dist[in]);
      }
    }
  }
  return frame;
}

/// Compares s_out exactly and t_in as a set (the entry order is not part
/// of the contract: the coordinator's Dijkstra seeds from all of them).
void ExpectMatches(SweepFrame got, SweepFrame want, const std::string& where) {
  std::sort(got.t_in.begin(), got.t_in.end());
  std::sort(want.t_in.begin(), want.t_in.end());
  EXPECT_EQ(got.flags, want.flags) << where;
  EXPECT_EQ(got.local_dist, want.local_dist) << where;
  EXPECT_EQ(got.s_out, want.s_out) << where;
  EXPECT_EQ(got.t_in, want.t_in) << where;
}

std::string Where(uint64_t seed, const Partitioner& p, SiteId site, NodeId s,
                  NodeId t, uint32_t bound) {
  return "seed=" + std::to_string(seed) + " partitioner=" + p.name() +
         " site=" + std::to_string(site) + " s=" + std::to_string(s) +
         " t=" + std::to_string(t) + " bound=" + std::to_string(bound);
}

/// Small random graphs of three shapes: sparse Erdos-Renyi graphs,
/// preferential-attachment graphs with hubs, and chains (bound truncation
/// at every depth).
Graph SampleGraph(uint64_t seed, Rng* rng) {
  const size_t n = 20 + rng->Uniform(40);
  switch (seed % 3) {
    case 0:
      return ErdosRenyi(n, n + rng->Uniform(2 * n), 2, rng);
    case 1:
      return PreferentialAttachment(n, 2, 2, rng);
    default:
      return Chain(n, 2, rng);
  }
}

TEST(DistSweepFrameTest, MatchesBfsReferenceAcrossPartitionersAndBounds) {
  size_t frames = 0, local_dist_frames = 0;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    const Graph g = SampleGraph(seed, &rng);
    const size_t n = g.NumNodes();
    const size_t k = 1 + seed % 5;
    for (const auto& partitioner : AllPartitioners()) {
      const Fragmentation frag =
          Fragmentation::Build(g, partitioner->Partition(g, k, &rng), k);
      for (SiteId site = 0; site < k; ++site) {
        const Fragment& f = frag.fragment(site);
        const Graph reversed = Reversed(f.local_graph());
        FragmentContext ctx;
        for (size_t q = 0; q < 30; ++q) {
          const NodeId s = static_cast<NodeId>(rng.Uniform(n));
          const NodeId t = static_cast<NodeId>(rng.Uniform(n));
          for (uint32_t bound : kBounds) {
            const SweepFrame got = Decode(Encode(f, &ctx, s, t, bound));
            ExpectMatches(got, Reference(f, reversed, s, t, bound),
                          Where(seed, *partitioner, site, s, t, bound));
            ++frames;
            local_dist_frames += (got.flags & kFrameHasLocalDist) != 0;
          }
        }
      }
    }
  }
  EXPECT_GT(frames, 0u);
  EXPECT_GT(local_dist_frames, 0u);
}

// The endpoint shapes the frame treats specially, enumerated per fragment
// rather than left to sampling.
TEST(DistSweepFrameTest, EdgeCasesMatchBfsReference) {
  size_t virtual_t = 0, in_node_t = 0, same_fragment = 0;
  for (uint64_t seed = 21; seed <= 26; ++seed) {
    Rng rng(seed);
    const Graph g = SampleGraph(seed, &rng);
    const size_t k = 3;
    for (const auto& partitioner : AllPartitioners()) {
      const Fragmentation frag =
          Fragmentation::Build(g, partitioner->Partition(g, k, &rng), k);
      for (SiteId site = 0; site < k; ++site) {
        const Fragment& f = frag.fragment(site);
        const Graph reversed = Reversed(f.local_graph());
        FragmentContext ctx;
        std::vector<std::pair<NodeId, NodeId>> cases;
        for (NodeId v = 0; v < f.num_local(); ++v) {
          const NodeId s = f.ToGlobal(v);
          cases.emplace_back(s, s);  // s == t
          // t's virtual copy at s's fragment: the cross edge's source.
          for (NodeId w : f.local_graph().OutNeighbors(v)) {
            if (!f.IsVirtual(w)) continue;
            cases.emplace_back(s, f.ToGlobal(w));
            ++virtual_t;
          }
        }
        for (NodeId in : f.in_nodes()) {  // t is an in-node: entry at hops 0
          const NodeId s = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
          cases.emplace_back(s, f.ToGlobal(in));
          ++in_node_t;
        }
        for (size_t i = 0; i + 1 < f.num_local(); i += 2) {  // one fragment
          cases.emplace_back(f.ToGlobal(static_cast<NodeId>(i)),
                             f.ToGlobal(static_cast<NodeId>(i + 1)));
          ++same_fragment;
        }
        for (const auto& [s, t] : cases) {
          for (uint32_t bound : kBounds) {
            const SweepFrame got = Decode(Encode(f, &ctx, s, t, bound));
            const std::string where =
                Where(seed, *partitioner, site, s, t, bound);
            ExpectMatches(got, Reference(f, reversed, s, t, bound), where);
            if (s == t) {
              EXPECT_EQ(got.local_dist, 0u) << where;
            }
            if (f.Contains(t) && std::binary_search(f.in_nodes().begin(),
                                                    f.in_nodes().end(),
                                                    f.ToLocal(t))) {
              EXPECT_NE(std::find(got.t_in.begin(), got.t_in.end(),
                                  std::make_pair(t, uint64_t{0})),
                        got.t_in.end())
                  << where;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(virtual_t, 0u);
  EXPECT_GT(in_node_t, 0u);
  EXPECT_GT(same_fragment, 0u);
}

// ---------------------------------------------------------------------------
// Scratch reuse

struct FrameRequest {
  SiteId site;
  NodeId s, t;
  uint32_t bound;
};

std::vector<FrameRequest> RandomRequests(size_t count, size_t n, size_t k,
                                         Rng* rng) {
  std::vector<FrameRequest> out;
  for (size_t i = 0; i < count; ++i) {
    out.push_back({static_cast<SiteId>(rng->Uniform(k)),
                   static_cast<NodeId>(rng->Uniform(n)),
                   static_cast<NodeId>(rng->Uniform(n)),
                   kBounds[rng->Uniform(std::size(kBounds))]});
  }
  return out;
}

/// Runs `requests` on the long-lived per-site contexts and checks each frame
/// byte for byte against the same frame on a fresh context.
void ExpectReuseExact(const Fragmentation& frag,
                      const std::vector<FrameRequest>& requests,
                      std::vector<std::unique_ptr<FragmentContext>>* reused) {
  for (const FrameRequest& r : requests) {
    const Fragment& f = frag.fragment(r.site);
    FragmentContext fresh;
    EXPECT_EQ(Encode(f, (*reused)[r.site].get(), r.s, r.t, r.bound),
              Encode(f, &fresh, r.s, r.t, r.bound))
        << "site=" << r.site << " s=" << r.s << " t=" << r.t
        << " bound=" << r.bound;
  }
}

TEST(DistSweepScratchTest, InterleavedFramesMatchFreshContexts) {
  Rng rng(77);
  const size_t n = 300, k = 4;
  const Graph g = ErdosRenyi(n, 3 * n, 2, &rng);
  for (const auto& partitioner : AllPartitioners()) {
    const Fragmentation frag =
        Fragmentation::Build(g, partitioner->Partition(g, k, &rng), k);
    std::vector<std::unique_ptr<FragmentContext>> contexts;
    for (size_t i = 0; i < k; ++i) {
      contexts.push_back(std::make_unique<FragmentContext>());
    }
    ExpectReuseExact(frag, RandomRequests(400, n, k, &rng), &contexts);
  }
}

// The epoch stamp wraps after 2^32 - 1 sweeps. Frames before the jump leave
// small stamps behind; frames across and after the wrap must not mistake
// them for visits of the current sweep.
TEST(DistSweepScratchTest, FramesStayExactAcrossEpochWrap) {
  Rng rng(78);
  const size_t n = 200, k = 3;
  const Graph g = ErdosRenyi(n, 3 * n, 2, &rng);
  const Fragmentation frag =
      Fragmentation::Build(g, testing_util::RandomPartition(n, k, &rng), k);
  std::vector<std::unique_ptr<FragmentContext>> contexts;
  for (size_t i = 0; i < k; ++i) {
    contexts.push_back(std::make_unique<FragmentContext>());
  }
  ExpectReuseExact(frag, RandomRequests(100, n, k, &rng), &contexts);
  for (auto& ctx : contexts) {
    ctx->SetSweepEpochForTesting(std::numeric_limits<uint32_t>::max() - 5);
  }
  ExpectReuseExact(frag, RandomRequests(200, n, k, &rng), &contexts);
}

}  // namespace
}  // namespace pereach
