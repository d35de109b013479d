#include "src/core/incremental.h"

#include <gtest/gtest.h>

#include "src/baselines/centralized.h"
#include "src/graph/generators.h"
#include "src/util/serialization.h"
#include "tests/test_util.h"

namespace pereach {
namespace {

using testing_util::MakePaperExample;
using testing_util::PaperExample;
using testing_util::RandomPartition;

std::vector<uint8_t> FragmentBytes(const Fragment& f) {
  Encoder enc;
  f.Serialize(&enc);
  return enc.TakeBuffer();
}

TEST(IncrementalTest, AnswersMatchCentralizedBeforeUpdates) {
  const PaperExample ex = MakePaperExample();
  IncrementalReachIndex index(ex.graph, ex.partition, 3);
  EXPECT_TRUE(index.Reach(ex.ann, ex.mark));
  EXPECT_FALSE(index.Reach(ex.mark, ex.ann));
  EXPECT_TRUE(index.Reach(ex.pat, ex.mark));
  EXPECT_TRUE(index.Reach(ex.tom, ex.tom));
  EXPECT_FALSE(index.Reach(ex.ann, ex.tom));
}

TEST(IncrementalTest, EdgeInsertFlipsAnswer) {
  const PaperExample ex = MakePaperExample();
  IncrementalReachIndex index(ex.graph, ex.partition, 3);
  EXPECT_FALSE(index.Reach(ex.ann, ex.tom));
  index.AddEdge(ex.mark, ex.tom);  // Mark recommends Tom
  EXPECT_TRUE(index.Reach(ex.ann, ex.tom));
}

TEST(IncrementalTest, CachesSurviveUnrelatedUpdates) {
  const PaperExample ex = MakePaperExample();
  IncrementalReachIndex index(ex.graph, ex.partition, 3);
  index.Reach(ex.ann, ex.mark);  // warm all 3 fragment caches
  const size_t warm = index.recompute_count();
  EXPECT_EQ(warm, 3u);

  // An intra-fragment edge in DC3 dirties only fragment 2.
  index.AddEdge(ex.tom, ex.ross);
  index.Reach(ex.ann, ex.mark);
  EXPECT_EQ(index.recompute_count(), warm + 1);

  // A cross edge DC1 -> DC2 dirties fragments 0 and 1.
  index.AddEdge(ex.bill, ex.jack);
  index.Reach(ex.ann, ex.mark);
  EXPECT_EQ(index.recompute_count(), warm + 3);
}

TEST(IncrementalTest, MatchesCentralizedUnderRandomInsertions) {
  Rng rng(83);
  for (int trial = 0; trial < 6; ++trial) {
    const size_t n = 20 + rng.Uniform(40);
    Graph g = ErdosRenyi(n, n, 2, &rng);
    const size_t k = 2 + rng.Uniform(4);
    const std::vector<SiteId> part = RandomPartition(n, k, &rng);
    IncrementalReachIndex index(g, part, k);

    // Mirror of the evolving graph for the oracle.
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v : g.OutNeighbors(u)) edges.emplace_back(u, v);
    }

    for (int round = 0; round < 8; ++round) {
      // Insert a random edge.
      const NodeId u = static_cast<NodeId>(rng.Uniform(n));
      NodeId v = static_cast<NodeId>(rng.Uniform(n - 1));
      if (v >= u) ++v;
      index.AddEdge(u, v);
      edges.emplace_back(u, v);
      const Graph oracle = testing_util::MakeGraph(n, edges);

      for (int q = 0; q < 8; ++q) {
        const NodeId s = static_cast<NodeId>(rng.Uniform(n));
        const NodeId t = static_cast<NodeId>(rng.Uniform(n));
        ASSERT_EQ(index.Reach(s, t), CentralizedReach(oracle, s, t))
            << "after insert (" << u << "," << v << ") query " << s << "->"
            << t;
      }
    }
  }
}

TEST(IncrementalTest, RecomputesAtMostTwoFragmentsPerInsert) {
  Rng rng(89);
  const size_t n = 60;
  const Graph g = ErdosRenyi(n, 2 * n, 1, &rng);
  const size_t k = 6;
  const std::vector<SiteId> part = RandomPartition(n, k, &rng);
  IncrementalReachIndex index(g, part, k);
  index.Reach(0, 1);  // warm caches: k recomputations
  size_t previous = index.recompute_count();
  EXPECT_EQ(previous, k);
  for (int i = 0; i < 10; ++i) {
    const NodeId u = static_cast<NodeId>(rng.Uniform(n));
    NodeId v = static_cast<NodeId>(rng.Uniform(n - 1));
    if (v >= u) ++v;
    index.AddEdge(u, v);
    index.Reach(0, 1);
    const size_t now = index.recompute_count();
    EXPECT_LE(now - previous, 2u) << "insert " << i;
    previous = now;
  }
}

// The socket write path re-ships only the fragments the update listener
// reports, so every fragment it does NOT report must come out of AddEdges
// byte-identical — same local ids, edges, in-nodes and virtual nodes — or a
// worker would keep serving a stale copy. Batches mix intra-fragment,
// cross-fragment, duplicate and self-loop edges under every partitioner.
TEST(IncrementalTest, UnreportedFragmentsSerializeByteIdentically) {
  constexpr size_t kSites = 5;
  size_t unreported_checks = 0;
  for (const auto& partitioner : testing_util::AllPartitioners()) {
    for (const uint64_t seed : {11u, 12u, 13u, 14u}) {
      Rng rng(seed);
      const size_t n = 40 + rng.Uniform(30);
      const Graph g = ErdosRenyi(n, 2 * n, 2, &rng);
      const std::vector<SiteId> part = partitioner->Partition(g, kSites, &rng);
      std::vector<std::vector<NodeId>> members(kSites);
      for (NodeId v = 0; v < n; ++v) members[part[v]].push_back(v);
      testing_util::EdgeWorld world = testing_util::EdgeWorld::FromGraph(g);

      IncrementalReachIndex index(g, part, kSites);
      std::vector<bool> reported(kSites, false);
      index.SetUpdateListener([&reported](SiteId s) { reported[s] = true; });

      for (int update = 0; update < 12; ++update) {
        std::vector<std::pair<NodeId, NodeId>> batch;
        const size_t size = 1 + rng.Uniform(6);
        while (batch.size() < size) {
          const NodeId u = static_cast<NodeId>(rng.Uniform(n));
          const std::vector<NodeId>& home = members[part[u]];
          const SiteId other = static_cast<SiteId>(rng.Uniform(kSites));
          switch (rng.Uniform(4)) {
            case 0:  // intra-fragment
              batch.emplace_back(u, home[rng.Uniform(home.size())]);
              break;
            case 1:  // cross-fragment
              if (other == part[u] || members[other].empty()) break;
              batch.emplace_back(
                  u, members[other][rng.Uniform(members[other].size())]);
              break;
            case 2:  // duplicate of an edge already in the graph
              batch.push_back(world.edges[rng.Uniform(world.edges.size())]);
              break;
            default:  // self-loop
              batch.emplace_back(u, u);
              break;
          }
        }
        world.edges.insert(world.edges.end(), batch.begin(), batch.end());

        std::vector<std::vector<uint8_t>> before;
        for (SiteId s = 0; s < kSites; ++s) {
          before.push_back(FragmentBytes(index.fragmentation().fragment(s)));
        }
        reported.assign(kSites, false);
        index.AddEdges(batch);
        for (SiteId s = 0; s < kSites; ++s) {
          if (reported[s]) continue;
          ++unreported_checks;
          EXPECT_EQ(FragmentBytes(index.fragmentation().fragment(s)),
                    before[s])
              << partitioner->name() << " seed=" << seed
              << " update=" << update << ": site " << s
              << " changed but was not reported";
        }
      }
      index.SetUpdateListener(nullptr);
    }
  }
  EXPECT_GT(unreported_checks, 0u);
}

}  // namespace
}  // namespace pereach
