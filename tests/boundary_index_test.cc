// Differential suite for the coordinator's boundary-graph reach index: the
// kBoundaryIndex answer path must agree bit-for-bit with the paper's BES
// assembling path (and with a centralized oracle) across partitioners,
// equation forms, and interleaved AddEdges epochs — the boundary index is a
// short-circuit, never a semantics change.

#include "src/index/boundary_index.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "src/baselines/centralized.h"
#include "src/core/incremental.h"
#include "src/engine/partial_eval_engine.h"
#include "src/fragment/partitioner.h"
#include "src/graph/generators.h"
#include "src/net/cluster.h"
#include "src/regex/regex.h"
#include "tests/test_util.h"

namespace pereach {
namespace {

using testing_util::AllPartitioners;
using testing_util::DiffContext;
using testing_util::EdgeWorld;
using testing_util::kAllEquationForms;
using testing_util::RandomPartition;

// ---------------------------------------------------------------------------
// BoundaryRows wire format

TEST(BoundaryRowsTest, SerializeRoundTrips) {
  BoundaryRows rows;
  rows.oset_globals = {3, 9, 40, 77};
  rows.rep_globals = {12, 25};
  rows.rows = {{0, 2, 3}, {}};
  rows.aliases = {{14, 12}, {30, 25}};

  Encoder enc;
  rows.Serialize(&enc);
  Decoder dec(enc.buffer());
  const BoundaryRows back = BoundaryRows::Deserialize(&dec);
  EXPECT_TRUE(dec.Done());
  EXPECT_EQ(back.oset_globals, rows.oset_globals);
  EXPECT_EQ(back.rep_globals, rows.rep_globals);
  EXPECT_EQ(back.rows, rows.rows);
  EXPECT_EQ(back.aliases, rows.aliases);
}

// A row index outside the reply's own oset table must fail a kStatus
// decoder (the engine turns that into MalformedReply), never abort.
TEST(BoundaryRowsTest, OutOfRangeRowIndexFailsTheDecoder) {
  BoundaryRows rows;
  rows.oset_globals = {3, 9};
  rows.rep_globals = {12};
  rows.rows = {{7}};

  Encoder enc;
  rows.Serialize(&enc);
  Decoder dec(enc.buffer(), Decoder::OnError::kStatus);
  (void)BoundaryRows::Deserialize(&dec);
  EXPECT_FALSE(dec.ok());
  EXPECT_FALSE(dec.Done());
}

// ---------------------------------------------------------------------------
// Direct index semantics on a hand-built boundary graph

// Two fragments: F0's in-node 10 reaches virtual 20 and 30; F1's in-nodes
// {20, 30} (30 aliased to 20, same local SCC) reach virtual 10 — one big
// boundary cycle — plus F1's in-node 40 reaching nothing.
TEST(BoundaryReachIndexTest, HandBuiltGraphAnswersAndInvalidates) {
  BoundaryReachIndex index(2);
  EXPECT_EQ(index.DirtySites().size(), 2u);

  BoundaryRows f0;
  f0.oset_globals = {20, 30};
  f0.rep_globals = {10};
  f0.rows = {{0, 1}};
  index.SetFragmentRows(0, std::move(f0));

  BoundaryRows f1;
  f1.oset_globals = {10};
  f1.rep_globals = {20, 40};
  f1.rows = {{0}, {}};
  f1.aliases = {{30, 20}};
  index.SetFragmentRows(1, std::move(f1));

  EXPECT_TRUE(index.DirtySites().empty());
  index.Ensure();
  EXPECT_EQ(index.rebuild_count(), 1u);
  EXPECT_EQ(index.num_boundary_nodes(), 4u);  // 10, 20, 30, 40

  EXPECT_TRUE(index.Reaches(10, 10));  // reflexive
  EXPECT_TRUE(index.Reaches(10, 20));
  EXPECT_TRUE(index.Reaches(10, 30));
  EXPECT_TRUE(index.Reaches(20, 10));
  EXPECT_TRUE(index.Reaches(30, 10));  // via its alias edge to 20
  EXPECT_FALSE(index.Reaches(40, 10));
  EXPECT_FALSE(index.Reaches(10, 40));
  const NodeId sources[] = {40, 30};
  const NodeId targets[] = {20};
  EXPECT_TRUE(index.ReachesAny(sources, targets));

  // Invalidation marks exactly the touched fragment dirty; a clean Ensure
  // is a no-op, a post-refresh Ensure rebuilds once.
  index.Ensure();
  EXPECT_EQ(index.rebuild_count(), 1u);
  index.InvalidateFragment(1);
  EXPECT_EQ(index.DirtySites(), std::vector<SiteId>{1});
  BoundaryRows f1b;
  f1b.oset_globals = {10};
  f1b.rep_globals = {20, 40};
  f1b.rows = {{0}, {0}};  // 40 now reaches virtual 10 too
  f1b.aliases = {{30, 20}};
  index.SetFragmentRows(1, std::move(f1b));
  index.Ensure();
  EXPECT_EQ(index.rebuild_count(), 2u);
  EXPECT_TRUE(index.Reaches(40, 30));  // 40 -> 10 -> {20, 30}
}

// ---------------------------------------------------------------------------
// Randomized differential: indexed answers == BES answers == oracle

TEST(BoundaryIndexDifferentialTest,
     MatchesBesAcrossPartitionersFormsAndEpochs) {
  constexpr size_t kSites = 4, kEpochs = 3, kQueriesPerEpoch = 40;
  constexpr uint64_t kSeed = 4242;
  Rng rng(kSeed);
  for (const auto& partitioner : AllPartitioners()) {
    for (const EquationForm form : kAllEquationForms) {
      const size_t n = 60 + rng.Uniform(30);
      const Graph g = ErdosRenyi(n, 3 * n, 2, &rng);
      const std::vector<SiteId> part = partitioner->Partition(g, kSites, &rng);
      IncrementalReachIndex index(g, part, kSites);
      EdgeWorld world = EdgeWorld::FromGraph(g);

      Cluster cluster(&index.fragmentation(), NetworkModel{});
      PartialEvalOptions bes_options;
      bes_options.form = form;
      PartialEvalEngine bes_engine(&cluster, bes_options);
      PartialEvalOptions idx_options;
      idx_options.form = form;
      idx_options.reach_path = ReachAnswerPath::kBoundaryIndex;
      PartialEvalEngine idx_engine(&cluster, idx_options);
      index.SetUpdateListener([&](SiteId site) {
        bes_engine.InvalidateFragment(site);
        idx_engine.InvalidateFragment(site);
      });

      for (size_t epoch = 0; epoch < kEpochs; ++epoch) {
        const Graph oracle = world.Build();
        std::vector<Query> batch;
        for (size_t q = 0; q < kQueriesPerEpoch; ++q) {
          batch.push_back(
              Query::Reach(static_cast<NodeId>(rng.Uniform(n)),
                           static_cast<NodeId>(rng.Uniform(n))));
        }
        const BatchAnswer bes = bes_engine.EvaluateBatch(batch);
        const BatchAnswer indexed = idx_engine.EvaluateBatch(batch);
        for (size_t q = 0; q < batch.size(); ++q) {
          const bool expected =
              CentralizedReach(oracle, batch[q].source, batch[q].target);
          ASSERT_EQ(bes.answers[q].reachable, expected)
              << DiffContext(kSeed, partitioner->name(), form, epoch,
                             batch[q]);
          ASSERT_EQ(indexed.answers[q].reachable, expected)
              << "boundary index diverged: "
              << DiffContext(kSeed, partitioner->name(), form, epoch,
                             batch[q]);
        }

        // Interleave an update epoch: a couple of random edges through the
        // incremental index, invalidating both engines via the listener.
        index.AddEdges(world.AddRandomEdges(3, &rng));
      }
      index.SetUpdateListener(nullptr);

      // The index path actually ran through the label structure, and
      // rebuilt at most once per dirty epoch.
      const BoundaryReachIndex* boundary = idx_engine.boundary_index();
      ASSERT_NE(boundary, nullptr);
      EXPECT_GT(boundary->label_hits() + boundary->dfs_fallbacks(), 0u);
      EXPECT_LE(boundary->rebuild_count(), kEpochs);
    }
  }
}

// Lazy dirty-portion rebuilds: a second batch in the same epoch must not
// rebuild, an update must dirty only the touched fragments, and the next
// batch refreshes exactly those.
TEST(BoundaryIndexDifferentialTest, RebuildsLazilyAndOnlyWhenDirty) {
  Rng rng(99);
  const size_t n = 80, kSites = 4;
  const Graph g = ErdosRenyi(n, 3 * n, 2, &rng);
  const std::vector<SiteId> part = RandomPartition(n, kSites, &rng);
  IncrementalReachIndex index(g, part, kSites);

  Cluster cluster(&index.fragmentation(), NetworkModel{});
  PartialEvalOptions options;
  options.reach_path = ReachAnswerPath::kBoundaryIndex;
  PartialEvalEngine engine(&cluster, options);
  index.SetUpdateListener(
      [&](SiteId site) { engine.InvalidateFragment(site); });

  std::vector<Query> batch;
  for (size_t q = 0; q < 16; ++q) {
    batch.push_back(Query::Reach(static_cast<NodeId>(rng.Uniform(n)),
                                 static_cast<NodeId>(rng.Uniform(n))));
  }
  engine.EvaluateBatch(batch);
  const BoundaryReachIndex* boundary = engine.boundary_index();
  ASSERT_NE(boundary, nullptr);
  EXPECT_EQ(boundary->rebuild_count(), 1u);
  engine.EvaluateBatch(batch);
  EXPECT_EQ(boundary->rebuild_count(), 1u);  // warm: no refresh round

  // An intra-fragment edge dirties exactly one fragment.
  NodeId u = 0, v = 0;
  for (NodeId a = 0; a < n && u == v; ++a) {
    for (NodeId b = a + 1; b < n; ++b) {
      if (part[a] == part[b]) {
        u = a;
        v = b;
        break;
      }
    }
  }
  ASSERT_NE(u, v);
  index.AddEdge(u, v);
  EXPECT_EQ(boundary->DirtySites(), std::vector<SiteId>{part[u]});
  engine.EvaluateBatch(batch);
  EXPECT_EQ(boundary->rebuild_count(), 2u);
  EXPECT_TRUE(boundary->DirtySites().empty());
}

// Mixed-class batches: reach queries take the boundary path while dist/rpq
// ride the equation broadcast of the same EvaluateBatch — answers must agree
// with the all-BES engine for every class.
TEST(BoundaryIndexDifferentialTest, MixedClassBatchesAgreeWithBes) {
  Rng rng(31337);
  const size_t n = 70, kSites = 4, kLabels = 3;
  const Graph g = ErdosRenyi(n, 3 * n, kLabels, &rng);
  const std::vector<SiteId> part = RandomPartition(n, kSites, &rng);
  const Fragmentation frag = Fragmentation::Build(g, part, kSites);
  Cluster cluster(&frag, NetworkModel{});
  PartialEvalEngine bes_engine(&cluster);
  PartialEvalOptions idx_options;
  idx_options.reach_path = ReachAnswerPath::kBoundaryIndex;
  PartialEvalEngine idx_engine(&cluster, idx_options);

  std::vector<Query> batch;
  for (size_t q = 0; q < 30; ++q) {
    const NodeId s = static_cast<NodeId>(rng.Uniform(n));
    const NodeId t = static_cast<NodeId>(rng.Uniform(n));
    switch (rng.Uniform(3)) {
      case 0:
        batch.push_back(Query::Reach(s, t));
        break;
      case 1:
        batch.push_back(
            Query::Dist(s, t, static_cast<uint32_t>(1 + rng.Uniform(6))));
        break;
      default:
        batch.push_back(Query::Rpq(
            s, t,
            QueryAutomaton::FromRegex(Regex::Random(3, kLabels, &rng))
                .value()));
    }
  }
  const BatchAnswer expected = bes_engine.EvaluateBatch(batch);
  const BatchAnswer actual = idx_engine.EvaluateBatch(batch);
  for (size_t q = 0; q < batch.size(); ++q) {
    EXPECT_EQ(actual.answers[q].reachable, expected.answers[q].reachable)
        << "kind=" << static_cast<int>(batch[q].kind)
        << " s=" << batch[q].source << " t=" << batch[q].target;
    if (batch[q].kind == QueryKind::kDist) {
      EXPECT_EQ(actual.answers[q].distance, expected.answers[q].distance);
    }
  }
}

// Degenerate fragmentations: a single site (no boundary at all) and as many
// sites as nodes (everything is boundary).
TEST(BoundaryIndexDifferentialTest, DegenerateFragmentCounts) {
  Rng rng(17);
  const size_t n = 30;
  const Graph g = ErdosRenyi(n, 2 * n, 2, &rng);
  for (const size_t k : {size_t{1}, n}) {
    const std::vector<SiteId> part =
        k == 1 ? std::vector<SiteId>(n, 0) : [&] {
          std::vector<SiteId> p(n);
          for (NodeId v = 0; v < n; ++v) p[v] = static_cast<SiteId>(v);
          return p;
        }();
    const Fragmentation frag = Fragmentation::Build(g, part, k);
    Cluster cluster(&frag, NetworkModel{});
    PartialEvalOptions options;
    options.reach_path = ReachAnswerPath::kBoundaryIndex;
    PartialEvalEngine engine(&cluster, options);
    for (int q = 0; q < 60; ++q) {
      const NodeId s = static_cast<NodeId>(rng.Uniform(n));
      const NodeId t = static_cast<NodeId>(rng.Uniform(n));
      EXPECT_EQ(engine.Evaluate(Query::Reach(s, t)).reachable,
                CentralizedReach(g, s, t))
          << "k=" << k << " s=" << s << " t=" << t;
    }
  }
}

}  // namespace
}  // namespace pereach
