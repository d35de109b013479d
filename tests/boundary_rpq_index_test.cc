// Differential suite for the signature-cached product boundary index: the
// rpq_path == kBoundaryIndex answer path must agree bit-for-bit with the
// paper's BES assembling path (and with the centralized oracle) across
// partitioners, equation forms, automata and interleaved AddEdges epochs —
// plus direct semantics checks on a hand-built product graph, the
// signature/LRU lifecycle, and the degenerate fragmentations.

#include "src/index/boundary_rpq_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/baselines/centralized.h"
#include "src/core/incremental.h"
#include "src/engine/fragment_context.h"
#include "src/engine/partial_eval_engine.h"
#include "src/engine/site_runtime.h"
#include "src/fragment/partitioner.h"
#include "src/graph/algorithms.h"
#include "src/graph/generators.h"
#include "src/net/cluster.h"
#include "src/regex/canonical.h"
#include "src/regex/regex.h"
#include "tests/test_util.h"

namespace pereach {
namespace {

using testing_util::AllPartitioners;
using testing_util::DiffContext;
using testing_util::EdgeWorld;
using testing_util::kAllEquationForms;
using testing_util::OracleRegularReach;
using testing_util::RandomPartition;
using testing_util::RandomRpqBatch;

constexpr uint8_t kFinal = static_cast<uint8_t>(QueryAutomaton::kFinal);

// ---------------------------------------------------------------------------
// ProductBoundaryRows wire format

TEST(ProductBoundaryRowsTest, SerializeRoundTrips) {
  ProductBoundaryRows rows;
  rows.oset_globals = {20, 30};
  // Entry 0: states {u_t, 2}; entry 1: {u_t} — flattened table size 3.
  rows.oset_masks = {(uint64_t{1} << kFinal) | (uint64_t{1} << 2),
                     uint64_t{1} << kFinal};
  // Skeleton: groups 0 and 1, aux nodes 2 and 3. Successor lists point into
  // both group nodes and aux nodes.
  rows.rep_pairs = {{10, 2}, {11, 3}};
  rows.rows = {{0, 2}, {}, {1}, {2}};
  rows.succs = {{2}, {0, 3}, {3}, {}};
  rows.aliases = {{{12, 2}, 0}, {{13, 3}, 1}};

  Encoder enc;
  rows.Serialize(&enc);
  Decoder dec(enc.buffer());
  const ProductBoundaryRows back = ProductBoundaryRows::Deserialize(&dec);
  EXPECT_TRUE(dec.Done());
  EXPECT_EQ(back.oset_globals, rows.oset_globals);
  EXPECT_EQ(back.oset_masks, rows.oset_masks);
  EXPECT_EQ(back.rep_pairs, rows.rep_pairs);
  EXPECT_EQ(back.rows, rows.rows);
  EXPECT_EQ(back.succs, rows.succs);
  EXPECT_EQ(back.aliases, rows.aliases);
  EXPECT_EQ(back.TableSize(), 3u);
  EXPECT_EQ(back.NumAux(), 2u);
}

// A reply whose indices point outside its own tables must fail a kStatus
// decoder (the engine turns that into MalformedReply), never abort.
TEST(ProductBoundaryRowsTest, MalformedPayloadFailsTheDecoder) {
  const auto valid = [] {
    ProductBoundaryRows rows;
    rows.oset_globals = {20};
    rows.oset_masks = {(uint64_t{1} << kFinal) | (uint64_t{1} << 2)};
    rows.rep_pairs = {{10, 2}};
    rows.rows = {{0}, {1}};
    rows.succs = {{1}, {}};
    rows.aliases = {{{12, 2}, 0}};
    return rows;
  };
  const auto encode = [](const ProductBoundaryRows& rows) {
    Encoder enc;
    rows.Serialize(&enc);
    return enc.TakeBuffer();
  };
  std::vector<std::pair<std::string, std::vector<uint8_t>>> tampered;
  ProductBoundaryRows rows = valid();
  rows.rows[1] = {7};  // table size 2
  tampered.emplace_back("table index", encode(rows));
  rows = valid();
  rows.succs[0] = {5};  // 2 skeleton nodes
  tampered.emplace_back("successor", encode(rows));
  rows = valid();
  rows.aliases[0].second = 3;  // 1 group
  tampered.emplace_back("alias group", encode(rows));
  rows = valid();
  rows.oset_masks[0] |= 1;
  tampered.emplace_back("u_s mask bit", encode(rows));
  // Byte 13 is the node count, right after the one rep pair; 0 < 1 group.
  tampered.emplace_back("nodes below groups", encode(valid()));
  ASSERT_EQ(tampered.back().second[13], 2u);
  tampered.back().second[13] = 0;

  {
    const std::vector<uint8_t> buf = encode(valid());
    Decoder dec(buf, Decoder::OnError::kStatus);
    (void)ProductBoundaryRows::Deserialize(&dec);
    EXPECT_TRUE(dec.Done());
  }
  for (const auto& [what, buf] : tampered) {
    Decoder dec(buf, Decoder::OnError::kStatus);
    (void)ProductBoundaryRows::Deserialize(&dec);
    EXPECT_FALSE(dec.ok()) << what;
    EXPECT_FALSE(dec.Done()) << what;
  }
}

// ---------------------------------------------------------------------------
// The standing rows: skeleton semantics and the Theorem 3 size rule

// Expands one group's skeleton paths into the table indices it reaches.
std::vector<uint32_t> ExpandSkeleton(const ProductBoundaryRows& rows,
                                     uint32_t group) {
  std::vector<bool> seen(rows.rows.size(), false);
  std::vector<uint32_t> stack = {group};
  seen[group] = true;
  std::vector<uint32_t> out;
  while (!stack.empty()) {
    const uint32_t node = stack.back();
    stack.pop_back();
    out.insert(out.end(), rows.rows[node].begin(), rows.rows[node].end());
    for (const uint32_t succ : rows.succs[node]) {
      if (!seen[succ]) {
        seen[succ] = true;
        stack.push_back(succ);
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// Builds one fragment's standing rows and checks that every group's
// skeleton paths reach exactly the frontier pairs its product component
// reaches — the closure rows the skeleton replaces — and that the rows
// respect the size rule. Returns the rows.
ProductBoundaryRows ExpectRowsMatchProductClosure(
    const Fragment& f, const CanonicalAutomaton& canon) {
  FragmentContext ctx;
  ProductBoundaryRows rows = BuildProductBoundaryRows(
      f, &ctx, canon.signature.key, canon.automaton);
  const FragmentContext::RpqProduct& p =
      ctx.rpq_product(f, canon.signature.key, canon.automaton);
  EXPECT_EQ(rows.rows.size(), rows.succs.size());
  EXPECT_GE(rows.rows.size(), rows.rep_pairs.size());

  std::vector<NodeId> sources, targets;
  for (const auto& [local, state] : p.in_pairs) {
    sources.push_back(p.pid(local, state));
  }
  for (size_t i = 0; i < p.table_oset.size(); ++i) {
    targets.push_back(
        p.pid(ctx.oset_locals(f)[p.table_oset[i]], p.table_state[i]));
  }
  std::vector<std::vector<uint32_t>> closure(rows.rep_pairs.size());
  if (!sources.empty() && !targets.empty()) {
    ForEachReachableTargetGrouped(p.cond, sources, targets, 4096,
                                  [&closure](uint32_t group, uint32_t idx) {
                                    closure[group].push_back(idx);
                                  });
  }
  size_t entries = 0;
  for (size_t node = 0; node < rows.rows.size(); ++node) {
    entries += rows.rows[node].size() + rows.succs[node].size();
  }
  EXPECT_LE(entries, rows.rep_pairs.size() * targets.size());
  for (uint32_t group = 0; group < rows.rep_pairs.size(); ++group) {
    std::sort(closure[group].begin(), closure[group].end());
    EXPECT_EQ(ExpandSkeleton(rows, group), closure[group])
        << "site=" << f.site() << " group=" << group;
  }
  return rows;
}

TEST(ProductSkeletonTest, SkeletonPathsMatchProductClosure) {
  constexpr size_t kSites = 4, kLabels = 2;
  Rng rng(8086);
  size_t skeletons = 0, closures = 0;
  for (size_t trial = 0; trial < 12; ++trial) {
    const size_t n = 60 + rng.Uniform(120);
    const Graph g = ErdosRenyi(n, (2 + trial % 3) * n, kLabels, &rng);
    const Fragmentation frag =
        Fragmentation::Build(g, RandomPartition(n, kSites, &rng), kSites);
    QueryAutomaton a = QueryAutomaton::WildcardStar();
    if (trial % 4 != 0) {
      a = QueryAutomaton::FromRegex(Regex::Random(3, kLabels, &rng)).value();
    }
    const CanonicalAutomaton canon = Canonicalize(a);
    for (SiteId s = 0; s < kSites; ++s) {
      SCOPED_TRACE("trial=" + std::to_string(trial));
      const ProductBoundaryRows rows =
          ExpectRowsMatchProductClosure(frag.fragment(s), canon);
      if (rows.NumAux() > 0) {
        ++skeletons;
      } else {
        ++closures;
      }
    }
  }
  EXPECT_GT(skeletons, 0u);
  EXPECT_GT(closures, 0u);
}

// Theorem 3 for the standing rows: a fragment whose boundary is fixed ships
// rows of the same size however long its interior grows — a chain's
// skeleton has one aux node per chain node, so the size rule takes the
// closure side.
TEST(ProductSkeletonTest, StandingRowsIndependentOfFragmentInterior) {
  // Site 0: node a; site 1: a chain of `interior` nodes; site 2: node b.
  // Edges a -> chain -> b, so site 1 has one in-node and one virtual node.
  const auto rows_bytes = [](size_t interior, ProductBoundaryRows* out) {
    GraphBuilder b;
    b.AddNodes(interior + 2);
    for (NodeId v = 0; v <= interior; ++v) b.AddEdge(v, v + 1);
    std::vector<SiteId> part(interior + 2, 1);
    part.front() = 0;
    part.back() = 2;
    const Fragmentation frag =
        Fragmentation::Build(std::move(b).Build(), part, 3);
    const CanonicalAutomaton canon =
        Canonicalize(QueryAutomaton::WildcardStar());
    FragmentContext ctx;
    *out = BuildProductBoundaryRows(frag.fragment(1), &ctx, canon.signature.key,
                                    canon.automaton);
    Encoder enc;
    out->Serialize(&enc);
    return enc.size();
  };
  ProductBoundaryRows small, large;
  const size_t small_bytes = rows_bytes(10, &small);
  const size_t large_bytes = rows_bytes(1000, &large);
  for (const ProductBoundaryRows* rows : {&small, &large}) {
    EXPECT_EQ(rows->NumAux(), 0u);  // closure side
    ASSERT_EQ(rows->rep_pairs.size(), 1u);
    EXPECT_EQ(rows->rows[0].size(), rows->TableSize());  // reaches all of b
  }
  // 100x larger interior, same boundary: bytes within a small constant
  // (only the varint widths of the global ids grow).
  EXPECT_LE(large_bytes, small_bytes + 8);
}

// The serving benchmark's graph shape (LiveJournal stand-in, scale 0.001,
// 8 chunk fragments) takes the skeleton side: fragments ship aux nodes,
// and far fewer entries than their closure rows would hold — with the same
// reachability.
TEST(ProductSkeletonTest, LiveJournalStandInShipsSkeletons) {
  constexpr size_t kSites = 8;
  Rng rng(42);
  std::vector<CanonicalAutomaton> pool;
  for (size_t i = 0; i < 4; ++i) {
    pool.push_back(Canonicalize(
        QueryAutomaton::FromRegex(Regex::Random(3, 1, &rng)).value()));
  }
  const Graph g = MakeDataset(Dataset::kLiveJournal, 0.001, &rng);
  const Fragmentation frag = Fragmentation::Build(
      g, ChunkPartitioner().Partition(g, kSites, &rng), kSites);
  size_t with_aux = 0, entries = 0, closure_bound = 0;
  for (const CanonicalAutomaton& canon : pool) {
    for (SiteId s = 0; s < kSites; ++s) {
      const ProductBoundaryRows rows =
          ExpectRowsMatchProductClosure(frag.fragment(s), canon);
      with_aux += rows.NumAux() > 0 ? 1 : 0;
      for (size_t node = 0; node < rows.rows.size(); ++node) {
        entries += rows.rows[node].size() + rows.succs[node].size();
      }
      closure_bound += rows.rep_pairs.size() * rows.TableSize();
    }
  }
  EXPECT_GT(with_aux, 0u);
  EXPECT_LT(entries, closure_bound);
}

// ---------------------------------------------------------------------------
// Direct entry semantics on a hand-built product boundary graph

// Automaton sketch: interior state 2 (label A); kStart -> 2 -> 2 -> kFinal.
// Two fragments; the product cycle (10,2) -> (20,2) -> (10,2) plus accept
// sinks (20,u_t), (30,u_t), and an alias (12,2) sharing 10's group.
TEST(BoundaryRpqIndexTest, HandBuiltProductGraphAnswers) {
  BoundaryRpqIndex index(/*num_fragments=*/2, /*max_entries=*/4);
  AutomatonSignature sig{1234, "hand-built"};
  BoundaryRpqIndex::Entry& entry = index.GetEntry(sig);
  EXPECT_EQ(index.misses(), 1u);
  EXPECT_EQ(entry.DirtySites().size(), 2u);

  ProductBoundaryRows f0;
  f0.oset_globals = {20, 30};
  f0.oset_masks = {(uint64_t{1} << kFinal) | (uint64_t{1} << 2),
                   uint64_t{1} << kFinal};
  // Table f0: 0 = (20,u_t), 1 = (20,2), 2 = (30,u_t).
  f0.rep_pairs = {{10, 2}};
  f0.rows = {{1, 2}};  // (10,2) -> (20,2); (10,2) can accept at 30
  f0.succs = {{}};
  f0.aliases = {{{12, 2}, 0}};
  entry.SetFragmentRows(0, std::move(f0));

  ProductBoundaryRows f1;
  f1.oset_globals = {10, 12};
  f1.oset_masks = {(uint64_t{1} << kFinal) | (uint64_t{1} << 2),
                   (uint64_t{1} << kFinal) | (uint64_t{1} << 2)};
  // Table f1: 0 = (10,u_t), 1 = (10,2), 2 = (12,u_t), 3 = (12,2).
  f1.rep_pairs = {{20, 2}, {40, 2}};
  f1.rows = {{1}, {}};  // (20,2) -> (10,2); (40,2) reaches nothing
  f1.succs = {{}, {}};
  entry.SetFragmentRows(1, std::move(f1));

  EXPECT_TRUE(entry.DirtySites().empty());
  entry.Ensure();
  EXPECT_EQ(entry.rebuild_count(), 1u);
  EXPECT_EQ(entry.TableSize(0), 3u);
  EXPECT_EQ(entry.TablePair(0, 1), (ProductPair{20, 2}));

  const auto reaches = [&entry](ProductPair a, ProductPair b) {
    const ProductPair src[] = {a}, tgt[] = {b};
    return entry.ReachesAny(src, tgt);
  };
  EXPECT_TRUE(reaches({10, 2}, {10, 2}));  // reflexive
  EXPECT_TRUE(reaches({10, 2}, {20, 2}));
  EXPECT_TRUE(reaches({20, 2}, {10, 2}));          // cross-fragment cycle
  EXPECT_TRUE(reaches({12, 2}, {20, 2}));          // via the alias edge
  EXPECT_TRUE(reaches({10, 2}, {30, kFinal}));     // accept sink
  EXPECT_FALSE(reaches({40, 2}, {10, 2}));
  EXPECT_FALSE(reaches({10, 2}, {12, kFinal}));    // sink, never entered
  // Same node, different state: distinct product nodes.
  EXPECT_TRUE(entry.HasPair({20, kFinal}));
  EXPECT_FALSE(entry.HasPair({40, kFinal}));

  // Invalidation dirties every entry of the index; a refresh + Ensure
  // rebuilds once.
  index.InvalidateFragment(1);
  EXPECT_EQ(entry.DirtySites(), std::vector<SiteId>{1});
  ProductBoundaryRows f1b;
  f1b.oset_globals = {10, 12};
  f1b.oset_masks = {(uint64_t{1} << kFinal) | (uint64_t{1} << 2),
                    (uint64_t{1} << kFinal) | (uint64_t{1} << 2)};
  f1b.rep_pairs = {{20, 2}, {40, 2}};
  f1b.rows = {{1}, {1}};  // (40,2) now reaches (10,2) too
  f1b.succs = {{}, {}};
  entry.SetFragmentRows(1, std::move(f1b));
  entry.Ensure();
  EXPECT_EQ(entry.rebuild_count(), 2u);
  EXPECT_TRUE(reaches({40, 2}, {20, 2}));
}

// ---------------------------------------------------------------------------
// Rebuild determinism (DESIGN.md §9.5): an entry rebuilt after invalidation
// and re-installation of the same rows equals a freshly built entry.

TEST(BoundaryRpqIndexTest, RebuildAfterInvalidationMatchesFreshEntry) {
  constexpr uint64_t kSeed = 90210;
  constexpr size_t kSites = 4, kLabels = 2, kBudget = 64;
  Rng rng(kSeed);
  const size_t n = 120;
  const Graph g = ErdosRenyi(n, 3 * n, kLabels, &rng);
  const Fragmentation frag =
      Fragmentation::Build(g, RandomPartition(n, kSites, &rng), kSites);

  for (size_t trial = 0; trial < 4; ++trial) {
    QueryAutomaton a = QueryAutomaton::WildcardStar();
    if (trial > 0) {
      a = QueryAutomaton::FromRegex(Regex::Random(3, kLabels, &rng)).value();
    }
    const CanonicalAutomaton canon = Canonicalize(a);
    std::vector<ProductBoundaryRows> rows;
    for (SiteId s = 0; s < kSites; ++s) {
      FragmentContext ctx;
      rows.push_back(BuildProductBoundaryRows(
          frag.fragment(s), &ctx, canon.signature.key, canon.automaton));
    }

    BoundaryRpqIndex rebuilt_index(kSites, /*max_entries=*/1, kBudget);
    BoundaryRpqIndex::Entry& rebuilt = rebuilt_index.GetEntry(canon.signature);
    for (SiteId s = 0; s < kSites; ++s) rebuilt.SetFragmentRows(s, rows[s]);
    rebuilt.Ensure();
    const SiteId dirty = static_cast<SiteId>(rng.Uniform(kSites));
    rebuilt_index.InvalidateFragment(dirty);
    ASSERT_EQ(rebuilt.DirtySites(), std::vector<SiteId>{dirty});
    rebuilt.SetFragmentRows(dirty, rows[dirty]);
    rebuilt.Ensure();
    ASSERT_EQ(rebuilt.rebuild_count(), 2u);

    // Installed in reverse site order: the dense-id order must not depend
    // on installation order, only on the rows.
    BoundaryRpqIndex fresh_index(kSites, /*max_entries=*/1, kBudget);
    BoundaryRpqIndex::Entry& fresh = fresh_index.GetEntry(canon.signature);
    for (SiteId s = kSites; s-- > 0;) fresh.SetFragmentRows(s, rows[s]);
    fresh.Ensure();

    const std::string where =
        "seed=" + std::to_string(kSeed) + " trial=" + std::to_string(trial);
    EXPECT_EQ(rebuilt.num_product_nodes(), fresh.num_product_nodes()) << where;
    EXPECT_EQ(rebuilt.num_components(), fresh.num_components()) << where;
    EXPECT_EQ(rebuilt.num_edges(), fresh.num_edges()) << where;
    EXPECT_EQ(rebuilt.shortcut_count(), fresh.shortcut_count()) << where;
    EXPECT_GT(fresh.num_edges(), 0u) << where;

    // Random pair sets drawn from the sites' pair tables (every table pair
    // is a standing node).
    const auto random_pairs = [&](std::vector<ProductPair>* out) {
      out->clear();
      const size_t count = 1 + rng.Uniform(3);
      while (out->size() < count) {
        const SiteId s = static_cast<SiteId>(rng.Uniform(kSites));
        const size_t size = fresh.TableSize(s);
        if (size == 0) continue;
        out->push_back(
            fresh.TablePair(s, static_cast<uint32_t>(rng.Uniform(size))));
      }
    };
    std::vector<std::vector<ProductPair>> src(150), tgt(150);
    std::vector<BoundaryRpqIndex::RpqQuestion> questions;
    for (size_t q = 0; q < src.size(); ++q) {
      random_pairs(&src[q]);
      random_pairs(&tgt[q]);
      questions.push_back({src[q], tgt[q]});
    }
    std::vector<uint8_t> rebuilt_answers, fresh_answers;
    rebuilt.AnswerBatch(questions, &rebuilt_answers);
    fresh.AnswerBatch(questions, &fresh_answers);
    EXPECT_EQ(rebuilt_answers, fresh_answers) << where;
    for (size_t q = 0; q < questions.size(); ++q) {
      ASSERT_EQ(static_cast<bool>(fresh_answers[q]),
                fresh.ReachesAny(src[q], tgt[q]))
          << where << " question=" << q;
    }
  }
}

// ---------------------------------------------------------------------------
// Signature / LRU lifecycle through the engine

TEST(BoundaryRpqIndexTest, SignatureCacheHitsEvictionsAndRebuilds) {
  Rng rng(4711);
  const size_t n = 60, kSites = 3, kLabels = 3;
  const Graph g = ErdosRenyi(n, 3 * n, kLabels, &rng);
  const std::vector<SiteId> part = RandomPartition(n, kSites, &rng);
  const Fragmentation frag = Fragmentation::Build(g, part, kSites);
  Cluster cluster(&frag, NetworkModel{});
  PartialEvalOptions options;
  options.rpq_path = RpqAnswerPath::kBoundaryIndex;
  options.rpq_cache_entries = 2;
  PartialEvalEngine engine(&cluster, options);

  // Three automata with pairwise distinct languages (hence signatures).
  std::vector<QueryAutomaton> automata;
  automata.push_back(QueryAutomaton::WildcardStar());
  automata.push_back(
      QueryAutomaton::FromRegex(Regex::Star(Regex::Symbol(0))).value());
  automata.push_back(
      QueryAutomaton::FromRegex(Regex::Star(Regex::Symbol(1))).value());

  const auto run = [&](const QueryAutomaton& a) {
    std::vector<Query> batch;
    for (size_t q = 0; q < 6; ++q) {
      batch.push_back(Query::Rpq(static_cast<NodeId>(rng.Uniform(n)),
                                 static_cast<NodeId>(rng.Uniform(n)), a));
    }
    engine.EvaluateBatch(batch);
  };

  run(automata[0]);
  const BoundaryRpqIndex* index = engine.boundary_rpq_index();
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->num_entries(), 1u);
  EXPECT_EQ(index->total_rebuilds(), 1u);

  // Same automaton again: one LRU hit per batch, zero refresh rounds.
  run(automata[0]);
  EXPECT_EQ(index->total_rebuilds(), 1u);
  EXPECT_GT(index->hits(), 0u);

  // A batch mixing all three automata overflows the cap of 2: the LRU
  // grows for the batch (entries are pinned), then evicts down on the next
  // batch's misses.
  std::vector<Query> mixed;
  for (const QueryAutomaton& a : automata) {
    mixed.push_back(Query::Rpq(0, static_cast<NodeId>(n - 1), a));
  }
  engine.EvaluateBatch(mixed);
  EXPECT_EQ(index->total_rebuilds(), 3u);

  // Re-running a single-automaton batch evicts someone; re-touching an
  // evicted signature later pays a fresh refresh round + rebuild.
  run(automata[1]);
  run(automata[2]);
  EXPECT_GT(index->evictions(), 0u);
  EXPECT_LE(index->num_entries(), 2u);
  const size_t rebuilds_before = index->total_rebuilds();
  run(automata[0]);  // evicted by now: cap 2, two newer signatures live
  EXPECT_GT(index->total_rebuilds(), rebuilds_before);

  // Eviction and rebuild never change answers: compare against BES.
  PartialEvalEngine bes_engine(&cluster);
  for (const QueryAutomaton& a : automata) {
    for (size_t q = 0; q < 20; ++q) {
      const NodeId s = static_cast<NodeId>(rng.Uniform(n));
      const NodeId t = static_cast<NodeId>(rng.Uniform(n));
      const Query query = Query::Rpq(s, t, a);
      EXPECT_EQ(engine.Evaluate(query).reachable,
                bes_engine.Evaluate(query).reachable)
          << "s=" << s << " t=" << t;
    }
  }
}

// ---------------------------------------------------------------------------
// Randomized differential: indexed answers == BES answers == oracle

TEST(BoundaryRpqDifferentialTest,
     MatchesBesAcrossPartitionersFormsAndEpochs) {
  constexpr size_t kSites = 4, kEpochs = 3, kQueriesPerEpoch = 24;
  constexpr size_t kLabels = 3;
  constexpr uint64_t kSeed = 271828;
  Rng rng(kSeed);
  for (const auto& partitioner : AllPartitioners()) {
    for (const EquationForm form : kAllEquationForms) {
      const size_t n = 50 + rng.Uniform(30);
      const Graph g = ErdosRenyi(n, 3 * n, kLabels, &rng);
      const std::vector<SiteId> part = partitioner->Partition(g, kSites, &rng);
      IncrementalReachIndex index(g, part, kSites);
      EdgeWorld world = EdgeWorld::FromGraph(g);

      Cluster cluster(&index.fragmentation(), NetworkModel{});
      PartialEvalOptions bes_options;
      bes_options.form = form;
      PartialEvalEngine bes_engine(&cluster, bes_options);
      PartialEvalOptions idx_options;
      idx_options.form = form;
      idx_options.rpq_path = RpqAnswerPath::kBoundaryIndex;
      PartialEvalEngine idx_engine(&cluster, idx_options);
      index.SetUpdateListener([&](SiteId site) {
        bes_engine.InvalidateFragment(site);
        idx_engine.InvalidateFragment(site);
      });

      for (size_t epoch = 0; epoch < kEpochs; ++epoch) {
        const Graph oracle = world.Build();
        // Automata repeat within the batch (pool of 4): the refresh round
        // and the standing entries get shared across queries, and the s==t
        // cycle case rides along via uniform endpoint sampling.
        std::vector<Query> batch =
            RandomRpqBatch(n, kQueriesPerEpoch, 4, kLabels, &rng);
        batch.push_back(Query::Rpq(0, 0, QueryAutomaton::WildcardStar()));

        const BatchAnswer bes = bes_engine.EvaluateBatch(batch);
        const BatchAnswer indexed = idx_engine.EvaluateBatch(batch);
        for (size_t q = 0; q < batch.size(); ++q) {
          const bool expected = OracleRegularReach(
              oracle, batch[q].source, batch[q].target, *batch[q].automaton);
          ASSERT_EQ(bes.answers[q].reachable, expected)
              << DiffContext(kSeed, partitioner->name(), form, epoch,
                             batch[q]);
          ASSERT_EQ(indexed.answers[q].reachable, expected)
              << "product boundary index diverged: "
              << DiffContext(kSeed, partitioner->name(), form, epoch,
                             batch[q]);
        }

        index.AddEdges(world.AddRandomEdges(3, &rng));
      }
      index.SetUpdateListener(nullptr);

      const BoundaryRpqIndex* rpq_index = idx_engine.boundary_rpq_index();
      ASSERT_NE(rpq_index, nullptr);
      EXPECT_GT(rpq_index->num_entries(), 0u);
      EXPECT_GT(rpq_index->hits(), 0u);  // repeated automata actually hit
    }
  }
}

// Wildcard-star is plain reachability (§2.2): the indexed rpq path must
// agree with both the reach oracle and the indexed reach path, including
// the s == t cycle semantics (reach is reflexive, rpq needs a cycle).
TEST(BoundaryRpqDifferentialTest, WildcardStarMatchesReach) {
  Rng rng(5150);
  const size_t n = 60, kSites = 4;
  const Graph g = ErdosRenyi(n, 3 * n, 2, &rng);
  const std::vector<SiteId> part = RandomPartition(n, kSites, &rng);
  const Fragmentation frag = Fragmentation::Build(g, part, kSites);
  Cluster cluster(&frag, NetworkModel{});
  PartialEvalOptions options;
  options.rpq_path = RpqAnswerPath::kBoundaryIndex;
  options.reach_path = ReachAnswerPath::kBoundaryIndex;
  PartialEvalEngine engine(&cluster, options);

  const QueryAutomaton wildcard = QueryAutomaton::WildcardStar();
  for (size_t q = 0; q < 80; ++q) {
    const NodeId s = static_cast<NodeId>(rng.Uniform(n));
    const NodeId t = q < 8 ? s : static_cast<NodeId>(rng.Uniform(n));
    const bool rpq = engine.Evaluate(Query::Rpq(s, t, wildcard)).reachable;
    if (s == t) {
      // q_rr(s, s, _*) asks for a real cycle through s, not reflexivity.
      EXPECT_EQ(rpq, OracleRegularReach(g, s, s, wildcard))
          << "s=t=" << s;
    } else {
      EXPECT_EQ(rpq, CentralizedReach(g, s, t)) << "s=" << s << " t=" << t;
      EXPECT_EQ(rpq, engine.Evaluate(Query::Reach(s, t)).reachable);
    }
  }
}

// Boundary-node endpoints: force s and t onto in-nodes/virtual-copy owners
// by querying every cross-edge endpoint pair of the paper's example.
TEST(BoundaryRpqDifferentialTest, BoundaryEndpointAndPaperExample) {
  const testing_util::PaperExample ex = testing_util::MakePaperExample();
  const Fragmentation frag = Fragmentation::Build(ex.graph, ex.partition, 3);
  Cluster cluster(&frag, NetworkModel{});
  PartialEvalOptions options;
  options.rpq_path = RpqAnswerPath::kBoundaryIndex;
  PartialEvalEngine engine(&cluster, options);
  PartialEvalEngine bes_engine(&cluster);

  const LabelId hr = ex.labels.Find("HR");
  // Example 8's query: Ann reaches Mark through an HR-only chain.
  const QueryAutomaton hr_star =
      QueryAutomaton::FromRegex(Regex::Star(Regex::Symbol(hr))).value();
  EXPECT_TRUE(
      engine.Evaluate(Query::Rpq(ex.ann, ex.mark, hr_star)).reachable);

  std::vector<QueryAutomaton> automata = {hr_star,
                                          QueryAutomaton::WildcardStar()};
  for (const QueryAutomaton& a : automata) {
    for (NodeId s = 0; s < ex.graph.NumNodes(); ++s) {
      for (NodeId t = 0; t < ex.graph.NumNodes(); ++t) {
        const Query q = Query::Rpq(s, t, a);
        const bool expected = OracleRegularReach(ex.graph, s, t, a);
        EXPECT_EQ(bes_engine.Evaluate(q).reachable, expected)
            << "bes s=" << s << " t=" << t;
        EXPECT_EQ(engine.Evaluate(q).reachable, expected)
            << "indexed s=" << s << " t=" << t;
      }
    }
  }
}

// Degenerate fragmentations: a single site (no boundary pairs at all, the
// local short-circuit decides everything) and one node per site (every
// node is boundary, the product boundary graph IS the global product).
TEST(BoundaryRpqDifferentialTest, DegenerateFragmentCounts) {
  Rng rng(23);
  const size_t n = 24, kLabels = 2;
  const Graph g = ErdosRenyi(n, 2 * n, kLabels, &rng);
  const QueryAutomaton a =
      QueryAutomaton::FromRegex(Regex::Random(3, kLabels, &rng)).value();
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
    options.rpq_path = RpqAnswerPath::kBoundaryIndex;
    PartialEvalEngine engine(&cluster, options);
    for (int q = 0; q < 50; ++q) {
      const NodeId s = static_cast<NodeId>(rng.Uniform(n));
      const NodeId t = static_cast<NodeId>(rng.Uniform(n));
      EXPECT_EQ(engine.Evaluate(Query::Rpq(s, t, a)).reachable,
                OracleRegularReach(g, s, t, a))
          << "k=" << k << " s=" << s << " t=" << t;
    }
  }
}

// ---------------------------------------------------------------------------
// Batch-level automaton dedup on the BES broadcast

TEST(RpqBatchDedupTest, IdenticalAutomataShipOncePerBatch) {
  Rng rng(77);
  const size_t n = 60, kSites = 4, kLabels = 3;
  const Graph g = ErdosRenyi(n, 3 * n, kLabels, &rng);
  const std::vector<SiteId> part = RandomPartition(n, kSites, &rng);
  const Fragmentation frag = Fragmentation::Build(g, part, kSites);
  Cluster cluster(&frag, NetworkModel{});
  PartialEvalEngine engine(&cluster);

  const QueryAutomaton a =
      QueryAutomaton::FromRegex(Regex::Random(6, kLabels, &rng)).value();
  std::vector<Query> batch;
  for (size_t q = 0; q < 16; ++q) {
    batch.push_back(Query::Rpq(static_cast<NodeId>(rng.Uniform(n)),
                               static_cast<NodeId>(rng.Uniform(n)), a));
  }

  // Warm the contexts so both measurements ship identical reply shapes.
  engine.EvaluateBatch(std::span<const Query>(batch.data(), 1));
  const RunMetrics batched = engine.EvaluateBatch(batch).metrics;
  RunMetrics singles;
  for (const Query& q : batch) {
    singles.Accumulate(
        engine.EvaluateBatch(std::span<const Query>(&q, 1)).metrics);
  }
  // 16 identical regexes in one batch must ship strictly less broadcast
  // than 16 single-query rounds: the batch's automaton table carries ONE
  // canonical automaton, the singles carry 16. Ten automata's worth of
  // bytes is a conservative floor for the gap.
  const size_t automaton_bytes = Canonicalize(a).signature.key.size();
  EXPECT_LT(batched.traffic_bytes + 10 * automaton_bytes,
            singles.traffic_bytes);
}

}  // namespace
}  // namespace pereach
