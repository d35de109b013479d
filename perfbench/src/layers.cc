// The traced run's layer replays. Each layer is driven through its public
// functions on the same seed's inputs, with a span (and a stopwatch) around
// every call, in this order:
//
//   fragment  Fragmentation::Build
//   context   fresh FragmentContext per fragment: reach / dist / rpq rows
//   index     Boundary{Reach,Dist,Rpq}Index fed those rows: rebuild, bytes
//   site+index  Encode*SweepFrame on each query's endpoint fragments over the
//             warm contexts, decoded into coordinator questions and answered
//             by the indexes (AnswerBatch / ShortestPath)
//   engine    PartialEvalEngine::EvaluateBatch on a sim Cluster, twice, so
//             the exact counts (rounds, traffic) must repeat
//   net       the same batches over the socket transport (wire = socket
//             minus sim batch time), then SyncFragments after each update
//   write     IncrementalReachIndex::AddEdges on a replica, with an update
//             listener counting touched fragments
//
// Replayed batches hold kNumClients queries: a closed loop of that many
// readers can never coalesce more per class, and a fixed size keeps the
// exact counts independent of timing.

#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/core/incremental.h"
#include "src/engine/fragment_context.h"
#include "src/engine/partial_eval_engine.h"
#include "src/engine/site_runtime.h"
#include "src/fragment/fragmentation.h"
#include "src/index/boundary_dist_index.h"
#include "src/index/boundary_index.h"
#include "src/index/boundary_rpq_index.h"
#include "src/net/cluster.h"
#include "src/regex/canonical.h"
#include "src/util/serialization.h"
#include "src/util/timer.h"

namespace perfbench {
namespace {

using pereach::BoundaryDistIndex;
using pereach::BoundaryReachIndex;
using pereach::BoundaryRpqIndex;
using pereach::CanonicalAutomaton;
using pereach::Decoder;
using pereach::Encoder;
using pereach::Fragment;
using pereach::FragmentContext;
using pereach::Fragmentation;
using pereach::ProductPair;
using pereach::StopWatch;

/// Runs `fn` inside a span and returns its wall time in ms.
template <typename Fn>
double Timed(SpanBuffer* spans, const char* name, uint64_t id, int32_t parent,
             Fn&& fn) {
  ScopedSpan span(spans, name, id, parent);
  StopWatch watch;
  fn();
  return watch.ElapsedMs();
}

std::string Cls(const char* prefix, size_t c) {
  return std::string(prefix) + ClassName(c);
}

/// Index ranges [first, last) of the replayed batches over `count` queries.
std::vector<std::pair<size_t, size_t>> Batches(size_t count) {
  std::vector<std::pair<size_t, size_t>> batches;
  for (size_t i = 0; i < count; i += kNumClients) {
    batches.emplace_back(i, std::min(count, i + kNumClients));
  }
  return batches;
}

/// One replayed answer, for the cross-check between the layer-by-layer
/// replay and the engine.
struct Answer {
  bool reachable = false;
  uint64_t distance = 0;
  bool operator==(const Answer&) const = default;
};

/// The context, index and site layers over one set of warm contexts.
class LayerReplay {
 public:
  LayerReplay(const Workload& w, const Inputs& in, const Fragmentation& frag,
              SpanBuffer* spans, MetricSink* sink)
      : w_(w), frag_(frag), spans_(spans), sink_(sink) {
    contexts_.resize(frag.num_fragments());
    for (const pereach::QueryAutomaton& a : in.automata) {
      canon_.push_back(pereach::Canonicalize(a));
    }
  }

  void BuildContexts() {
    double reach_ms = 0, dist_ms = 0, rpq_ms = 0;
    size_t dist_entries = 0;
    for (SiteId site = 0; site < frag_.num_fragments(); ++site) {
      const Fragment& f = frag_.fragment(site);
      contexts_[site] = std::make_unique<FragmentContext>();
      FragmentContext& ctx = *contexts_[site];
      reach_ms += Timed(spans_, "context.reach_rows", site, kNoParent,
                        [&] { (void)ctx.reach_rows(f); });
      if (!w_.mixed) continue;
      dist_ms += Timed(spans_, "context.dist_rows", site, kNoParent, [&] {
        for (const auto& row : ctx.dist_rows(f).rows) {
          dist_entries += row.size();
        }
      });
      ctx.BeginRpqRound();
      for (const CanonicalAutomaton& c : canon_) {
        rpq_ms += Timed(spans_, "context.rpq_rows", site, kNoParent, [&] {
          (void)ctx.rpq_product(f, c.signature.key, c.automaton);
        });
      }
    }
    sink_->Set("context.reach_rows_ms", reach_ms, "ms");
    sink_->Set("context.dist_rows_ms", dist_ms, "ms");
    sink_->Set("context.rpq_rows_ms", rpq_ms, "ms");
    sink_->Set("context.dist_rows_entries", static_cast<double>(dist_entries),
               "count");
  }

  void BuildIndexes() {
    const size_t k = frag_.num_fragments();
    reach_ = std::make_unique<BoundaryReachIndex>(k, /*shortcut_budget=*/64);
    std::vector<pereach::BoundaryRows> rows(k);
    for (SiteId s = 0; s < k; ++s) {
      rows[s] =
          pereach::BuildBoundaryRows(frag_.fragment(s), contexts_[s].get());
    }
    const double reach_ms =
        Timed(spans_, "index.rebuild.reach", 0, kNoParent, [&] {
          for (SiteId s = 0; s < k; ++s) {
            reach_->SetFragmentRows(s, std::move(rows[s]));
          }
          reach_->Ensure();
        });
    sink_->Set("index.rebuild_ms.reach", reach_ms, "ms");
    sink_->Set("index.bytes.reach", static_cast<double>(reach_->ByteSize()),
               "bytes");
    if (!w_.mixed) {
      sink_->Set("index.rebuild_ms.dist", 0, "ms");
      sink_->Set("index.bytes.dist", 0, "bytes");
      sink_->Set("index.rebuild_ms.rpq", 0, "ms");
      sink_->Set("index.bytes.rpq", 0, "bytes");
      return;
    }

    dist_ = std::make_unique<BoundaryDistIndex>(k);
    std::vector<pereach::WeightedBoundaryRows> wrows(k);
    for (SiteId s = 0; s < k; ++s) {
      wrows[s] = pereach::BuildWeightedBoundaryRows(frag_.fragment(s),
                                                   contexts_[s].get());
    }
    const double dist_ms =
        Timed(spans_, "index.rebuild.dist", 0, kNoParent, [&] {
          for (SiteId s = 0; s < k; ++s) {
            dist_->SetFragmentRows(s, std::move(wrows[s]));
          }
          dist_->Ensure();
        });
    sink_->Set("index.rebuild_ms.dist", dist_ms, "ms");
    sink_->Set("index.bytes.dist", static_cast<double>(dist_->ByteSize()),
               "bytes");

    rpq_ = std::make_unique<BoundaryRpqIndex>(k, canon_.size(),
                                              /*shortcut_budget=*/64);
    rpq_->BeginBatch();
    double rpq_ms = 0;
    for (size_t ai = 0; ai < canon_.size(); ++ai) {
      const CanonicalAutomaton& c = canon_[ai];
      std::vector<pereach::ProductBoundaryRows> prows(k);
      for (SiteId s = 0; s < k; ++s) {
        contexts_[s]->BeginRpqRound();
        prows[s] = pereach::BuildProductBoundaryRows(
            frag_.fragment(s), contexts_[s].get(), c.signature.key,
            c.automaton);
      }
      rpq_ms += Timed(spans_, "index.rebuild.rpq", ai, kNoParent, [&] {
        BoundaryRpqIndex::Entry& entry = rpq_->GetEntry(c.signature);
        for (SiteId s = 0; s < k; ++s) {
          entry.SetFragmentRows(s, std::move(prows[s]));
        }
        entry.Ensure();
      });
    }
    sink_->Set("index.rebuild_ms.rpq", rpq_ms, "ms");
    sink_->Set("index.bytes.rpq", static_cast<double>(rpq_->ByteSize()),
               "bytes");
  }

  /// Site sweeps + coordinator answers for every replay batch of every
  /// class; returns the answers in replay order, per class. Returns false
  /// on a frame that does not decode.
  bool ReplayQueries(const ReplaySet& replay,
                     std::vector<Answer> (&answers)[kNumClasses]) {
    for (size_t c = 0; c < kNumClasses; ++c) {
      sweep_us_[c] = 0;
      sweep_calls_[c] = 0;
      sweep_bytes_[c] = 0;
      answers[c].clear();
    }
    const size_t hits0 = reach_->label_hits();
    const size_t lanes0 = reach_->sweep_lanes();
    size_t reach_questions = 0;
    double reach_answer_us = 0;
    const size_t settled0 = dist_ ? dist_->settled_nodes() : 0;
    const size_t searches0 = dist_ ? dist_->search_count() : 0;
    double dist_search_us = 0;

    uint64_t batch_id = 0;
    for (size_t c = 0; c < kNumClasses; ++c) {
      const std::vector<Query>& all = replay.by_class[c];
      for (const auto& [first, last] : Batches(all.size())) {
        const std::vector<Query> batch(all.begin() + first,
                                       all.begin() + last);
        if (c == 2) {
          batch_automata_.assign(replay.rpq_automaton.begin() + first,
                                 replay.rpq_automaton.begin() + last);
        }
        ScopedSpan root(spans_, "replay.batch", batch_id++);
        std::vector<Decoder> s_frames, t_frames;
        std::vector<std::vector<uint8_t>> bodies;
        bodies.reserve(2 * batch.size());
        for (size_t i = 0; i < batch.size(); ++i) {
          const Query& q = batch[i];
          const SiteId ss = frag_.site_of(q.source);
          const SiteId ts = frag_.site_of(q.target);
          bodies.push_back(Sweep(c, ss, q, i, root.index()));
          if (ts != ss) bodies.push_back(Sweep(c, ts, q, i, root.index()));
        }
        // Frames decode in the order they were encoded: s-site first, then
        // a distinct t-site (a shared site carries both lists in one frame).
        size_t next = 0;
        for (const Query& q : batch) {
          const size_t s_body = next++;
          const bool split =
              frag_.site_of(q.source) != frag_.site_of(q.target);
          const size_t t_body = split ? next++ : s_body;
          s_frames.emplace_back(bodies[s_body], Decoder::OnError::kStatus);
          t_frames.emplace_back(bodies[t_body], Decoder::OnError::kStatus);
        }
        bool ok = true;
        if (c == 0) {
          ok = AnswerReach(batch, &s_frames, &t_frames, root.index(),
                           &reach_questions, &reach_answer_us, &answers[c]);
        } else if (c == 1) {
          ok = AnswerDist(batch, &s_frames, &t_frames, root.index(),
                          &dist_search_us, &answers[c]);
        } else {
          ok = AnswerRpq(batch, &s_frames, &t_frames, root.index(),
                         &answers[c]);
        }
        if (!ok) return false;
      }
    }

    for (size_t c = 0; c < kNumClasses; ++c) {
      const double calls = static_cast<double>(sweep_calls_[c]);
      const double queries = static_cast<double>(replay.by_class[c].size());
      sink_->Set(Cls("site.sweep_us.", c),
                 calls == 0 ? 0 : sweep_us_[c] / calls, "us");
      sink_->Set(Cls("site.sweep_bytes.", c),
                 queries == 0 ? 0
                              : static_cast<double>(sweep_bytes_[c]) / queries,
                 "bytes");
    }
    const double rq = static_cast<double>(reach_questions);
    sink_->Set("index.reach_answer_us", rq == 0 ? 0 : reach_answer_us / rq,
               "us");
    sink_->Set("index.label_hit_ratio",
               rq == 0
                   ? 0
                   : static_cast<double>(reach_->label_hits() - hits0) / rq,
               "ratio");
    sink_->Set("index.dfs_fallback_ratio",
               rq == 0 ? 0
                       : static_cast<double>(reach_->sweep_lanes() - lanes0) /
                             rq,
               "ratio");
    const double searches =
        dist_ ? static_cast<double>(dist_->search_count() - searches0) : 0;
    sink_->Set("index.dist_search_us",
               searches == 0 ? 0 : dist_search_us / searches, "us");
    sink_->Set("index.dist_settled_per_query",
               searches == 0
                   ? 0
                   : static_cast<double>(dist_->settled_nodes() - settled0) /
                         searches,
               "count");
    return true;
  }

 private:
  /// One query's sweep frame at one of its endpoint fragments; `i` is the
  /// query's position in the current batch.
  std::vector<uint8_t> Sweep(size_t c, SiteId site, const Query& q, size_t i,
                             int32_t parent) {
    const Fragment& f = frag_.fragment(site);
    FragmentContext* ctx = contexts_[site].get();
    Encoder body;
    static const char* const kSpan[kNumClasses] = {
        "site.sweep.reach", "site.sweep.dist", "site.sweep.rpq"};
    const FragmentContext::RpqProduct* product = nullptr;
    if (c == 2) {
      ctx->BeginRpqRound();
      const CanonicalAutomaton& canon = canon_[batch_automata_[i]];
      product = &ctx->rpq_product(f, canon.signature.key, canon.automaton);
    }
    const double ms = Timed(spans_, kSpan[c], site, parent, [&] {
      if (c == 0) {
        pereach::EncodeBoundarySweepFrame(f, ctx, q.source, q.target, &body);
      } else if (c == 1) {
        pereach::EncodeDistSweepFrame(f, ctx, q.source, q.target, q.bound,
                                      &body);
      } else {
        pereach::EncodeRpqSweepFrame(f, ctx, *product, q.source, q.target,
                                     &body);
      }
    });
    sweep_us_[c] += ms * 1000.0;
    ++sweep_calls_[c];
    sweep_bytes_[c] += body.size();
    return body.TakeBuffer();
  }

  bool AnswerReach(const std::vector<Query>& batch,
                   std::vector<Decoder>* s_frames,
                   std::vector<Decoder>* t_frames, int32_t parent,
                   size_t* questions_asked, double* answer_us,
                   std::vector<Answer>* out) {
    std::vector<NodeId> nodes;
    std::vector<size_t> offsets;  // s_off, s_len, t_off, t_len per question
    std::vector<size_t> which;    // batch index per question
    std::vector<Answer> answers(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      const Query& q = batch[i];
      if (q.source == q.target) {
        answers[i].reachable = true;
        continue;
      }
      const bool split = frag_.site_of(q.source) != frag_.site_of(q.target);
      Decoder& s = (*s_frames)[i];
      // A shared endpoint site carries both lists in one frame.
      Decoder& t = split ? (*t_frames)[i] : s;
      const uint8_t s_flags = s.GetU8();
      if (s_flags & pereach::kFrameLocalTrue) {
        answers[i].reachable = true;
        continue;
      }
      if (!(s_flags & pereach::kFrameHasS)) return false;
      const std::vector<NodeId>& oset =
          reach_->oset_globals(frag_.site_of(q.source));
      const size_t s_off = nodes.size();
      uint32_t prev = 0;
      for (size_t n = s.GetCount(); n > 0; --n) {
        prev += static_cast<uint32_t>(s.GetVarint());
        if (prev >= oset.size()) return false;
        nodes.push_back(oset[prev]);
      }
      const size_t s_len = nodes.size() - s_off;
      const uint8_t t_flags = split ? t.GetU8() : s_flags;
      if (!(t_flags & pereach::kFrameHasT)) return false;
      const size_t t_off = nodes.size();
      for (size_t n = t.GetCount(); n > 0; --n) {
        nodes.push_back(static_cast<NodeId>(t.GetVarint()));
      }
      if (!s.ok() || !t.ok()) return false;
      offsets.insert(offsets.end(),
                     {s_off, s_len, t_off, nodes.size() - t_off});
      which.push_back(i);
    }
    if (!which.empty()) {
      const std::span<const NodeId> flat(nodes);
      std::vector<BoundaryReachIndex::ReachQuestion> questions(which.size());
      for (size_t j = 0; j < which.size(); ++j) {
        questions[j].sources =
            flat.subspan(offsets[4 * j], offsets[4 * j + 1]);
        questions[j].targets =
            flat.subspan(offsets[4 * j + 2], offsets[4 * j + 3]);
      }
      std::vector<uint8_t> verdicts;
      *answer_us += 1000.0 * Timed(spans_, "index.answer.reach", 0, parent,
                                   [&] {
                                     reach_->AnswerBatch(questions, &verdicts);
                                   });
      *questions_asked += which.size();
      for (size_t j = 0; j < which.size(); ++j) {
        answers[which[j]].reachable = verdicts[j] != 0;
      }
    }
    out->insert(out->end(), answers.begin(), answers.end());
    return true;
  }

  bool AnswerDist(const std::vector<Query>& batch,
                  std::vector<Decoder>* s_frames,
                  std::vector<Decoder>* t_frames, int32_t parent,
                  double* search_us, std::vector<Answer>* out) {
    for (size_t i = 0; i < batch.size(); ++i) {
      const Query& q = batch[i];
      Answer a;
      if (q.source == q.target) {
        a.reachable = true;
        a.distance = 0;
        out->push_back(a);
        continue;
      }
      const bool split = frag_.site_of(q.source) != frag_.site_of(q.target);
      Decoder& s = (*s_frames)[i];
      // A shared endpoint site carries both lists in one frame.
      Decoder& t = split ? (*t_frames)[i] : s;
      const uint8_t s_flags = s.GetU8();
      if (!(s_flags & pereach::kFrameHasS)) return false;
      uint64_t local = pereach::kInfWeight;
      if (s_flags & pereach::kFrameHasLocalDist) local = s.GetVarint();
      std::vector<BoundaryDistIndex::Seed> s_out, t_in;
      const std::vector<NodeId>& oset =
          dist_->oset_globals(frag_.site_of(q.source));
      uint32_t prev = 0;
      for (size_t n = s.GetCount(2); n > 0; --n) {
        prev += static_cast<uint32_t>(s.GetVarint());
        if (prev >= oset.size()) return false;
        s_out.push_back({oset[prev], s.GetVarint()});
      }
      const uint8_t t_flags = split ? t.GetU8() : s_flags;
      if (!(t_flags & pereach::kFrameHasT)) return false;
      for (size_t n = t.GetCount(2); n > 0; --n) {
        const NodeId global = static_cast<NodeId>(t.GetVarint());
        t_in.push_back({global, t.GetVarint()});
      }
      if (!s.ok() || !t.ok()) return false;
      uint64_t via = pereach::kInfWeight;
      *search_us +=
          1000.0 * Timed(spans_, "index.search.dist", i, parent, [&] {
            via = dist_->ShortestPath(s_out, t_in, q.bound);
          });
      a.distance = std::min(local, via);
      a.reachable = a.distance != pereach::kInfWeight && a.distance <= q.bound;
      out->push_back(a);
    }
    return true;
  }

  bool AnswerRpq(const std::vector<Query>& batch,
                 std::vector<Decoder>* s_frames,
                 std::vector<Decoder>* t_frames, int32_t parent,
                 std::vector<Answer>* out) {
    rpq_->BeginBatch();
    std::vector<Answer> answers(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      const Query& q = batch[i];
      BoundaryRpqIndex::Entry& entry =
          rpq_->GetEntry(canon_[batch_automata_[i]].signature);
      const SiteId ss = frag_.site_of(q.source);
      const bool split = ss != frag_.site_of(q.target);
      Decoder& s = (*s_frames)[i];
      // A shared endpoint site carries both lists in one frame.
      Decoder& t = split ? (*t_frames)[i] : s;
      const uint8_t s_flags = s.GetU8();
      if (s_flags & pereach::kFrameLocalTrue) {
        answers[i].reachable = true;
        continue;
      }
      if (!(s_flags & pereach::kFrameHasS)) return false;
      std::vector<ProductPair> sources, targets;
      const size_t table = entry.TableSize(ss);
      uint32_t prev = 0;
      for (size_t n = s.GetCount(); n > 0; --n) {
        prev += static_cast<uint32_t>(s.GetVarint());
        if (prev >= table) return false;
        sources.push_back(entry.TablePair(ss, prev));
      }
      const uint8_t t_flags = split ? t.GetU8() : s_flags;
      if (!(t_flags & pereach::kFrameHasT)) return false;
      for (size_t n = t.GetCount(2); n > 0; --n) {
        const NodeId global = static_cast<NodeId>(t.GetVarint());
        targets.push_back({global, t.GetU8()});
      }
      if (!s.ok() || !t.ok()) return false;
      const ProductPair accept{
          q.target, static_cast<uint8_t>(pereach::QueryAutomaton::kFinal)};
      if (entry.HasPair(accept)) targets.push_back(accept);
      // One question per entry call: the replayed batches are tiny, and a
      // per-question span attributes the label/sweep work to this query.
      std::vector<uint8_t> verdict;
      const BoundaryRpqIndex::RpqQuestion question{sources, targets};
      Timed(spans_, "index.answer.rpq", i, parent, [&] {
        entry.AnswerBatch(std::span<const BoundaryRpqIndex::RpqQuestion>(
                              &question, 1),
                          &verdict);
      });
      answers[i].reachable = verdict[0] != 0;
    }
    out->insert(out->end(), answers.begin(), answers.end());
    return true;
  }

  const Workload& w_;
  const Fragmentation& frag_;
  SpanBuffer* spans_;
  MetricSink* sink_;
  std::vector<CanonicalAutomaton> canon_;
  std::vector<int> batch_automata_;  // pool index per query of an rpq batch
  std::vector<std::unique_ptr<FragmentContext>> contexts_;
  std::unique_ptr<BoundaryReachIndex> reach_;
  std::unique_ptr<BoundaryDistIndex> dist_;
  std::unique_ptr<BoundaryRpqIndex> rpq_;
  double sweep_us_[kNumClasses] = {0, 0, 0};
  size_t sweep_calls_[kNumClasses] = {0, 0, 0};
  size_t sweep_bytes_[kNumClasses] = {0, 0, 0};
};

/// Per-class books of one engine replay pass.
struct EnginePass {
  double batch_ms[kNumClasses] = {0, 0, 0};
  size_t batches[kNumClasses] = {0, 0, 0};
  // Exact counts: must repeat bit-for-bit between passes and backends.
  size_t rounds[kNumClasses] = {0, 0, 0};
  size_t traffic_bytes[kNumClasses] = {0, 0, 0};
  double max_visits_per_round = 0;
  std::vector<Answer> answers[kNumClasses];
  bool ok = true;
};

EnginePass ReplayEngine(pereach::PartialEvalEngine* engine,
                        const ReplaySet& replay, SpanBuffer* spans,
                        const char* const (&span_names)[kNumClasses]) {
  EnginePass pass;
  uint64_t id = 0;
  for (size_t c = 0; c < kNumClasses; ++c) {
    const std::vector<Query>& all = replay.by_class[c];
    for (const auto& [first, last] : Batches(all.size())) {
      const std::span<const Query> batch(all.data() + first, last - first);
      pereach::BatchAnswer result;
      pass.batch_ms[c] +=
          Timed(spans, span_names[c], id++, kNoParent,
                [&] { result = engine->EvaluateBatch(batch); });
      ++pass.batches[c];
      if (!result.status.ok()) {
        pass.ok = false;
        continue;
      }
      pass.rounds[c] += result.metrics.rounds;
      pass.traffic_bytes[c] += result.metrics.traffic_bytes;
      if (result.metrics.rounds > 0) {
        pass.max_visits_per_round = std::max(
            pass.max_visits_per_round,
            static_cast<double>(result.metrics.MaxVisits()) /
                static_cast<double>(result.metrics.rounds));
      }
      for (const pereach::QueryAnswer& a : result.answers) {
        pass.answers[c].push_back(
            {a.reachable, c == 1 && a.reachable ? a.distance : 0});
      }
    }
  }
  return pass;
}

/// Warms an engine so the replayed batches measure steady serving.
bool WarmEngine(pereach::PartialEvalEngine* engine, const Workload& w,
                const Inputs& in) {
  return engine->EvaluateBatch(WarmQueries(w, in)).status.ok();
}

bool SameCounts(const EnginePass& a, const EnginePass& b) {
  for (size_t c = 0; c < kNumClasses; ++c) {
    if (a.rounds[c] != b.rounds[c] || a.traffic_bytes[c] != b.traffic_bytes[c])
      return false;
  }
  return true;
}

bool SameAnswers(const EnginePass& a,
                 const std::vector<Answer> (&b)[kNumClasses]) {
  for (size_t c = 0; c < kNumClasses; ++c) {
    if (a.answers[c].size() != b[c].size()) return false;
    for (size_t i = 0; i < b[c].size(); ++i) {
      const Answer want{b[c][i].reachable,
                        c == 1 && b[c][i].reachable ? b[c][i].distance : 0};
      if (!(a.answers[c][i] == want)) return false;
    }
  }
  return true;
}

void Fail(LayerReport* report, const std::string& why) {
  report->ok = false;
  if (report->failure.empty()) report->failure = why;
}

}  // namespace

LayerReport RunLayerReplays(const Workload& w, const Inputs& in,
                            const ReplaySet& replay, uint64_t seed,
                            size_t update_count, Tracer* tracer,
                            MetricSink* sink) {
  LayerReport report;
  SpanBuffer* spans = tracer->NewBuffer();
  const bool socket = w.transport == pereach::TransportBackend::kSocket;

  // fragment: the O(|G|) rebuild every update pays today.
  constexpr int kBuilds = 3;
  double build_ms = 0;
  for (int i = 0; i < kBuilds; ++i) {
    build_ms += Timed(spans, "fragment.build", i, kNoParent, [&] {
      (void)Fragmentation::Build(in.graph, in.partition, kNumSites);
    });
  }
  sink->Set("fragment.build_ms", build_ms / kBuilds, "ms");

  // The replica owns the fragmentation every replay runs on; the write
  // layer mutates it last.
  size_t touched = 0;
  pereach::IncrementalReachIndex replica(in.graph, in.partition, kNumSites);
  replica.SetUpdateListener([&touched](SiteId) { ++touched; });
  const Fragmentation& frag = replica.fragmentation();

  // context, index, site.
  std::vector<Answer> layer_answers[kNumClasses];
  {
    LayerReplay layers(w, in, frag, spans, sink);
    layers.BuildContexts();
    layers.BuildIndexes();
    if (!layers.ReplayQueries(replay, layer_answers)) {
      Fail(&report, "sweep frame failed to decode");
    }
  }

  // engine: two passes on the sim transport.
  pereach::ServerOptions options = MakeServerOptions(w);
  static const char* const kEngineSpans[kNumClasses] = {
      "engine.batch.reach", "engine.batch.dist", "engine.batch.rpq"};
  EnginePass sim[2];
  {
    pereach::Cluster cluster(&frag, options.net);
    pereach::PartialEvalEngine engine(&cluster, options.eval);
    if (!WarmEngine(&engine, w, in)) {
      Fail(&report, "engine warm-up failed");
    }
    for (EnginePass& pass : sim) pass = ReplayEngine(&engine, replay, spans,
                                                     kEngineSpans);
  }
  if (!sim[0].ok || !sim[1].ok) {
    Fail(&report, "engine batch failed");
  }
  if (!SameCounts(sim[0], sim[1])) {
    Fail(&report, "engine rounds/traffic differ between two passes");
  }
  if (!SameAnswers(sim[0], layer_answers)) {
    Fail(&report, "engine answers differ from the layer-by-layer replay");
  }
  const double max_visits =
      std::max(sim[0].max_visits_per_round, sim[1].max_visits_per_round);
  if (max_visits > 1.0) {
    Fail(&report, "a site was visited more than once in a round");
  }
  sink->Set("engine.max_site_visits_per_round", max_visits, "count");
  double sim_ms[kNumClasses] = {0, 0, 0};
  for (size_t c = 0; c < kNumClasses; ++c) {
    const double batches =
        static_cast<double>(sim[0].batches[c] + sim[1].batches[c]);
    const double queries = static_cast<double>(replay.by_class[c].size());
    sim_ms[c] = batches == 0
                    ? 0
                    : (sim[0].batch_ms[c] + sim[1].batch_ms[c]) / batches;
    sink->Set(Cls("engine.batch_ms.", c), sim_ms[c], "ms");
    sink->Set(Cls("engine.rounds_per_batch.", c),
              sim[0].batches[c] == 0
                  ? 0
                  : static_cast<double>(sim[0].rounds[c]) /
                        static_cast<double>(sim[0].batches[c]),
              "count");
    sink->Set(Cls("engine.traffic_bytes_per_query.", c),
              queries == 0
                  ? 0
                  : static_cast<double>(sim[0].traffic_bytes[c]) / queries,
              "bytes");
  }

  // net: the same batches over worker processes, then fragment syncs.
  double wire_ms[kNumClasses] = {0, 0, 0};
  double sync_ms = 0;
  double add_edges_ms = 0;
  if (socket) {
    pereach::TransportOptions transport = options.transport;
    pereach::Cluster cluster(&frag, options.net, 0, transport);
    pereach::PartialEvalEngine engine(&cluster, options.eval);
    if (!WarmEngine(&engine, w, in)) {
      Fail(&report, "socket warm-up failed");
    }
    static const char* const kSocketSpans[kNumClasses] = {
        "net.socket_batch.reach", "net.socket_batch.dist",
        "net.socket_batch.rpq"};
    const EnginePass wire = ReplayEngine(&engine, replay, spans, kSocketSpans);
    if (!wire.ok || !SameCounts(wire, sim[0]) ||
        !SameAnswers(wire, layer_answers)) {
      Fail(&report, "socket replay differs from the sim replay");
    }
    for (size_t c = 0; c < kNumClasses; ++c) {
      if (wire.batches[c] == 0) continue;
      wire_ms[c] =
          wire.batch_ms[c] / static_cast<double>(wire.batches[c]) - sim_ms[c];
    }

    // write: replica updates, each followed by the fragment sync the
    // server performs under the writer gate.
    const std::vector<std::pair<NodeId, NodeId>> updates =
        MakeUpdateStream(in.graph.NumNodes(), seed, update_count);
    for (size_t i = 0; i < updates.size(); ++i) {
      add_edges_ms += Timed(spans, "write.add_edges", i, kNoParent, [&] {
        replica.AddEdges(std::span(&updates[i], 1));
      });
      pereach::Status status;
      sync_ms += Timed(spans, "net.sync_fragments", i, kNoParent,
                       [&] { status = cluster.SyncFragments(); });
      if (!status.ok()) {
        Fail(&report, "SyncFragments failed");
      }
    }
  }
  for (size_t c = 0; c < kNumClasses; ++c) {
    sink->Set(Cls("net.wire_ms_per_batch.", c), wire_ms[c], "ms");
  }
  const double n_updates = static_cast<double>(socket ? update_count : 0);
  sink->Set("net.sync_fragments_ms", n_updates == 0 ? 0 : sync_ms / n_updates,
            "ms");
  sink->Set("write.index_add_edges_ms",
            n_updates == 0 ? 0 : add_edges_ms / n_updates, "ms");
  sink->Set("write.touched_fragments",
            n_updates == 0 ? 0 : static_cast<double>(touched) / n_updates,
            "count");
  return report;
}

}  // namespace perfbench
