// Shared pieces of the serving benchmark: workload definitions, seeded
// inputs, the query stream, and the metric sink both the timed and the
// traced run report into.
#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/engine/query_engine.h"
#include "src/graph/graph.h"
#include "src/net/transport.h"
#include "src/regex/query_automaton.h"
#include "src/server/query_server.h"
#include "perfbench/src/trace.h"
#include "src/util/random.h"

namespace perfbench {

using pereach::NodeId;
using pereach::Query;
using pereach::QueryKind;
using pereach::SiteId;

inline constexpr size_t kNumSites = 8;
inline constexpr size_t kNumClients = 2;
inline constexpr size_t kNumAutomata = 4;
inline constexpr size_t kNumClasses = 3;

struct Workload {
  const char* name;
  double scale;              // LiveJournal stand-in scale factor
  bool mixed;                // 70/20/10 reach/dist/rpq, else reach only
  pereach::TransportBackend transport;
  size_t reads_per_update;   // one edge insert per this many reads; 0 = none
  size_t setups;             // timed set-ups per run (median reported)
};

/// The named workload, or nullptr.
const Workload* FindWorkload(std::string_view name);

/// The dataset a workload serves: the LiveJournal stand-in at `scale`, its
/// fragmentation and the rpq automaton pool, all fixed per workload.
struct Inputs {
  pereach::Graph graph;
  std::vector<SiteId> partition;
  std::vector<pereach::QueryAutomaton> automata;  // the rpq pool
};
Inputs MakeInputs(double scale);

/// The serving configuration every workload shares: closure form, all three
/// boundary-index answer paths, adaptive batching, answer cache off.
pereach::ServerOptions MakeServerOptions(const Workload& w);

/// One client's query stream: uniform endpoints; reach only, or 70/20/10
/// reach/dist/rpq with dist bound 1..8 and the automaton drawn from the
/// pool. The mix is stratified: each block of ten draws holds exactly 7
/// reach, 2 dist and 1 rpq query in shuffled order, so a run's cost does
/// not swing with a binomial class count.
class QueryStream {
 public:
  QueryStream(const Workload& w, const Inputs& in, uint64_t seed);

  /// The next query; the pool index of an rpq query's automaton goes to
  /// *automaton_index (-1 for the other classes).
  Query Next(int* automaton_index);

 private:
  static constexpr size_t kBlock = 10;

  const Inputs& in_;
  bool mixed_;
  pereach::Rng rng_;
  QueryKind block_[kBlock];
  size_t pos_ = kBlock;
};

/// One query per class and per pooled automaton: answering them builds
/// every standing structure (rows, boundary indexes, rpq products) steady
/// serving needs.
std::vector<Query> WarmQueries(const Workload& w, const Inputs& in);

/// A fixed per-class query list drawn from the seed, replayed by every
/// layer of the traced run so exact counts repeat across runs.
struct ReplaySet {
  std::vector<Query> by_class[kNumClasses];
  std::vector<int> rpq_automaton;  // pool index of each by_class[2] query
};
ReplaySet MakeReplaySet(const Workload& w, const Inputs& in, uint64_t seed);

/// The edge-insert stream the write workload's generator applies, in order.
std::vector<std::pair<NodeId, NodeId>> MakeUpdateStream(size_t num_nodes,
                                                        uint64_t seed,
                                                        size_t count);

const char* ClassName(size_t class_idx);

/// Named metrics with units, in emission order.
class MetricSink {
 public:
  void Set(const std::string& name, double value, const char* unit);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  entries() const {
    return entries_;
  }
  double Get(const std::string& name) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> entries_;
};

/// Outcome of the replays' own checks: answers agree across layers and
/// backends, exact counts repeat, and no site is visited twice in a round.
struct LayerReport {
  bool ok = true;
  std::string failure;  // first failed check, for the log
};

/// The traced run's layer replays (engine, site, context, index, net,
/// write, fragment), each timed by spans around public library calls.
/// `update_count` is how many edges of the update stream the write layer
/// replays (0 on read-only workloads).
LayerReport RunLayerReplays(const Workload& w, const Inputs& in,
                            const ReplaySet& replay, uint64_t seed,
                            size_t update_count, Tracer* tracer,
                            MetricSink* sink);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
