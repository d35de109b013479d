// perfbench_serve — the repository's serving benchmark. One process runs one
// workload against QueryServer:
//
//   perfbench_serve --workload=NAME --seed=N --seconds=S --trace=0|1
//                   [--scale=F] [--corrupt-answer]
//                   [--trace-out=PATH]
//
// The whole process, socket workers included, runs on one CPU (PinToOneCpu).
// Timed run (--trace=0): a timed set-up (index + server + warm-up), a closed
// loop of 2 reader clients for S seconds (on the write workload, whole
// cycles of one edge insert per 200 answered reads), the peak-memory
// reading, more timed set-ups (median reported), then the oracle gate over
// a sample of every class's answers at their epochs.
// Traced run (--trace=1): one set-up, S/2 s untraced and S/2 s traced
// serving (their read q/s difference is the tracing overhead), then the
// layer replays of layers.cc. The last stdout line is one JSON object
// {correct, attempted, failed, metrics, meta}; perfbench/run.py turns it
// into the benchmark's result line.

#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/baselines/centralized.h"
#include "src/fragment/partitioner.h"
#include "src/graph/generators.h"
#include "src/regex/regex.h"
#include "src/util/timer.h"

namespace perfbench {

using pereach::IncrementalReachIndex;
using pereach::QueryServer;
using pereach::ServedAnswer;
using pereach::StopWatch;

// --- shared definitions (bench.h) -------------------------------------------

namespace {

constexpr uint64_t kAutomatonPoolSeed = 42;
constexpr uint64_t kDatasetSeed = 7;

constexpr Workload kWorkloads[] = {
    {"reach-sim", 0.005, false, pereach::TransportBackend::kSim, 0, 11},
    {"mixed-sim", 0.0025, true, pereach::TransportBackend::kSim, 0, 5},
    {"mixed-write-socket", 0.001, true, pereach::TransportBackend::kSocket,
     200, 5},
};

}  // namespace

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Inputs MakeInputs(double scale) {
  // The dataset and the regex pool are part of the workload, like the real
  // graphs of the paper's experiments; the seed drives the query and update
  // streams. Per-seed graphs and pools swing set-up time, memory and the
  // dist-sweep cost by up to 2x (fragment boundaries and product sizes
  // differ per draw), which would measure the draw instead of the code.
  Inputs in;
  // One label: the dataset generators label every node 0, and matching
  // automata are what make the rpq class do real product work.
  pereach::Rng pool_rng(kAutomatonPoolSeed);
  for (size_t i = 0; i < kNumAutomata; ++i) {
    in.automata.push_back(pereach::QueryAutomaton::FromRegex(
                              pereach::Regex::Random(3, 1, &pool_rng))
                              .value());
  }
  pereach::Rng rng(kDatasetSeed);
  in.graph = pereach::MakeDataset(pereach::Dataset::kLiveJournal, scale, &rng);
  in.partition = pereach::ChunkPartitioner().Partition(in.graph, kNumSites,
                                                       &rng);
  return in;
}

pereach::ServerOptions MakeServerOptions(const Workload& w) {
  pereach::ServerOptions options;
  options.policy.max_batch = 64;
  options.policy.max_window_us = 200;
  options.policy.adaptive = true;
  options.net.latency_ms = 5.0;
  options.net.bandwidth_mb_per_s = 25.0;
  options.cache.enabled = false;
  options.eval.form = pereach::EquationForm::kClosure;
  options.eval.reach_path = pereach::ReachAnswerPath::kBoundaryIndex;
  options.eval.dist_path = pereach::DistAnswerPath::kBoundaryIndex;
  options.eval.rpq_path = pereach::RpqAnswerPath::kBoundaryIndex;
  options.transport.backend = w.transport;
  return options;
}

QueryStream::QueryStream(const Workload& w, const Inputs& in, uint64_t seed)
    : in_(in), mixed_(w.mixed), rng_(seed) {}

Query QueryStream::Next(int* automaton_index) {
  *automaton_index = -1;
  const size_t n = in_.graph.NumNodes();
  const NodeId s = static_cast<NodeId>(rng_.Uniform(n));
  const NodeId t = static_cast<NodeId>(rng_.Uniform(n));
  if (!mixed_) return Query::Reach(s, t);
  if (pos_ == kBlock) {
    for (size_t i = 0; i < kBlock; ++i) {
      block_[i] = i < 7 ? QueryKind::kReach
                        : (i < 9 ? QueryKind::kDist : QueryKind::kRpq);
    }
    for (size_t i = kBlock - 1; i > 0; --i) {
      std::swap(block_[i], block_[rng_.Uniform(i + 1)]);
    }
    pos_ = 0;
  }
  const QueryKind kind = block_[pos_++];
  if (kind == QueryKind::kReach) return Query::Reach(s, t);
  if (kind == QueryKind::kDist) {
    return Query::Dist(s, t, static_cast<uint32_t>(1 + rng_.Uniform(8)));
  }
  *automaton_index = static_cast<int>(rng_.Uniform(in_.automata.size()));
  return Query::Rpq(s, t, in_.automata[*automaton_index]);
}

std::vector<Query> WarmQueries(const Workload& w, const Inputs& in) {
  const NodeId last = static_cast<NodeId>(in.graph.NumNodes() - 1);
  std::vector<Query> warm = {Query::Reach(0, last)};
  if (w.mixed) {
    warm.push_back(Query::Dist(0, last, 8));
    for (const pereach::QueryAutomaton& a : in.automata) {
      warm.push_back(Query::Rpq(0, last, a));
    }
  }
  return warm;
}

ReplaySet MakeReplaySet(const Workload& w, const Inputs& in, uint64_t seed) {
  // Per-class replay sizes: enough batches for a stable mean while the dist
  // sweeps (the slowest site work) stay a few seconds at the largest scale.
  constexpr size_t kWant[kNumClasses] = {256, 32, 32};
  ReplaySet set;
  QueryStream stream(w, in, seed * 1000 + 777);
  for (size_t draws = 0; draws < 100000; ++draws) {
    int ai = -1;
    Query q = stream.Next(&ai);
    std::vector<Query>& bucket = set.by_class[static_cast<size_t>(q.kind)];
    if (bucket.size() < kWant[static_cast<size_t>(q.kind)]) {
      if (q.kind == QueryKind::kRpq) set.rpq_automaton.push_back(ai);
      bucket.push_back(std::move(q));
    }
    bool full = set.by_class[0].size() == kWant[0];
    if (w.mixed) {
      full = full && set.by_class[1].size() == kWant[1] &&
             set.by_class[2].size() == kWant[2];
    }
    if (full) break;
  }
  return set;
}

std::vector<std::pair<NodeId, NodeId>> MakeUpdateStream(size_t num_nodes,
                                                        uint64_t seed,
                                                        size_t count) {
  pereach::Rng rng(seed + 99);
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const NodeId u = static_cast<NodeId>(rng.Uniform(num_nodes));
    const NodeId v = static_cast<NodeId>(rng.Uniform(num_nodes));
    edges.emplace_back(u, v);
  }
  return edges;
}

const char* ClassName(size_t class_idx) {
  static const char* const kNames[kNumClasses] = {"reach", "dist", "rpq"};
  return kNames[class_idx];
}

void MetricSink::Set(const std::string& name, double value, const char* unit) {
  for (auto& entry : entries_) {
    if (entry.first == name) {
      entry.second = {value, unit};
      return;
    }
  }
  entries_.push_back({name, {value, unit}});
}

double MetricSink::Get(const std::string& name) const {
  for (const auto& entry : entries_) {
    if (entry.first == name) return entry.second.first;
  }
  return 0;
}

// --- the timed serving window ----------------------------------------------

namespace {

// Read-log capacity per second of window: well above the fastest workload.
constexpr double kMaxReadRate = 25000;
// Answers per class and client kept for the oracle gate.
constexpr size_t kOracleReservoir = 64;

/// Host-wide CPU time counters from /proc/stat, in clock ticks.
struct HostCpu {
  unsigned long long total = 0;
  unsigned long long steal = 0;
};

/// User + system CPU time of a process (0 = this one, read at nanosecond
/// resolution; others in clock ticks), ms.
double ProcessCpuMs(int pid) {
  if (pid == 0) {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return 1e3 * static_cast<double>(ts.tv_sec) +
           1e-6 * static_cast<double>(ts.tv_nsec);
  }
  const std::string path = "/proc/" + std::to_string(pid) + "/stat";
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return 0;
  char buf[1024];
  const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  const char* p = std::strrchr(buf, ')');
  if (p == nullptr) return 0;
  unsigned long long utime = 0, stime = 0;
  // Fields after "(comm)": state is field 3, utime 14, stime 15.
  if (std::sscanf(p + 2,
                  "%*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %llu %llu",
                  &utime, &stime) != 2) {
    return 0;
  }
  return 1000.0 * static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// CPU time spent so far by this process and the server's live workers.
double ServingCpuMs(QueryServer* server) {
  double ms = ProcessCpuMs(0);
  for (int pid : server->cluster()->transport()->WorkerPidsForTest()) {
    ms += ProcessCpuMs(pid);
  }
  return ms;
}

HostCpu ReadHostCpu() {
  HostCpu cpu;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return cpu;
  unsigned long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) cpu.total += x;
    cpu.steal = v[7];
  }
  std::fclose(f);
  return cpu;
}

/// Peak resident set (VmHWM) of a process (0 = this one), MB; 0 when
/// unreadable.
double PeakRssMb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) +
                                           "/status";
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::atof(line + 6);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}


/// Restricts this process to the last CPU it may run on, before any thread
/// starts, so every server thread and socket worker inherits one CPU.
/// Returns that CPU, or -1 when the mask cannot be read or set.
///
/// On a shared virtual host a wake-up that crosses CPUs costs an
/// inter-processor interrupt whose price follows the other guests' load. On
/// a 4-vCPU Xeon guest, CPU time per reach-sim read moved 0.11-0.16 ms
/// between runs (quartile spread 15% of the median over five seeds); pinned
/// to one vCPU it held at 0.094-0.101 ms (spread 3%). Serving on one CPU
/// keeps the work per read and the same-CPU hand-offs, which are what a
/// change to the program moves.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int cpu = -1;
  for (int i = 0; i < CPU_SETSIZE; ++i) {
    if (CPU_ISSET(i, &allowed)) cpu = i;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 0;  // 0 = the workload's own
  bool corrupt_answer = false;
  std::string trace_out;
};

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--workload") {
      flags->workload = value;
    } else if (key == "--seed") {
      flags->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      flags->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      flags->trace = value == "1";
    } else if (key == "--scale") {
      flags->scale = std::atof(value.c_str());
    } else if (key == "--corrupt-answer") {
      flags->corrupt_answer = true;
    } else if (key == "--trace-out") {
      flags->trace_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return false;
    }
  }
  return FindWorkload(flags->workload) != nullptr && flags->seconds > 0;
}

/// Every answered read's timing. The log is allocated and written before
/// the window opens, so its memory is a constant share of peak_rss_mb.
struct ReadSample {
  float latency_ms = 0;
  float done_ms = 0;  // completion time since the window opened
  float batch_wall_ms = 0;
  QueryKind kind = QueryKind::kReach;
};

/// One answered read kept for the oracle gate.
struct Served {
  Query query;  // without its automaton: `automaton` indexes the pool
  int automaton = -1;
  bool reachable = false;
  uint64_t distance = 0;
  uint64_t epoch = 0;
};

struct ClientLog {
  // A uniform reservoir sample of each class's answers, for the oracle.
  std::vector<Served> oracle[kNumClasses];
  size_t seen[kNumClasses] = {0, 0, 0};
  size_t attempted = 0;
  size_t rejected = 0;
};

struct WindowResult {
  std::vector<ClientLog> clients;
  std::vector<ReadSample> reads;  // answered within the window
  size_t reads_dropped = 0;       // answered after the log filled up
  std::vector<double> update_ms;
  size_t update_attempted = 0;
  bool epochs_in_order = true;
  double wall_s = 0;
  // CPU time of the coordinator and its workers, and the reads answered,
  // from the window's start to the end of its last whole update cycle (to
  // its end on read-only workloads).
  double cpu_ms = 0;
  uint64_t cpu_reads = 0;
  pereach::MetricsSnapshot before;
  pereach::MetricsSnapshot after;
};

/// The closed loop: kNumClients readers, each waiting on its answer before
/// drawing the next query. Read-only workloads serve for `seconds`. On the
/// write workload the window is whole update cycles: the next edge of the
/// update stream is inserted before the clock starts and again each time
/// another `reads_per_update` reads have been answered, and the window
/// closes at the first insert committed after `seconds`, so every run
/// measures complete cycles of (lazy refresh, reads, insert). The server's
/// epoch e must mean "the first e edges of `updates` applied".
WindowResult RunWindow(QueryServer* server, const Workload& w,
                       const Inputs& in, uint64_t seed, uint64_t stream,
                       double seconds, Tracer* tracer,
                       const std::vector<std::pair<NodeId, NodeId>>& updates) {
  WindowResult result;
  result.clients.resize(kNumClients);
  for (ClientLog& log : result.clients) {
    for (std::vector<Served>& r : log.oracle) r.reserve(kOracleReservoir);
  }
  result.reads.assign(static_cast<size_t>(seconds * kMaxReadRate) + 1,
                      ReadSample{});
  std::atomic<size_t> logged{0};
  SpanBuffer* writer_spans =
      w.reads_per_update == 0 ? nullptr : tracer->NewBuffer();
  auto insert = [&](size_t i) {
    ++result.update_attempted;
    ScopedSpan span(writer_spans, "client.update", i);
    StopWatch watch;
    const uint64_t epoch =
        server->AddEdge(updates[i].first, updates[i].second);
    result.update_ms.push_back(watch.ElapsedMs());
    if (epoch != i + 1) result.epochs_in_order = false;
  };
  // On the write workload the CPU books open before the first insert, so
  // each update cycle (insert, refresh, reads) is counted whole.
  const double cpu_before = ServingCpuMs(server);
  if (w.reads_per_update != 0) insert(server->epoch());
  result.before = server->Metrics();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> answered{0};
  std::atomic<double> end_ms{0};
  std::mutex mu;
  std::condition_variable cv;

  StopWatch wall;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kNumClients; ++c) {
    threads.emplace_back([&, c] {
      SpanBuffer* spans = tracer->NewBuffer();
      QueryStream queries(w, in, seed * 1000 + c + stream * 100);
      pereach::Rng reservoir_rng(seed * 1000 + c + stream * 100 + 50);
      ClientLog& log = result.clients[c];
      while (!stop.load(std::memory_order_relaxed)) {
        Served rec;
        rec.query = queries.Next(&rec.automaton);
        ++log.attempted;
        ServedAnswer a;
        double latency_ms = 0;
        {
          ScopedSpan span(spans, "client.query",
                          (static_cast<uint64_t>(c) << 40) | log.attempted);
          StopWatch watch;
          a = server->Submit(rec.query, static_cast<pereach::TenantId>(c))
                  .get();
          latency_ms = watch.ElapsedMs();
        }
        const double done_ms = wall.ElapsedMs();
        if (a.rejected) {
          ++log.rejected;
          continue;
        }
        const size_t slot = logged.fetch_add(1);
        if (slot < result.reads.size()) {
          result.reads[slot] = {static_cast<float>(latency_ms),
                                static_cast<float>(done_ms),
                                static_cast<float>(a.answer.metrics.wall_ms),
                                rec.query.kind};
        }
        const size_t c_idx = static_cast<size_t>(rec.query.kind);
        const size_t keep = ++log.seen[c_idx] <= kOracleReservoir
                                ? log.seen[c_idx] - 1
                                : reservoir_rng.Uniform(log.seen[c_idx]);
        if (keep < kOracleReservoir) {
          rec.reachable = a.answer.reachable;
          rec.distance = a.answer.distance;
          rec.epoch = a.epoch;
          rec.query.automaton.reset();
          std::vector<Served>& reservoir = log.oracle[c_idx];
          if (keep < reservoir.size()) {
            reservoir[keep] = std::move(rec);
          } else {
            reservoir.push_back(std::move(rec));
          }
        }
        const uint64_t done = answered.fetch_add(1) + 1;
        if (w.reads_per_update != 0 && done % w.reads_per_update == 0) {
          { std::lock_guard<std::mutex> lock(mu); }
          cv.notify_one();
        }
      }
    });
  }
  auto close_cpu_books = [&] {
    result.cpu_ms = ServingCpuMs(server) - cpu_before;
    result.cpu_reads = answered.load();
  };
  if (w.reads_per_update == 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    close_cpu_books();
    end_ms.store(wall.ElapsedMs());
  } else {
    uint64_t next = w.reads_per_update;
    for (size_t i = server->epoch(); i < updates.size(); ++i) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return answered.load() >= next; });
      }
      // The closing insert's refresh would land in reads still in flight,
      // so the CPU books close before it.
      const bool last = wall.ElapsedMs() >= seconds * 1000.0;
      if (last) close_cpu_books();
      insert(i);
      next += w.reads_per_update;
      end_ms.store(wall.ElapsedMs());
      if (last) break;
    }
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();
  result.after = server->Metrics();

  // Reads still in flight when the window closed belong to no cycle.
  result.wall_s = end_ms.load() / 1000.0;
  const size_t total = logged.load();
  result.reads_dropped = total > result.reads.size()
                             ? total - result.reads.size()
                             : 0;
  result.reads.resize(std::min(total, result.reads.size()));
  std::erase_if(result.reads, [&](const ReadSample& r) {
    return r.done_ms > end_ms.load();
  });
  std::sort(result.reads.begin(), result.reads.end(),
            [](const ReadSample& x, const ReadSample& y) {
              return x.done_ms < y.done_ms;
            });
  return result;
}

/// Nearest-rank percentile of an unsorted sample (sorts a copy).
double Percentile(std::vector<double> sample, double p) {
  if (sample.empty()) return 0;
  std::sort(sample.begin(), sample.end());
  const double pos = p * static_cast<double>(sample.size() - 1);
  return sample[std::min(sample.size() - 1, static_cast<size_t>(pos + 0.5))];
}

double Mean(const std::vector<double>& sample) {
  if (sample.empty()) return 0;
  double sum = 0;
  for (double v : sample) sum += v;
  return sum / static_cast<double>(sample.size());
}

// --- the oracle gate -------------------------------------------------------

struct GateResult {
  size_t checked[kNumClasses] = {0, 0, 0};
  size_t wrong = 0;
};

/// Checks the reservoir sample of each class's answers against the
/// centralized evaluators on the graph as of the answer's epoch (the base
/// graph plus the first `epoch` edges of the update stream, replayed in
/// order; `committed` is the last epoch the server committed).
GateResult OracleGate(const Inputs& in, const WindowResult& window,
                      const std::vector<std::pair<NodeId, NodeId>>& updates,
                      uint64_t committed, bool corrupt_one) {
  std::vector<Served> sample;
  for (size_t c = 0; c < kNumClasses; ++c) {
    for (const ClientLog& log : window.clients) {
      sample.insert(sample.end(), log.oracle[c].begin(), log.oracle[c].end());
    }
  }
  if (corrupt_one && !sample.empty()) {
    sample.front().reachable = !sample.front().reachable;
    sample.front().distance =
        sample.front().reachable ? 0 : pereach::kInfWeight;
  }
  std::sort(sample.begin(), sample.end(),
            [](const Served& a, const Served& b) {
              return a.epoch < b.epoch;
            });

  GateResult gate;
  std::unique_ptr<pereach::Graph> graph;
  uint64_t graph_epoch = ~uint64_t{0};
  for (const Served& s : sample) {
    if (s.epoch != graph_epoch) {
      pereach::GraphBuilder b;
      b.AddNodes(in.graph.NumNodes());
      for (NodeId v = 0; v < in.graph.NumNodes(); ++v) {
        b.SetLabel(v, in.graph.label(v));
        for (NodeId u : in.graph.OutNeighbors(v)) b.AddEdge(v, u);
      }
      for (uint64_t e = 0; e < s.epoch && e < updates.size(); ++e) {
        b.AddEdge(updates[e].first, updates[e].second);
      }
      graph = std::make_unique<pereach::Graph>(std::move(b).Build());
      graph_epoch = s.epoch;
    }
    const Query& q = s.query;
    const size_t c = static_cast<size_t>(q.kind);
    ++gate.checked[c];
    bool ok = true;
    if (s.epoch > committed) {
      ok = false;
    } else if (q.kind == QueryKind::kReach) {
      ok = s.reachable ==
           pereach::CentralizedReach(*graph, q.source, q.target);
    } else if (q.kind == QueryKind::kDist) {
      const uint32_t d =
          q.source == q.target
              ? 0
              : pereach::CentralizedDistance(*graph, q.source, q.target);
      const bool expected = d != pereach::kInfDistance && d <= q.bound;
      ok = s.reachable == expected && (!expected || s.distance == d);
    } else {
      ok = s.reachable ==
           pereach::CentralizedRegularReach(*graph, q.source, q.target,
                                            in.automata[s.automaton]);
    }
    if (!ok) ++gate.wrong;
  }
  return gate;
}

// --- output ----------------------------------------------------------------

void AppendNumber(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out->append(buf);
}

std::string ToJson(bool correct, size_t attempted, size_t failed,
                   const MetricSink& metrics, const MetricSink& meta,
                   const std::map<std::string, std::string>& meta_strings) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics.entries()) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": ";
    AppendNumber(&out, vu.first);
    out += ", \"unit\": \"" + vu.second + "\"}";
  }
  out += "}, \"meta\": {";
  first = true;
  for (const auto& [name, vu] : meta.entries()) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": ";
    AppendNumber(&out, vu.first);
  }
  for (const auto& [name, value] : meta_strings) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": \"" + value + "\"";
  }
  out += "}}";
  return out;
}

struct ServerBundle {
  std::unique_ptr<IncrementalReachIndex> index;
  std::unique_ptr<QueryServer> server;  // after `index`: destroyed first
  bool warm_ok = true;

  /// Stops the server before dropping the index it listens to (a move
  /// assignment would free the index first).
  void Reset() {
    server.reset();
    index.reset();
  }
};

/// Set-up as a user pays it: index construction, server construction
/// (socket workers spawned and shipped their fragments), and one answered
/// query per class and per pooled automaton.
ServerBundle SetUp(const Workload& w, const Inputs& in) {
  ServerBundle b;
  b.index = std::make_unique<IncrementalReachIndex>(in.graph, in.partition,
                                                    kNumSites);
  b.server =
      std::make_unique<QueryServer>(b.index.get(), MakeServerOptions(w));
  for (const Query& q : WarmQueries(w, in)) {
    if (b.server->Submit(q).get().rejected) b.warm_ok = false;
  }
  return b;
}

void PrintClassLine(const char* name, const std::vector<double>& lat) {
  std::printf("  %-6s n=%-7zu p50=%.3f ms  p99=%.3f ms  mean=%.3f ms\n", name,
              lat.size(), Percentile(lat, 0.5), Percentile(lat, 0.99),
              Mean(lat));
}

int Run(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    std::fprintf(stderr,
                 "usage: perfbench_serve --workload=reach-sim|mixed-sim|"
                 "mixed-write-socket --seed=N --seconds=S --trace=0|1 "
                 "[--scale=F] [--corrupt-answer] "
                 "[--trace-out=PATH]\n");
    return 2;
  }
  const Workload& w = *FindWorkload(flags.workload);
  const double scale = flags.scale > 0 ? flags.scale : w.scale;
  const int cpu = PinToOneCpu();

  const Inputs in = MakeInputs(scale);
  std::printf("workload %s seed %llu: %zu nodes, %zu edges, %zu sites, "
              "transport %s, trace %d\n",
              w.name, static_cast<unsigned long long>(flags.seed),
              in.graph.NumNodes(), in.graph.NumEdges(), kNumSites,
              w.transport == pereach::TransportBackend::kSocket ? "socket"
                                                                 : "sim",
              flags.trace ? 1 : 0);
  std::fflush(stdout);

  // Generous upper bound on the updates one window can apply.
  const std::vector<std::pair<NodeId, NodeId>> updates =
      w.reads_per_update == 0
          ? std::vector<std::pair<NodeId, NodeId>>{}
          : MakeUpdateStream(in.graph.NumNodes(), flags.seed, 100000);

  // Set-up: the first timed set-up serves; the others (timed run only) come
  // after the window and its memory reading, so peak_rss_mb is the peak of
  // one set-up plus serving. setup_s is the median of all of them.
  std::vector<double> setup_s;
  bool warm_ok = true;
  auto timed_setup = [&] {
    StopWatch watch;
    ServerBundle b = SetUp(w, in);
    setup_s.push_back(watch.ElapsedMs() / 1000.0);
    warm_ok = warm_ok && b.warm_ok;
    return b;
  };
  ServerBundle bundle = timed_setup();

  Tracer untraced(false);
  Tracer tracer(flags.trace);
  double untraced_qps = 0;
  if (flags.trace) {
    const WindowResult plain =
        RunWindow(bundle.server.get(), w, in, flags.seed, /*stream=*/1,
                  flags.seconds / 2, &untraced, updates);
    untraced_qps = static_cast<double>(plain.reads.size()) / plain.wall_s;
  }
  const HostCpu cpu_before = ReadHostCpu();
  const WindowResult window = RunWindow(
      bundle.server.get(), w, in, flags.seed, /*stream=*/0,
      flags.trace ? flags.seconds / 2 : flags.seconds, &tracer, updates);
  const HostCpu cpu_after = ReadHostCpu();
  const uint64_t committed = bundle.server->epoch();

  // Peak memory: the coordinator's peak plus every live worker's peak,
  // read before the workers shut down.
  double peak_rss_mb = PeakRssMb(0);
  size_t workers_read = 0;
  for (int pid : bundle.server->cluster()->transport()->WorkerPidsForTest()) {
    const double mb = PeakRssMb(pid);
    if (mb > 0) ++workers_read;
    peak_rss_mb += mb;
  }
  const pereach::TransportHealth health =
      bundle.server->cluster()->transport()->Health();
  bundle.Reset();
  while (setup_s.size() < (flags.trace ? 1 : w.setups)) timed_setup();
  std::printf("setup:");
  for (double s : setup_s) std::printf(" %.3fs", s);
  std::printf("\n");

  // Per-class client-side books.
  std::vector<double> lat[kNumClasses];
  std::vector<double> batch_wall[kNumClasses];
  std::vector<double> all_lat;
  size_t attempted = window.update_attempted;
  size_t rejected = 0;
  for (const ClientLog& log : window.clients) {
    attempted += log.attempted;
    rejected += log.rejected;
  }
  for (const ReadSample& r : window.reads) {
    const size_t c = static_cast<size_t>(r.kind);
    lat[c].push_back(r.latency_ms);
    batch_wall[c].push_back(r.batch_wall_ms);
    all_lat.push_back(r.latency_ms);
  }

  StopWatch gate_watch;
  const GateResult gate =
      OracleGate(in, window, updates, committed, flags.corrupt_answer);
  const double gate_s = gate_watch.ElapsedMs() / 1000.0;

  const size_t failed = rejected + gate.wrong + (warm_ok ? 0 : 1);
  const double error_rate =
      attempted == 0 ? 0.0
                     : static_cast<double>(rejected + gate.wrong) /
                           static_cast<double>(attempted);

  std::printf("serving window %.2fs, %zu reads answered, %zu rejected, "
              "%zu updates\n",
              window.wall_s, all_lat.size(), rejected,
              window.update_ms.size());
  std::printf("read cpu: %.1f ms over %llu reads\n", window.cpu_ms,
              static_cast<unsigned long long>(window.cpu_reads));
  PrintClassLine("read", all_lat);
  for (size_t c = 0; c < kNumClasses; ++c) {
    if (!lat[c].empty()) PrintClassLine(ClassName(c), lat[c]);
  }
  if (!window.update_ms.empty()) PrintClassLine("update", window.update_ms);
  std::printf("oracle gate: %zu/%zu/%zu reach/dist/rpq checked, %zu wrong "
              "(%.2fs)\n",
              gate.checked[0], gate.checked[1], gate.checked[2], gate.wrong,
              gate_s);
  std::printf("error_rate %.6f, peak_rss %.1f MB (%zu workers read)\n",
              error_rate, peak_rss_mb, workers_read);
  std::fflush(stdout);

  MetricSink metrics;
  MetricSink meta;
  std::map<std::string, std::string> meta_strings;
  meta_strings["workload"] = w.name;
  meta.Set("seed", static_cast<double>(flags.seed), "");
  meta.Set("scale", scale, "");
  meta.Set("nodes", static_cast<double>(in.graph.NumNodes()), "");
  meta.Set("edges", static_cast<double>(in.graph.NumEdges()), "");
  meta.Set("nproc", static_cast<double>(std::thread::hardware_concurrency()),
           "");
  meta.Set("clients", static_cast<double>(kNumClients), "");
  meta.Set("pinned_cpu", static_cast<double>(cpu), "");
  meta.Set("window_s", window.wall_s, "");
  meta.Set("samples.read", static_cast<double>(all_lat.size()), "");
  for (size_t c = 0; c < kNumClasses; ++c) {
    meta.Set(std::string("samples.") + ClassName(c),
             static_cast<double>(lat[c].size()), "");
    meta.Set(std::string("oracle_checked.") + ClassName(c),
             static_cast<double>(gate.checked[c]), "");
  }
  meta.Set("samples.update", static_cast<double>(window.update_ms.size()), "");
  meta.Set("samples.dropped", static_cast<double>(window.reads_dropped), "");
  meta.Set("samples.setup", static_cast<double>(setup_s.size()), "");
  meta.Set("error_rate", error_rate, "");
  // CPU time the hypervisor gave other guests during the window: on a
  // shared host it explains most run-to-run spread.
  meta.Set("host_steal_pct",
           cpu_after.total == cpu_before.total
               ? 0
               : 100.0 *
                     static_cast<double>(cpu_after.steal - cpu_before.steal) /
                     static_cast<double>(cpu_after.total - cpu_before.total),
           "");

  bool correct = gate.wrong == 0 && window.epochs_in_order && warm_ok;
  if (window.reads_dropped != 0) {
    std::printf("read log overflowed: %zu reads not recorded\n",
                window.reads_dropped);
    correct = false;
  }
  if (!flags.trace) {
    // Serving cost: CPU time of the coordinator and its workers per read
    // answered in the window (on the write workload per read of its whole
    // update cycles, including the inserts and the refresh work they
    // cause). Wall-clock rates and latencies go to the traced run: on a
    // shared host with 5-15% steal, read q/s moved by up to 40% between runs
    // of one seed while this cost, on one CPU, held within a few percent.
    metrics.Set("read_cpu_ms",
                window.cpu_reads == 0
                    ? 0
                    : window.cpu_ms / static_cast<double>(window.cpu_reads),
                "ms");
    metrics.Set("setup_s", Percentile(setup_s, 0.5), "s");
    metrics.Set("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    // Wall-clock throughput and latencies over the traced window (0 = no
    // such operation on this workload). They are what a caller sees, but on
    // a shared host they swing with other guests' load more than any bound
    // a timed run could hold, so they are reported here and not gated.
    metrics.Set("read_qps",
                static_cast<double>(all_lat.size()) / window.wall_s, "1/s");
    metrics.Set("read_p50_ms", Percentile(all_lat, 0.5), "ms");
    metrics.Set("read_p99_ms", Percentile(all_lat, 0.99), "ms");
    metrics.Set("reach_p50_ms", Percentile(lat[0], 0.5), "ms");
    metrics.Set("reach_p99_ms", Percentile(lat[0], 0.99), "ms");
    metrics.Set("dist_p50_ms", Percentile(lat[1], 0.5), "ms");
    metrics.Set("dist_p99_ms", Percentile(lat[1], 0.99), "ms");
    metrics.Set("rpq_p50_ms", Percentile(lat[2], 0.5), "ms");
    metrics.Set("rpq_p99_ms", Percentile(lat[2], 0.99), "ms");
    metrics.Set("update_p50_ms", Percentile(window.update_ms, 0.5), "ms");
    metrics.Set("error_rate", error_rate, "ratio");

    // server: deltas of QueryServer::Metrics() over the traced window,
    // plus client timing.
    const auto& bs_after =
        window.after.histogram(pereach::HistogramId::kBatchSize);
    const auto& bs_before =
        window.before.histogram(pereach::HistogramId::kBatchSize);
    const double batches =
        static_cast<double>(bs_after.count - bs_before.count);
    metrics.Set("server.batch_size_mean",
                batches == 0 ? 0 : (bs_after.sum - bs_before.sum) / batches,
                "queries");
    for (size_t c = 0; c < kNumClasses; ++c) {
      const std::string cls = ClassName(c);
      metrics.Set("server.queue_wait_ms_mean." + cls,
                  lat[c].empty() ? 0 : Mean(lat[c]) - Mean(batch_wall[c]),
                  "ms");
      metrics.Set("server.batch_wall_ms_p50." + cls,
                  Percentile(batch_wall[c], 0.5), "ms");
    }
    metrics.Set(
        "server.rejected",
        static_cast<double>(
            window.after.counter(pereach::CounterId::kQueriesRejected) -
            window.before.counter(pereach::CounterId::kQueriesRejected)),
        "count");
    metrics.Set("net.transport_retries",
                static_cast<double>(health.round_retries), "count");
    metrics.Set("net.transport_respawns",
                static_cast<double>(health.worker_respawns), "count");
    metrics.Set("net.transport_degraded",
                static_cast<double>(health.degraded_site_rounds), "count");
    const double overhead_pct =
        untraced_qps == 0 ? 0
                          : 100.0 *
                                (untraced_qps -
                                 static_cast<double>(all_lat.size()) /
                                     window.wall_s) /
                                untraced_qps;
    meta.Set("trace_overhead_pct", overhead_pct, "");
    metrics.Set("trace.overhead_pct", overhead_pct, "%");

    // The layer replays run after the server is gone, on the same seed's
    // inputs, with spans around every call into a layer.
    const ReplaySet replay = MakeReplaySet(w, in, flags.seed);
    const LayerReport layers = RunLayerReplays(
        w, in, replay, flags.seed, w.reads_per_update == 0 ? 0 : 4, &tracer,
        &metrics);
    if (!layers.ok) {
      std::printf("layer check failed: %s\n", layers.failure.c_str());
      correct = false;
    }
    // write.gate_wait_ms: the served update latency not explained by the
    // index rebuild and fragment sync the replica measured.
    if (!window.update_ms.empty()) {
      metrics.Set("write.gate_wait_ms",
                  Mean(window.update_ms) -
                      metrics.Get("write.index_add_edges_ms") -
                      metrics.Get("net.sync_fragments_ms"),
                  "ms");
    } else {
      metrics.Set("write.gate_wait_ms", 0, "ms");
    }
    metrics.Set("trace.spans", static_cast<double>(tracer.NumSpans()),
                "count");
    std::printf("layer self time (ms):");
    for (const auto& [layer, ms] : tracer.LayerSelfMs()) {
      std::printf(" %s=%.2f", layer.c_str(), ms);
    }
    std::printf("\n");
    if (!flags.trace_out.empty() && !tracer.WriteChromeJson(flags.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", flags.trace_out.c_str());
      return 1;
    }
  }
  if (health.round_retries + health.worker_respawns +
          health.degraded_site_rounds !=
      0) {
    std::printf("note: transport recovered (%llu retries, %llu respawns, "
                "%llu degraded site-rounds)\n",
                static_cast<unsigned long long>(health.round_retries),
                static_cast<unsigned long long>(health.worker_respawns),
                static_cast<unsigned long long>(health.degraded_site_rounds));
  }
  std::printf("%s\n", ToJson(correct, attempted, failed, metrics, meta,
                             meta_strings)
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
