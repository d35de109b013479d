// Unit tests for the ServerMetrics registry: counter/gauge/histogram
// mechanics, percentile estimation on the geometric buckets, the
// name/type/unit catalog, and the JSON export (the operations surface
// documented in docs/OPERATIONS.md).

#include "src/server/server_metrics.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace pereach {
namespace {

TEST(ServerMetricsTest, CountersAccumulateAndImport) {
  ServerMetrics metrics;
  metrics.AddCounter(CounterId::kQueriesSubmitted);
  metrics.AddCounter(CounterId::kQueriesSubmitted, 4);
  metrics.SetCounter(CounterId::kCacheHits, 17);
  const MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.counter(CounterId::kQueriesSubmitted), 5u);
  EXPECT_EQ(snap.counter(CounterId::kCacheHits), 17u);
  EXPECT_EQ(snap.counter(CounterId::kQueriesRejected), 0u);
}

TEST(ServerMetricsTest, GaugesHoldTheLastSample) {
  ServerMetrics metrics;
  metrics.SetGauge(GaugeId::kEpoch, 3.0);
  metrics.SetGauge(GaugeId::kEpoch, 7.0);
  metrics.SetGauge(GaugeId::kCacheBytes, 1024.0);
  const MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.gauge(GaugeId::kEpoch), 7.0);
  EXPECT_EQ(snap.gauge(GaugeId::kCacheBytes), 1024.0);
}

TEST(ServerMetricsTest, HistogramTracksExactMomentsAndEstimatesQuantiles) {
  ServerMetrics metrics;
  // 100 observations 1..100: count/sum/min/max are exact; the percentile
  // estimates land within the power-of-two bucket of the true quantile.
  double sum = 0;
  for (int i = 1; i <= 100; ++i) {
    metrics.Observe(HistogramId::kBatchSize, static_cast<double>(i));
    sum += i;
  }
  const HistogramSnapshot h =
      metrics.Snapshot().histogram(HistogramId::kBatchSize);
  EXPECT_EQ(h.count, 100u);
  EXPECT_EQ(h.sum, sum);
  EXPECT_EQ(h.min, 1.0);
  EXPECT_EQ(h.max, 100.0);
  // True p50 = 50 lives in bucket (32, 64]; p99 = 99 in (64, 128] but the
  // estimate is clamped to the observed max.
  EXPECT_GE(h.p50, 32.0);
  EXPECT_LE(h.p50, 64.0);
  EXPECT_GE(h.p90, h.p50);
  EXPECT_GE(h.p99, h.p90);
  EXPECT_LE(h.p99, h.max);
}

TEST(ServerMetricsTest, HistogramQuantilesClampToObservedRange) {
  ServerMetrics metrics;
  metrics.Observe(HistogramId::kWallMsReach, 3.5);
  const HistogramSnapshot h =
      metrics.Snapshot().histogram(HistogramId::kWallMsReach);
  EXPECT_EQ(h.count, 1u);
  // One observation: every percentile IS that observation.
  EXPECT_EQ(h.p50, 3.5);
  EXPECT_EQ(h.p99, 3.5);
}

TEST(ServerMetricsTest, HistogramHandlesOutOfBucketRangeValues) {
  ServerMetrics metrics;
  metrics.Observe(HistogramId::kModeledMsRpq, 0.0);         // below 2^-10
  metrics.Observe(HistogramId::kModeledMsRpq, 1 << 30);     // overflow bucket
  const HistogramSnapshot h =
      metrics.Snapshot().histogram(HistogramId::kModeledMsRpq);
  EXPECT_EQ(h.count, 2u);
  EXPECT_EQ(h.min, 0.0);
  EXPECT_EQ(h.max, static_cast<double>(1 << 30));
  EXPECT_GE(h.p99, h.p50);
  EXPECT_LE(h.p99, h.max);
}

TEST(ServerMetricsTest, CatalogCoversEveryIdWithUniqueWellFormedNames) {
  EXPECT_EQ(CounterInfos().size(), static_cast<size_t>(CounterId::kCount));
  EXPECT_EQ(GaugeInfos().size(), static_cast<size_t>(GaugeId::kCount));
  EXPECT_EQ(HistogramInfos().size(),
            static_cast<size_t>(HistogramId::kCount));
  std::set<std::string> names;
  for (const MetricInfo& info : CounterInfos()) {
    EXPECT_TRUE(names.insert(info.name).second) << info.name;
    EXPECT_EQ(std::string(info.type), "counter") << info.name;
    // Counter naming convention: monotonic series end in _total.
    EXPECT_NE(std::string(info.name).find("_total"), std::string::npos)
        << info.name;
    EXPECT_NE(std::string(info.help), "") << info.name;
  }
  for (const MetricInfo& info : GaugeInfos()) {
    EXPECT_TRUE(names.insert(info.name).second) << info.name;
    EXPECT_EQ(std::string(info.type), "gauge") << info.name;
    EXPECT_NE(std::string(info.help), "") << info.name;
  }
  for (const MetricInfo& info : HistogramInfos()) {
    EXPECT_TRUE(names.insert(info.name).second) << info.name;
    EXPECT_EQ(std::string(info.type), "histogram") << info.name;
    EXPECT_NE(std::string(info.help), "") << info.name;
  }
  for (const std::string& name : names) {
    EXPECT_EQ(name.rfind("server_", 0), 0u)
        << name << " missing the server_ prefix";
  }
}

TEST(ServerMetricsTest, TransportRecoveryMetricsAreCataloged) {
  // The self-healing transport's counters/gauge (DESIGN.md §13) are part of
  // the stable operations surface: pin the exported names to their ids.
  EXPECT_EQ(std::string(
                CounterInfos()[static_cast<size_t>(CounterId::kTransportRetries)]
                    .name),
            "server_transport_retries_total");
  EXPECT_EQ(std::string(CounterInfos()[static_cast<size_t>(
                                           CounterId::kTransportRespawns)]
                            .name),
            "server_transport_respawns_total");
  EXPECT_EQ(std::string(CounterInfos()[static_cast<size_t>(
                                           CounterId::kTransportDegraded)]
                            .name),
            "server_transport_degraded_total");
  EXPECT_EQ(std::string(CounterInfos()[static_cast<size_t>(
                                           CounterId::kTransportSyncFailures)]
                            .name),
            "server_transport_sync_failures_total");
  EXPECT_EQ(std::string(CounterInfos()[static_cast<size_t>(
                                           CounterId::kTransportFragmentSyncs)]
                            .name),
            "server_transport_fragment_syncs_total");
  EXPECT_EQ(
      std::string(
          GaugeInfos()[static_cast<size_t>(GaugeId::kBreakersOpen)].name),
      "server_transport_breakers_open");
  // They export like any other metric.
  ServerMetrics metrics;
  metrics.AddCounter(CounterId::kTransportRetries, 2);
  metrics.SetGauge(GaugeId::kBreakersOpen, 1.0);
  const MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.counter(CounterId::kTransportRetries), 2u);
  EXPECT_EQ(snap.gauge(GaugeId::kBreakersOpen), 1.0);
  EXPECT_NE(snap.ToJson().find("\"server_transport_retries_total\": 2"),
            std::string::npos);
}

TEST(ServerMetricsTest, JsonSnapshotIsStructurallySoundAndComplete) {
  ServerMetrics metrics;
  metrics.AddCounter(CounterId::kBatches, 3);
  metrics.SetGauge(GaugeId::kQueueDepthReach, 2.0);
  metrics.Observe(HistogramId::kBatchSize, 8.0);
  const std::string json = metrics.Snapshot().ToJson();

  // Every cataloged name appears exactly once, quoted as a JSON key.
  for (const auto& infos : {CounterInfos(), GaugeInfos(), HistogramInfos()}) {
    for (const MetricInfo& info : infos) {
      const std::string quoted = std::string("\"") + info.name + "\":";
      const size_t first = json.find(quoted);
      ASSERT_NE(first, std::string::npos) << info.name;
      EXPECT_EQ(json.find(quoted, first + 1), std::string::npos) << info.name;
    }
  }
  // Balanced braces and the three sections, in order.
  size_t depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{') ++depth;
    if (c == '}') {
      ASSERT_GT(depth, 0u) << "unbalanced at offset " << i;
      --depth;
    }
  }
  EXPECT_EQ(depth, 0u);
  EXPECT_FALSE(in_string);
  const size_t counters_at = json.find("\"counters\"");
  const size_t gauges_at = json.find("\"gauges\"");
  const size_t histograms_at = json.find("\"histograms\"");
  ASSERT_NE(counters_at, std::string::npos);
  ASSERT_NE(gauges_at, std::string::npos);
  ASSERT_NE(histograms_at, std::string::npos);
  EXPECT_LT(counters_at, gauges_at);
  EXPECT_LT(gauges_at, histograms_at);
  EXPECT_NE(json.find("\"server_batches_total\": 3"), std::string::npos);
}

}  // namespace
}  // namespace pereach
