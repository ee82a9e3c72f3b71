// Metrics snapshots: exact per-thread merges, histogram merge algebra,
// canonical serialization, cross-run aggregation, and the component export
// hooks.
#include "util/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "cache/content_store.hpp"
#include "core/engine.hpp"
#include "core/policies.hpp"
#include "sim/apps.hpp"
#include "sim/forwarder.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"
#include "util/tracing.hpp"

namespace {

using namespace ndnp;

TEST(Metrics, CounterConcurrentIncrementsSumExactly) {
  // The runner's model: every thread fills its own snapshot, and
  // merge_snapshots sums them afterwards.
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 100'000;
  std::vector<util::MetricsSnapshot> parts(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&part = parts[t], t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        ++part.counters["shared"];
        part.counters["weighted"] += t + 1;
      }
    });
  for (std::thread& t : threads) t.join();
  const util::MetricsSnapshot merged = util::merge_snapshots(parts);
  EXPECT_EQ(merged.counters.at("shared"), kThreads * kPerThread);
  // sum over t of kPerThread * (t+1) = kPerThread * kThreads*(kThreads+1)/2
  EXPECT_EQ(merged.counters.at("weighted"), kPerThread * kThreads * (kThreads + 1) / 2);
}

TEST(Metrics, HistogramConcurrentAddsLoseNothing) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 50'000;
  std::vector<util::MetricsSnapshot> parts(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&part = parts[t], t] {
      util::Rng rng(1000 + t);
      util::Histogram& hist = part.histograms.try_emplace("h", 0.0, 1.0, 32).first->second;
      for (std::size_t i = 0; i < kPerThread; ++i) hist.add(rng.uniform01());
    });
  for (std::thread& t : threads) t.join();
  const util::MetricsSnapshot snap = util::merge_snapshots(parts);
  const util::Histogram& hist = snap.histograms.at("h");
  EXPECT_EQ(hist.total(), kThreads * kPerThread);
  for (std::size_t bin = 0; bin < hist.bins(); ++bin) {
    std::uint64_t sum = 0;
    for (const util::MetricsSnapshot& part : parts) sum += part.histograms.at("h").count(bin);
    EXPECT_EQ(hist.count(bin), sum) << "bin " << bin;
  }
}

util::Histogram random_histogram(util::Rng& rng, std::size_t bins) {
  util::Histogram h(0.0, 10.0, bins);
  const std::uint64_t n = rng.uniform_u64(2'000);
  for (std::uint64_t i = 0; i < n; ++i) h.add(10.0 * rng.uniform01());
  return h;
}

util::Histogram merged(util::Histogram a, const util::Histogram& b) {
  a.merge(b);
  return a;
}

TEST(Metrics, HistogramMergeIsCommutativeAndAssociative) {
  util::Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t bins = 1 + rng.uniform_u64(64);
    const util::Histogram a = random_histogram(rng, bins);
    const util::Histogram b = random_histogram(rng, bins);
    const util::Histogram c = random_histogram(rng, bins);
    EXPECT_EQ(merged(a, b), merged(b, a));
    EXPECT_EQ(merged(merged(a, b), c), merged(a, merged(b, c)));
    EXPECT_EQ(merged(a, b).total(), a.total() + b.total());
  }
}

TEST(Metrics, HistogramMergeRejectsShapeMismatch) {
  util::Rng rng(7);
  util::Histogram a = random_histogram(rng, 8);
  EXPECT_THROW(a.merge(random_histogram(rng, 9)), std::invalid_argument);
  EXPECT_THROW(a.merge(util::Histogram(0.0, 20.0, 8)), std::invalid_argument);
  EXPECT_THROW(a.merge(util::Histogram(-1.0, 10.0, 8)), std::invalid_argument);
}

TEST(Metrics, HistogramReRegisterShapeMismatchThrows) {
  // The tracer's span profile creates "profile.<comp>.<label>_us" on first
  // use and adds to it afterwards; a same-named histogram of another shape
  // throws.
  util::Tracer tracer;
  util::MetricsSnapshot snap;
  tracer.set_profile_registry(&snap);
  tracer.record_span("R", "cs", "insert", 1'000);
  EXPECT_NO_THROW(tracer.record_span("R", "cs", "insert", 2'000));
  EXPECT_EQ(snap.histograms.at("profile.cs.insert_us").total(), 2u);
  snap.histograms.insert_or_assign("profile.cs.lookup_us", util::Histogram(0.0, 2.0, 100));
  EXPECT_THROW(tracer.record_span("R", "cs", "lookup", 1'000), std::invalid_argument);
  snap.histograms.insert_or_assign("profile.cs.lookup_us", util::Histogram(0.0, 10'000.0, 16));
  EXPECT_THROW(tracer.record_span("R", "cs", "lookup", 1'000), std::invalid_argument);
}

TEST(Metrics, SnapshotJsonIsCanonical) {
  util::MetricsSnapshot snap;
  snap.counters["z.last"] += 3;
  snap.counters["a.first"] += 1;
  snap.histograms.try_emplace("lat", 0.0, 100.0, 4).first->second.add(12.0);
  snap.gauges["rate"] = 0.1 + 0.2;  // non-trivial double must round-trip
  const std::string json = snap.to_json();
  // Keys serialize in lexicographic order regardless of insertion order.
  EXPECT_LT(json.find("a.first"), json.find("z.last"));
  EXPECT_EQ(json, snap.to_json()) << "serialization must be deterministic";
  EXPECT_NE(json.find("\"rate\":0.30000000000000004"), std::string::npos) << json;
  EXPECT_EQ(json,
            R"({"counters":{"a.first":1,"z.last":3},"gauges":{"rate":0.30000000000000004},)"
            R"("histograms":{"lat":{"lo":0,"hi":100,"counts":[1,0,0,0]}}})");
}

TEST(Metrics, SweepAggregateStats) {
  std::vector<util::MetricsSnapshot> runs(4);
  const double values[] = {1.0, 2.0, 3.0, 6.0};
  for (std::size_t i = 0; i < 4; ++i) {
    runs[i].counters["hits"] = static_cast<std::uint64_t>(values[i]);
    runs[i].gauges["rate"] = values[i] / 10.0;
  }
  runs[3].counters["only_last"] = 8;  // missing elsewhere -> counts as 0
  const util::SweepAggregate agg = util::SweepAggregate::from_runs(runs);
  EXPECT_EQ(agg.runs, 4u);
  EXPECT_DOUBLE_EQ(agg.counters.at("hits").stats.mean(), 3.0);
  EXPECT_DOUBLE_EQ(agg.counters.at("hits").stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(agg.counters.at("hits").stats.max(), 6.0);
  EXPECT_DOUBLE_EQ(agg.counters.at("only_last").stats.mean(), 2.0);
  EXPECT_EQ(agg.counters.at("only_last").stats.count(), 4u);
  EXPECT_DOUBLE_EQ(agg.gauges.at("rate").percentile(1.0), 0.6);
  // Welford stddev of {1,2,3,6}: mean 3, var (4+1+0+9)/3
  EXPECT_NEAR(agg.counters.at("hits").stats.stddev(), std::sqrt(14.0 / 3.0), 1e-12);
}

TEST(Metrics, SweepAggregateMergesHistograms) {
  std::vector<util::MetricsSnapshot> runs(3);
  for (std::size_t i = 0; i < 3; ++i) {
    util::Histogram& h = runs[i].histograms.try_emplace("h", 0.0, 4.0, 2).first->second;
    for (std::size_t n = 0; n < i + 1; ++n) h.add(1.0);
    for (std::size_t n = 0; n < 2 * (i + 1); ++n) h.add(3.0);
  }
  const util::SweepAggregate agg = util::SweepAggregate::from_runs(runs);
  const util::Histogram& h = agg.histograms.at("h");
  EXPECT_EQ(h.count(0), 6u);
  EXPECT_EQ(h.count(1), 12u);
}

TEST(Metrics, ContentStoreExport) {
  cache::ContentStore store(4, cache::EvictionPolicy::kLru);
  for (int i = 0; i < 6; ++i) {
    cache::EntryMeta meta;
    (void)store.insert(ndn::make_data(ndn::Name{"m", "obj" + std::to_string(i)}, "x", "p", "k"),
                       meta);
  }
  util::MetricsSnapshot snap;
  store.export_metrics(snap, "cs");
  EXPECT_EQ(snap.counters.at("cs.inserts"), 6u);
  EXPECT_EQ(snap.counters.at("cs.evictions"), 2u);
  EXPECT_EQ(snap.counters.at("cs.size"), 4u);
}

TEST(Metrics, EngineExportIncludesPolicyAndStore) {
  // Grouped mode so the policy tracks (c_C, k_C) state of its own (kNone
  // keeps that state on the cache entry instead).
  core::CachePrivacyEngine engine(
      16, cache::EvictionPolicy::kLru,
      core::RandomCachePolicy::uniform(10, 1, core::Grouping::kByNamespace), 1);
  const core::CachePrivacyEngine::FetchFn fetch = [](const ndn::Interest& interest) {
    return std::pair{ndn::make_data(interest.name, "x", "p", "k"), util::millis(10)};
  };
  ndn::Interest interest;
  interest.name = ndn::Name{"m", "obj"};
  for (int i = 0; i < 5; ++i)
    (void)engine.handle(interest, util::millis(i), fetch);
  util::MetricsSnapshot snap;
  engine.export_metrics(snap, "engine");
  EXPECT_EQ(snap.counters.at("engine.requests"), 5u);
  EXPECT_EQ(snap.counters.at("engine.cs.inserts"), 1u);
  EXPECT_EQ(snap.counters.at("engine.policy.groups"), 1u);
  EXPECT_EQ(snap.counters.at("engine.requests"),
            snap.counters.at("engine.exposed_hits") + snap.counters.at("engine.delayed_hits") +
                snap.counters.at("engine.simulated_misses") +
                snap.counters.at("engine.true_misses"));
}

// ---------------------------------------------------------------------------
// to_json: the canonical exporter must stay valid JSON for any metric name
// and byte-identical for equal snapshots (golden vectors depend on this).

TEST(MetricsJson, EscapesMetricNames) {
  util::MetricsSnapshot snap;
  snap.counters["plain.name"] = 1;
  snap.counters["quote\"back\\slash"] = 2;
  snap.counters["ctrl\nnew\tline\x01"] = 3;
  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"plain.name\":1"), std::string::npos);
  EXPECT_NE(json.find("\"quote\\\"back\\\\slash\":2"), std::string::npos);
  // Control characters must come out as \uXXXX, never raw.
  EXPECT_NE(json.find("\"ctrl\\u000anew\\u0009line\\u0001\":3"), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_EQ(json.find('\t'), std::string::npos);
}

TEST(MetricsJson, HistogramEdgeBinsClampOutOfRangeSamples) {
  util::MetricsSnapshot snap;
  util::Histogram& hist = snap.histograms.try_emplace("h", 0.0, 1.0, 4).first->second;
  hist.add(-1e9);   // below lo -> first bin
  hist.add(-0.001);
  hist.add(0.999);  // in range -> last bin
  hist.add(1.0);    // hi is exclusive -> clamps to last bin
  hist.add(1e9);
  ASSERT_EQ(hist.bins(), 4u);
  EXPECT_EQ(hist.count(0), 2u);
  EXPECT_EQ(hist.count(1), 0u);
  EXPECT_EQ(hist.count(2), 0u);
  EXPECT_EQ(hist.count(3), 3u);
  EXPECT_EQ(hist.total(), 5u);
  // The clamped shape serializes with every bin, zeros included.
  EXPECT_NE(snap.to_json().find("\"counts\":[2,0,0,3]"), std::string::npos);
}

TEST(MetricsJson, EqualSnapshotsSerializeByteIdentically) {
  // Fill two snapshots in different orders with the same final state; the
  // ordered maps must erase insertion order entirely.
  util::MetricsSnapshot sa;
  sa.counters["z.last"] += 7;
  sa.counters["a.first"] += 3;
  sa.histograms.try_emplace("h", 0.0, 2.0, 3).first->second.add(1.0);
  util::MetricsSnapshot sb;
  sb.histograms.try_emplace("h", 0.0, 2.0, 3).first->second.add(1.0);
  sb.counters["a.first"] += 1;
  sb.counters["a.first"] += 2;
  sb.counters["z.last"] += 7;
  sa.gauges["rate"] = 0.1 + 0.2;  // same double expression on both sides
  sb.gauges["rate"] = 0.1 + 0.2;
  EXPECT_TRUE(sa == sb);
  EXPECT_EQ(sa.to_json(), sb.to_json());
  // %.17g round-trips doubles exactly, so the gauge survives re-parsing.
  EXPECT_NE(sa.to_json().find("\"rate\":"), std::string::npos);
  sb.histograms.at("h").add(0.0);
  EXPECT_FALSE(sa == sb);
}

TEST(Metrics, ForwarderExport) {
  sim::Scheduler scheduler;
  sim::ForwarderConfig config;
  sim::Forwarder forwarder(scheduler, "r1", config);
  util::MetricsSnapshot snap;
  forwarder.export_metrics(snap, "fwd");
  EXPECT_EQ(snap.counters.at("fwd.interests_received"), 0u);
  EXPECT_EQ(snap.counters.at("fwd.cs.lookups"), 0u);
  EXPECT_EQ(snap.counters.at("fwd.pit_size"), 0u);
}

TEST(Metrics, ForwarderExportsUnderOnePrefixSum) {
  // Export hooks add: exporting one forwarder twice under one prefix
  // doubles every counter, zeros included.
  sim::Scheduler scheduler;
  sim::Consumer consumer(scheduler, "C", 1);
  sim::Forwarder forwarder(scheduler, "r1", sim::ForwarderConfig{});
  (void)sim::connect(consumer, forwarder, sim::LinkConfig{});
  consumer.fetch(ndn::Name{"m", "obj"}, [](const ndn::Data&, util::SimDuration) {});
  scheduler.run();
  util::MetricsSnapshot once;
  forwarder.export_metrics(once, "fwd");
  util::MetricsSnapshot twice;
  forwarder.export_metrics(twice, "fwd");
  forwarder.export_metrics(twice, "fwd");
  ASSERT_EQ(once.counters.at("fwd.interests_received"), 1u);
  ASSERT_EQ(twice.counters.size(), once.counters.size());
  for (const auto& [name, value] : once.counters)
    EXPECT_EQ(twice.counters.at(name), 2 * value) << name;
}

}  // namespace
