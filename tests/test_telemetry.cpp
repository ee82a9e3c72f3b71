// Online telemetry layer: estimator properties (EWMA convergence, CUSUM
// step response and stationary silence, inter-arrival regularity), the
// prefix bank's fixed detector rule, recorder ring/CSV/Prometheus
// semantics, hub alarm emission as trace events, the labelled
// attack-scenario recall floor, the clean-replay false-alarm
// ceiling, jobs-invariance of the exported series, and a pinned golden
// CSV vector (regenerate with NDNP_REGEN_GOLDEN=1).
#include "telemetry/telemetry.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <functional>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "attack/telemetry_scenario.hpp"
#include "core/policies.hpp"
#include "runner/experiments.hpp"
#include "sim/topology.hpp"
#include "sim/trace_sinks.hpp"
#include "telemetry/detectors.hpp"
#include "telemetry/estimators.hpp"
#include "trace/replayer.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/tracing.hpp"

namespace {

using namespace ndnp;

#ifndef NDNP_SOURCE_ROOT
#error "tests must be compiled with -DNDNP_SOURCE_ROOT=\"<repo root>\""
#endif

// ---------------------------------------------------------------------------
// Estimator properties.

TEST(Ewma, ConvergesToBernoulliMean) {
  for (const double p : {0.1, 0.3, 0.7}) {
    telemetry::EwmaEstimator ewma;  // alpha = 0.05
    util::Rng rng(static_cast<std::uint64_t>(p * 1000) + 1);
    for (std::size_t i = 0; i < 20'000; ++i) ewma.observe(rng.uniform01() < p ? 1.0 : 0.0);
    // Steady-state EWMA std dev for Bernoulli is sqrt(alpha/(2-alpha) p(1-p))
    // ~ 0.08 at worst here; 5 sigma keeps the seeded check deterministic.
    EXPECT_NEAR(ewma.value, p, 0.12) << "p=" << p;
    EXPECT_EQ(ewma.count, 20'000u);
  }
}

TEST(Ewma, FirstObservationSeedsDirectly) {
  telemetry::EwmaEstimator ewma;
  ewma.observe(0.75);
  EXPECT_DOUBLE_EQ(ewma.value, 0.75);
}

TEST(Cusum, FiresOnDownwardHitRateStep) {
  telemetry::CusumDetector cusum;
  cusum.arm(0.8);
  util::Rng rng(42);
  // Stationary at the reference: no alarm while the mean matches.
  for (std::size_t i = 0; i < 5'000; ++i)
    ASSERT_FALSE(cusum.observe(rng.uniform01() < 0.8 ? 1.0 : 0.0)) << "sample " << i;
  // Collapse to p=0.1 (cache-pollution signature): per-sample accumulation
  // ~ 0.7 - drift, so the alarm must land well inside 100 samples.
  bool fired = false;
  std::size_t samples_to_fire = 0;
  for (std::size_t i = 0; i < 100 && !fired; ++i) {
    fired = cusum.observe(rng.uniform01() < 0.1 ? 1.0 : 0.0);
    samples_to_fire = i + 1;
  }
  EXPECT_TRUE(fired);
  EXPECT_LT(samples_to_fire, 60u);
  EXPECT_EQ(cusum.alarms, 1u);
  // Post-alarm reset: statistics cleared so the next alarm re-accumulates.
  EXPECT_DOUBLE_EQ(cusum.statistic(), 0.0);
}

TEST(Cusum, SilentOnFiftyStationarySeeds) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    telemetry::CusumDetector cusum;
    cusum.arm(0.5);  // worst case: Bernoulli variance peaks at p = 0.5
    util::Rng rng(seed);
    for (std::size_t i = 0; i < 20'000; ++i)
      cusum.observe(rng.uniform01() < 0.5 ? 1.0 : 0.0);
    EXPECT_EQ(cusum.alarms, 0u) << "false alarm at seed " << seed;
  }
}

TEST(Cusum, AdaptiveReferenceAbsorbsSlowDrift) {
  // Hit rate decaying 0.8 -> 0.6 over 20k samples (cache saturating) must
  // not alarm: the slow-EWMA reference tracks it. The same shift applied
  // abruptly (tested above) fires within tens of samples.
  telemetry::CusumDetector cusum;
  cusum.arm(0.8);
  util::Rng rng(7);
  for (std::size_t i = 0; i < 20'000; ++i) {
    const double p = 0.8 - 0.2 * static_cast<double>(i) / 20'000.0;
    cusum.observe(rng.uniform01() < p ? 1.0 : 0.0);
  }
  EXPECT_EQ(cusum.alarms, 0u);
  EXPECT_NEAR(cusum.reference, 0.6, 0.1);
}

TEST(Cusum, ObserveBeforeArmIsNoOp) {
  telemetry::CusumDetector cusum;
  for (int i = 0; i < 1'000; ++i) EXPECT_FALSE(cusum.observe(0.0));
  EXPECT_EQ(cusum.alarms, 0u);
  EXPECT_DOUBLE_EQ(cusum.statistic(), 0.0);
}

TEST(InterArrival, RegularityCvSeparatesPoissonFromMachinePacing) {
  telemetry::InterArrivalEstimator poisson, paced;
  util::Rng rng(5);
  util::SimTime tp = 0, tm = 0;
  for (std::size_t i = 0; i < 500; ++i) {
    poisson.observe(tp += static_cast<util::SimDuration>(rng.exponential(1e-6)));
    paced.observe(tm += static_cast<util::SimDuration>(500));
  }
  EXPECT_EQ(poisson.gaps(), 499u);
  // Poisson CV near 2/e, machine pacing near 0.
  EXPECT_GT(poisson.regularity_cv(), 0.5);
  EXPECT_LT(paced.regularity_cv(), 0.01);
}

// ---------------------------------------------------------------------------
// Detector banks.

TEST(DetectorBank, EnableMaskSuppressesAlarmsButKeepsEstimators) {
  // The same requester hammering protected content: the face bank flags
  // the delayed-hit share, the prefix bank never fires that detector but
  // keeps observing (and still fires the others).
  telemetry::DetectorBank face(telemetry::BankScope::kFace);
  telemetry::DetectorBank prefix(telemetry::BankScope::kPrefix);
  EXPECT_EQ(face.buckets(), telemetry::kFaceBuckets);
  EXPECT_EQ(prefix.buckets(), telemetry::kPrefixBuckets);
  telemetry::AlarmEvent out[telemetry::kDetectorKinds];
  util::SimTime now = 0;
  for (std::size_t i = 0; i < 500; ++i) {
    now += 1'000'000;
    face.observe(1, core::LookupOutcome::kDelayedHit, now, out);
    prefix.observe(1, core::LookupOutcome::kDelayedHit, now, out);
  }
  EXPECT_GT(face.alarms(telemetry::DetectorKind::kDelayedHitRatio), 0u);
  EXPECT_EQ(prefix.alarms(telemetry::DetectorKind::kDelayedHitRatio), 0u);
  EXPECT_GT(prefix.alarms(telemetry::DetectorKind::kArrivalRegularity), 0u);
  EXPECT_EQ(prefix.observations(), 500u);
}

// ---------------------------------------------------------------------------
// TimeSeriesRecorder: cadence, ring, exports.

TEST(TimeSeries, LazySamplingEmitsOneRowPerCrossedBoundary) {
  telemetry::TimeSeriesRecorder recorder(util::millis(10));
  double gauge = 0.0;
  recorder.add_probe("gauge", [&] { return gauge; });

  recorder.maybe_sample(util::millis(5));  // before the first boundary
  EXPECT_EQ(recorder.rows(), 0u);
  gauge = 1.0;
  recorder.maybe_sample(util::millis(12));  // crosses t=10ms
  EXPECT_EQ(recorder.rows(), 1u);
  recorder.maybe_sample(util::millis(13));  // same boundary: no new row
  EXPECT_EQ(recorder.rows(), 1u);
  gauge = 2.0;
  // Jump across three boundaries (20, 30, 40 ms): only the latest gets a
  // row, the two skipped ones are counted.
  recorder.maybe_sample(util::millis(45));
  EXPECT_EQ(recorder.rows(), 2u);
  EXPECT_EQ(recorder.missed_boundaries(), 2u);

  const std::string csv = recorder.to_csv();
  EXPECT_EQ(csv,
            "t_ns,gauge\n"
            "10000000,1\n"
            "40000000,2\n");
}

TEST(TimeSeries, RingKeepsMostRecentRows) {
  constexpr std::size_t kRows = telemetry::TimeSeriesRecorder::kRingRows;
  telemetry::TimeSeriesRecorder recorder(util::millis(1));
  recorder.add_probe("t_ms", [] { return 0.0; });
  for (std::size_t i = 1; i <= kRows + 6; ++i)
    recorder.maybe_sample(util::millis(static_cast<std::int64_t>(i)));
  EXPECT_EQ(recorder.rows(), kRows);
  EXPECT_EQ(recorder.dropped_rows(), 6u);
  const std::string csv = recorder.to_csv();
  // Oldest-first and only the last kRows boundaries survive.
  EXPECT_EQ(csv.rfind("t_ns,t_ms\n7000000,", 0), 0u) << csv.substr(0, 40);
  EXPECT_NE(csv.find("\n" + std::to_string((kRows + 6) * 1'000'000) + ",0\n"),
            std::string::npos);
  EXPECT_EQ(csv.find("\n6000000,"), std::string::npos);
}

TEST(TimeSeries, PrometheusExpositionSanitizesNames) {
  telemetry::TimeSeriesRecorder recorder(util::millis(10));
  recorder.add_probe("cs.occupancy", [] { return 42.0; });
  recorder.sample_at(util::millis(30));
  const std::string prom = recorder.to_prometheus();
  EXPECT_NE(prom.find("# TYPE ndnp_cs_occupancy gauge"), std::string::npos) << prom;
  EXPECT_NE(prom.find("ndnp_cs_occupancy 42 30"), std::string::npos)
      << "value + millisecond timestamp expected:\n"
      << prom;
}

TEST(TimeSeries, ProbeSetFreezesAtFirstSample) {
  telemetry::TimeSeriesRecorder recorder(util::millis(10));
  recorder.add_probe("a", [] { return 0.0; });
  recorder.sample_at(util::millis(10));
  EXPECT_THROW(recorder.add_probe("b", [] { return 0.0; }), std::logic_error);
}

// ---------------------------------------------------------------------------
// Metrics export: the empty snapshot's JSON shape is pinned because
// replay_tool/chaos_tool --metrics-out consumers key on it.

/// True when `snap` holds no counter under `prefix`.
bool no_counter_under(const util::MetricsSnapshot& snap, const std::string& prefix) {
  const auto it = snap.counters.lower_bound(prefix);
  return it == snap.counters.end() || it->first.compare(0, prefix.size(), prefix) != 0;
}

TEST(MetricsExport, EmptyRegistrySnapshotJson) {
  const util::MetricsSnapshot snap;
  EXPECT_EQ(snap.to_json(), R"({"counters":{},"gauges":{},"histograms":{}})");
}

TEST(MetricsExport, HubPublishesLookupAndAlarmCounters) {
  telemetry::TelemetryHub hub;
  core::LookupOutcome outcomes[] = {core::LookupOutcome::kExposedHit,
                                         core::LookupOutcome::kTrueMiss};
  for (std::size_t i = 0; i < 10; ++i)
    hub.on_lookup(i % 2, i % 3, outcomes[i % 2], static_cast<util::SimTime>(i) * 1'000'000);
  util::MetricsSnapshot snap;
  hub.export_metrics(snap, "telemetry");
  EXPECT_EQ(snap.counters.at("telemetry.lookups"), 10u);
  EXPECT_TRUE(snap.counters.count("telemetry.alarms.hit_rate_shift"));
  EXPECT_TRUE(snap.counters.count("telemetry.alarms.arrival_regularity"));
  EXPECT_TRUE(snap.counters.count("telemetry.alarms.delayed_hit_ratio"));
  EXPECT_TRUE(no_counter_under(snap, "telemetry.outcome."))
      << "outcome counts are the engine's export, not the hub's";
}

// ---------------------------------------------------------------------------
// Hub -> trace plumbing: fired alarms must land on the bound tracer as
// telemetry_alarm events the scorecard can join.

TEST(TelemetryHub, AlarmsBecomeTraceEvents) {
  telemetry::TelemetryHub hub({}, "router");
  util::Tracer tracer;
  {
    util::TracerBinding binding(&tracer);
    util::SimTime now = 0;
    // One face, machine-regular cadence: arrival_regularity must fire on
    // both banks.
    for (std::size_t i = 0; i < 200; ++i)
      hub.on_lookup(7, 13, core::LookupOutcome::kExposedHit, now += 500'000);
  }
  ASSERT_GT(hub.alarms(telemetry::DetectorKind::kArrivalRegularity), 0u);

  const std::vector<sim::FlatEvent> events = sim::flatten(tracer);
  std::size_t alarm_events = 0;
  for (const sim::FlatEvent& event : events) {
    if (event.type != "telemetry_alarm") continue;
    ++alarm_events;
    EXPECT_EQ(event.node, "router");
    EXPECT_NE(event.detail.find("detector=arrival_regularity"), std::string::npos)
        << event.detail;
  }
  EXPECT_EQ(alarm_events, hub.alarms_total());

  // A clean (probe-free) capture scores as all-false-positive: no attack
  // windows, zero recall, and the join never divides by zero.
  const sim::TelemetryScorecard card = sim::telemetry_scorecard(events, util::millis(10));
  EXPECT_EQ(card.attack_windows, 0u);
  EXPECT_EQ(card.any().recall, 0.0);
  EXPECT_EQ(card.any().alarms, alarm_events);
}

// ---------------------------------------------------------------------------
// End-to-end gates (the same two CI enforces via telemetry_tool, scaled to
// test budgets).

TEST(TelemetryEndToEnd, SequentialProbingRecallFloor) {
  const attack::TelemetryScenarioConfig config;  // paper defaults, seed 7
  telemetry::TelemetryHub hub({}, "router");
  util::Tracer tracer;
  attack::TelemetryScenarioResult result{};
  {
    util::TracerBinding binding(&tracer);
    result = attack::run_telemetry_scenario(config, &hub);
  }
  EXPECT_GT(result.probes, 0u);
  EXPECT_GT(result.router_outcomes.delayed_hits, 0u) << "countermeasure must absorb the probe stream";

  const sim::TelemetryScorecard card =
      sim::telemetry_scorecard(sim::flatten(tracer), util::millis(250));
  ASSERT_GT(card.attack_windows, 0u);
  // The acceptance gates: sequential probing detected in >= 90% of attack
  // windows with no false-positive windows on the honest prefix traffic.
  EXPECT_GE(card.any().recall, 0.9);
  EXPECT_EQ(card.any().false_positive_windows, 0u);
  EXPECT_DOUBLE_EQ(card.any().precision, 1.0);
  EXPECT_GE(card.any().detection_latency_ms, 0.0) << "first alarm must trail the first probe";
}

TEST(TelemetryEndToEnd, CleanFig5aReplayRaisesNoAlarms) {
  runner::Fig5aConfig config;
  config.trace_requests = 60'000;
  config.trace_objects = 60'000;
  config.jobs = 4;
  telemetry::SweepTelemetryCapture capture;
  config.telemetry = &capture;
  (void)runner::run_fig5a(config);

  std::uint64_t lookups = 0, alarms = 0;
  for (const auto& hub : capture.runs) {
    ASSERT_NE(hub, nullptr);
    lookups += hub->lookups();
    alarms += hub->alarms_total();
  }
  EXPECT_GT(lookups, 1'000'000u) << "telemetry must observe every replayed lookup";
  EXPECT_EQ(alarms, 0u) << "honest Figure 5(a) workload must stay alarm-free";
}

TEST(TelemetryEndToEnd, DetectorSeriesByteIdenticalAcrossJobs) {
  const auto run = [](std::size_t jobs) {
    runner::Fig5aConfig config;
    config.trace_requests = 10'000;
    config.trace_objects = 10'000;
    config.jobs = jobs;
    telemetry::SweepTelemetryCapture capture;
    capture.options.sample_every = util::millis(50);
    config.telemetry = &capture;
    (void)runner::run_fig5a(config);
    std::string joined;
    for (std::size_t i = 0; i < capture.runs.size(); ++i) {
      joined += "== run " + std::to_string(i) + " ==\n";
      joined += capture.runs[i]->recorder().to_csv();
      joined += "alarms=" + std::to_string(capture.runs[i]->alarms_total()) + "\n";
    }
    return joined;
  };
  const std::string jobs1 = run(1);
  EXPECT_EQ(jobs1, run(4));
  EXPECT_EQ(jobs1, run(8));
  EXPECT_NE(jobs1.find("t_ns,"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The engine's counters and the hub's detector inputs are two views of the
// same lookups: the hub must see every lookup the engine counts, and the
// outcome counts come from the engine alone. Always-Delay contributes
// delayed hits, the naive threshold simulated misses.


std::vector<std::function<std::unique_ptr<core::CachePrivacyPolicy>()>> view_policies() {
  return {[] {
            return std::make_unique<core::AlwaysDelayPolicy>(
                core::AlwaysDelayPolicy::content_specific());
          },
          [] { return std::make_unique<core::NaiveThresholdPolicy>(2); }};
}

TEST(TelemetryViews, ReplayHubCountsMatchEngineCounters) {
  trace::TraceGenConfig gen;
  gen.num_requests = 3'000;
  gen.num_objects = 300;
  gen.duration_s = 60.0;
  const trace::Trace trace = trace::generate_trace(gen);
  std::uint64_t seen[core::kLookupOutcomes.size()] = {};
  for (const auto& policy : view_policies()) {
    telemetry::TelemetryHub hub;
    trace::ReplayConfig config;
    config.cache_capacity = 100;
    config.private_fraction = 0.5;
    config.policy_factory = policy;
    config.telemetry = &hub;
    const util::MetricsSnapshot snap = trace::replay(trace, config).metrics;
    for (const core::LookupOutcome outcome : core::kLookupOutcomes) {
      const std::string name(core::counter_name(outcome));
      seen[static_cast<std::size_t>(outcome)] += snap.counters.at("engine." + name);
    }
    EXPECT_EQ(snap.counters.at("telemetry.lookups"), snap.counters.at("engine.requests"));
    EXPECT_EQ(hub.lookups(), snap.counters.at("engine.requests"));
    EXPECT_TRUE(no_counter_under(snap, "telemetry.outcome."));
  }
  for (const std::uint64_t count : seen) EXPECT_GT(count, 0u);
}

TEST(TelemetryViews, ForwarderHubCountsMatchForwarderCounters) {
  std::uint64_t seen[core::kLookupOutcomes.size()] = {};
  for (const auto& policy : view_policies()) {
    sim::ScenarioParams params = sim::lan_scenario_params(3);
    params.router_policy = policy;
    const std::unique_ptr<sim::ProbeScenario> scenario = sim::make_probe_scenario(params);
    telemetry::TelemetryHub hub;
    scenario->router->arm_telemetry(&hub);
    sim::Consumer& user = *scenario->user;
    for (std::uint64_t i = 0; i < 64; ++i) {
      // Objects 0-3 are requested privately, 4-7 publicly.
      ndn::Interest interest;
      interest.name = ndn::Name("/producer/obj").append_number(i % 8);
      interest.private_req = i % 8 < 4;
      scenario->topology.scheduler().schedule_at(
          static_cast<util::SimTime>(i) * util::millis(20), [&user, interest]() mutable {
            interest.nonce = user.make_nonce();
            user.express_interest(interest, [](const ndn::Data&, util::SimDuration) {});
          });
    }
    scenario->topology.scheduler().run();
    util::MetricsSnapshot snap;
    scenario->router->export_metrics(snap, "R");
    for (const core::LookupOutcome outcome : core::kLookupOutcomes) {
      const std::string name(core::counter_name(outcome));
      seen[static_cast<std::size_t>(outcome)] += snap.counters.at("R." + name);
    }
    EXPECT_EQ(hub.lookups(), scenario->router->engine().stats().requests);
    EXPECT_EQ(snap.counters.at("R.telemetry.lookups"), hub.lookups());
    EXPECT_TRUE(no_counter_under(snap, "R.telemetry.outcome."));
  }
  for (const std::uint64_t count : seen) EXPECT_GT(count, 0u);
}

// ---------------------------------------------------------------------------
// Golden vector: the attack scenario's exported detector time series is
// pinned byte-for-byte (same mechanism as test_golden.cpp; regenerate with
// NDNP_REGEN_GOLDEN=1 after an intentional change).

std::filesystem::path golden_path(const std::string& stem) {
  return std::filesystem::path(NDNP_SOURCE_ROOT) / "tests" / "golden" / (stem + ".txt");
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(TelemetryGolden, AttackScenarioSeriesMatchesGolden) {
  attack::TelemetryScenarioConfig config;
  config.duration = util::seconds(5);
  config.attack_start = util::seconds(2);
  telemetry::TelemetryOptions options;
  options.sample_every = util::millis(100);
  telemetry::TelemetryHub hub(options, "router");
  (void)attack::run_telemetry_scenario(config, &hub);
  ASSERT_GT(hub.recorder().rows(), 0u);
  const std::string actual = hub.recorder().to_csv();

  const std::filesystem::path path = golden_path("telemetry_attack_series");
  const std::string expected = read_file(path);
  if (expected.empty() && std::getenv("NDNP_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path);
    out << actual;
    GTEST_SKIP() << "golden vector regenerated at " << path;
  }
  ASSERT_FALSE(expected.empty()) << "missing golden vector " << path
                                 << " — regenerate with NDNP_REGEN_GOLDEN=1";
  EXPECT_EQ(actual, expected) << "detector time series drifted from the pinned golden; "
                                 "rerun with NDNP_REGEN_GOLDEN=1 only if intentional";
}

}  // namespace
