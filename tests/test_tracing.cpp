// Flight recorder: macro gating (zero-cost disabled path, asserted with a
// counting operator new), ring/filter/intern semantics, exporter
// round-trips, and the attack-forensics join — both on synthetic event
// streams and cross-checked against a real timing-attack run's counters.
#include "util/tracing.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "attack/timing_attack.hpp"
#include "sim/topology.hpp"
#include "sim/trace_sinks.hpp"
#include "util/metrics.hpp"

// ---------------------------------------------------------------------------
// Counting allocator: replacement global operator new so tests can assert
// the disabled trace path performs zero allocations per event. The counter
// covers the whole test binary; tests only ever compare deltas across a
// straight-line region with no other allocation sources.

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

// The replacement operators pair ::new with std::free by design; GCC's
// heuristic cannot see that this *is* the allocation function.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using namespace ndnp;

TEST(Tracing, RecordsEventsWithInternedLabels) {
  util::Tracer tracer;
  EXPECT_TRUE(tracer.enabled());
  tracer.record(util::TraceEventType::kCsLookup, "R", 100, "/a/1", "result=hit depth=1", 2, 0, 0);
  tracer.record(util::TraceEventType::kInterestTx, "U", 200, "/a/2", "private=0");
  const std::vector<util::TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].time, 100);
  EXPECT_EQ(tracer.label(events[0].node), "R");
  EXPECT_EQ(tracer.label(events[0].comp), "cs");
  EXPECT_EQ(events[0].face, 2);
  EXPECT_EQ(tracer.label(events[1].node), "U");
  EXPECT_EQ(tracer.label(events[1].comp), "link");
  // Interning is stable: the same label maps to the same id.
  EXPECT_EQ(tracer.intern("R"), events[0].node);
  EXPECT_EQ(tracer.total_recorded(), 2u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Tracing, RingKeepsMostRecentEventsInOrder) {
  util::Tracer tracer(4);
  for (int i = 0; i < 10; ++i)
    tracer.record(util::TraceEventType::kMark, "n", i, "/m/" + std::to_string(i));
  const std::vector<util::TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].time, 6 + i);
    EXPECT_EQ(events[i].name, "/m/" + std::to_string(6 + i));
  }
  EXPECT_EQ(tracer.total_recorded(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);
}

TEST(Tracing, FilterKeepsMatchingNamesAndUnnamedEvents) {
  util::Tracer tracer;
  tracer.set_filter("/keep");
  tracer.record(util::TraceEventType::kInterestRx, "R", 1, "/keep/1");
  tracer.record(util::TraceEventType::kInterestRx, "R", 2, "/drop/1");
  tracer.record(util::TraceEventType::kMark, "R", 3);  // unnamed: always passes
  const std::vector<util::TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "/keep/1");
  EXPECT_EQ(events[1].name, "");
  EXPECT_EQ(tracer.filtered(), 1u);
}

TEST(Tracing, UnboundPathEvaluatesNothingAndNeverAllocates) {
  ASSERT_EQ(util::Tracer::current(), nullptr);
  std::size_t evaluations = 0;
  const auto expensive_name = [&evaluations]() -> std::string {
    ++evaluations;
    return "/heap/allocating/name";
  };
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i)
    NDNP_TRACE_EVENT(util::TraceEventType::kMark, "n", 0, expensive_name());
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "disabled trace path allocated";
  EXPECT_EQ(evaluations, 0u) << "macro arguments evaluated with no tracer bound";
}

TEST(Tracing, DisabledTracerEvaluatesNothingAndNeverAllocates) {
  util::Tracer tracer;
  tracer.set_enabled(false);
  util::TracerBinding binding(&tracer);
  std::size_t evaluations = 0;
  const auto expensive_name = [&evaluations]() -> std::string {
    ++evaluations;
    return "/heap/allocating/name";
  };
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i)
    NDNP_TRACE_EVENT(util::TraceEventType::kMark, "n", 0, expensive_name());
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "disabled tracer allocated";
  EXPECT_EQ(evaluations, 0u);
  EXPECT_EQ(tracer.total_recorded(), 0u);
}

TEST(Tracing, BindingRestoresPreviousTracer) {
  util::Tracer outer;
  util::TracerBinding outer_binding(&outer);
  EXPECT_EQ(util::Tracer::current(), &outer);
  {
    util::Tracer inner;
    util::TracerBinding inner_binding(&inner);
    EXPECT_EQ(util::Tracer::current(), &inner);
    NDNP_TRACE_EVENT(util::TraceEventType::kMark, "inner", 1);
  }
  EXPECT_EQ(util::Tracer::current(), &outer);
  NDNP_TRACE_EVENT(util::TraceEventType::kMark, "outer", 2);
  ASSERT_EQ(outer.events().size(), 1u);
  EXPECT_EQ(outer.label(outer.events()[0].node), "outer");
}

TEST(Tracing, ScopeRecordsSpanAndFeedsProfileHistogram) {
  util::Tracer tracer;
  util::MetricsSnapshot snap;
  tracer.set_profile_registry(&snap);
  util::TracerBinding binding(&tracer);
  { NDNP_TRACE_SCOPE("R", "forwarder", "handle_interest"); }
  const std::vector<util::TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, util::TraceEventType::kSpan);
  EXPECT_EQ(tracer.label(events[0].comp), "forwarder");
  EXPECT_GE(events[0].a, 0);  // wall-clock duration in ns
  EXPECT_EQ(snap.histograms.at("profile.forwarder.handle_interest_us").total(), 1u);
}

// ---------------------------------------------------------------------------
// Exporters.

TEST(TraceSinks, JsonlRoundTripsEveryFieldIncludingEscapes) {
  util::Tracer tracer;
  tracer.record(util::TraceEventType::kCsLookup, "R", 1234, "/a/\"quoted\"\\name",
                "result=hit depth=2 policy=LRU", 3, -5, 7);
  tracer.record(util::TraceEventType::kMark, "node\nwith\tctrl", 0);
  const std::vector<sim::FlatEvent> events = sim::flatten(tracer);
  std::ostringstream out;
  sim::write_trace_jsonl(events, out);
  std::istringstream in(out.str());
  const std::vector<sim::FlatEvent> parsed = sim::parse_trace_jsonl(in);
  ASSERT_EQ(parsed.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(parsed[i].t, events[i].t);
    EXPECT_EQ(parsed[i].type, events[i].type);
    EXPECT_EQ(parsed[i].node, events[i].node);
    EXPECT_EQ(parsed[i].comp, events[i].comp);
    EXPECT_EQ(parsed[i].name, events[i].name);
    EXPECT_EQ(parsed[i].detail, events[i].detail);
    EXPECT_EQ(parsed[i].face, events[i].face);
    EXPECT_EQ(parsed[i].a, events[i].a);
    EXPECT_EQ(parsed[i].b, events[i].b);
  }
}

TEST(TraceSinks, DetailFieldExtractsKeyValuePairs) {
  const std::string detail = "result=hit depth=2 policy=LRU";
  EXPECT_EQ(sim::detail_field(detail, "result"), "hit");
  EXPECT_EQ(sim::detail_field(detail, "depth"), "2");
  EXPECT_EQ(sim::detail_field(detail, "policy"), "LRU");
  EXPECT_EQ(sim::detail_field(detail, "absent"), "");
  // Keys must match whole tokens, not suffixes.
  EXPECT_EQ(sim::detail_field("xresult=no result=yes", "result"), "yes");
}

TEST(TraceSinks, ChromeTraceIsWellFormedAndNamesProcesses) {
  util::Tracer tracer;
  tracer.record(util::TraceEventType::kInterestTx, "U", 1000, "/a/1", "private=0", 0);
  tracer.record(util::TraceEventType::kCsLookup, "R", 2000, "/a/1", "result=miss depth=0", 1);
  tracer.record_span("R", "forwarder", "handle_interest", 42);
  std::ostringstream out;
  sim::write_chrome_trace(sim::flatten(tracer), out);
  const std::string json = out.str();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instants
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // spans
  EXPECT_NE(json.find("\"U\""), std::string::npos);
  EXPECT_NE(json.find("\"R\""), std::string::npos);
  EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
}

// ---------------------------------------------------------------------------
// Forensics on a synthetic event stream: one probe per verdict class.

sim::FlatEvent make_event(util::SimTime t, std::string type, std::string node, std::string name,
                          std::string detail = {}, std::int64_t a = 0, std::int64_t b = 0) {
  sim::FlatEvent ev;
  ev.t = t;
  ev.type = std::move(type);
  ev.node = std::move(node);
  ev.comp = "test";
  ev.name = std::move(name);
  ev.detail = std::move(detail);
  ev.a = a;
  ev.b = b;
  return ev;
}

TEST(TraceSinks, ForensicsDistinguishesAllVerdictClasses) {
  std::vector<sim::FlatEvent> events;
  // Probe 0: exposed hit — lookup hit, policy exposes it.
  events.push_back(make_event(100, "cs_lookup", "R", "/p/0", "result=hit depth=1"));
  events.push_back(make_event(100, "policy_decision", "R", "/p/0",
                              "policy=none action=ExposedHit private=0"));
  events.push_back(make_event(150, "attack_probe", "Adv", "/p/0", "truth=hit", 100, 0));
  // Probe 1: delayed hit — cached, policy added artificial delay.
  events.push_back(make_event(200, "cs_lookup", "R", "/p/1", "result=hit depth=1"));
  events.push_back(make_event(
      200, "policy_decision", "R", "/p/1", "policy=always-delay action=DelayedHit private=1"));
  events.push_back(make_event(300, "attack_probe", "Adv", "/p/1", "truth=hit", 150, 1));
  // Probe 2: simulated miss — cached but the policy mimicked a miss.
  events.push_back(make_event(400, "cs_lookup", "R", "/p/2", "result=hit depth=1"));
  events.push_back(make_event(
      400, "policy_decision", "R", "/p/2", "policy=naive action=SimulatedMiss private=1"));
  events.push_back(make_event(520, "attack_probe", "Adv", "/p/2", "truth=hit", 150, 2));
  // Probe 3: true miss.
  events.push_back(make_event(600, "cs_lookup", "R", "/p/3", "result=miss depth=0"));
  events.push_back(make_event(700, "attack_probe", "Adv", "/p/3", "truth=miss", 150, 3));
  // Probe 4: no lookup inside the RTT window -> unknown.
  events.push_back(make_event(900, "attack_probe", "Adv", "/p/4", "truth=miss", 50, 4));

  const sim::ForensicsReport report = sim::probe_forensics(events);
  ASSERT_EQ(report.probes.size(), 5u);
  EXPECT_EQ(report.probes[0].verdict, core::LookupOutcome::kExposedHit);
  EXPECT_EQ(report.probes[1].verdict, core::LookupOutcome::kDelayedHit);
  EXPECT_EQ(report.probes[2].verdict, core::LookupOutcome::kSimulatedMiss);
  EXPECT_EQ(report.probes[3].verdict, core::LookupOutcome::kTrueMiss);
  EXPECT_FALSE(report.probes[4].verdict.has_value());
  EXPECT_EQ(report.exposed_hits, 1u);
  EXPECT_EQ(report.delayed_hits, 1u);
  EXPECT_EQ(report.simulated_misses, 1u);
  EXPECT_EQ(report.true_misses, 1u);
  EXPECT_EQ(report.unknown, 1u);
  // Probes 0-3 agree with their truth annotation; the unknown one cannot.
  EXPECT_EQ(report.agreements, 4u);
  EXPECT_EQ(report.probes[0].decided_by, "R");
  // The table renders one row per probe plus header and summary.
  const std::string table = report.format_table();
  EXPECT_NE(table.find("ExposedHit"), std::string::npos);
  EXPECT_NE(table.find("Unknown"), std::string::npos);
  EXPECT_NE(table.find("probes=5"), std::string::npos);
  // No fault_inject events in the capture: the faults column and summary
  // fields stay out, keeping clean-run output byte-identical.
  EXPECT_EQ(report.fault_events, 0u);
  EXPECT_EQ(table.find("faults"), std::string::npos);
  EXPECT_EQ(table.find("fault_events"), std::string::npos);
}

TEST(TraceSinks, ForensicsAttributesFaultsInsideProbeWindows) {
  std::vector<sim::FlatEvent> events;
  // Probe 0 (window [50, 150]): a link fault on its own name fired inside
  // the window — its miss verdict is attributable to the injected loss.
  events.push_back(make_event(80, "fault_inject", "R", "/p/0", "cause=burst kind=interest"));
  events.push_back(make_event(100, "cs_lookup", "R", "/p/0", "result=miss depth=0"));
  events.push_back(make_event(150, "attack_probe", "Adv", "/p/0", "truth=hit", 100, 0));
  // Probe 1 (window [150, 300]): a node-level CS wipe (empty name — it hits
  // every name) lands inside the window.
  events.push_back(make_event(250, "fault_inject", "R", "", "fault=cs_wipe"));
  events.push_back(make_event(260, "cs_lookup", "R", "/p/1", "result=miss depth=0"));
  events.push_back(make_event(300, "attack_probe", "Adv", "/p/1", "truth=miss", 150, 1));
  // Probe 2 (window [850, 900]): both faults are long past — clean.
  events.push_back(make_event(880, "cs_lookup", "R", "/p/2", "result=hit depth=1"));
  events.push_back(make_event(880, "policy_decision", "R", "/p/2",
                              "policy=none action=ExposedHit private=0"));
  events.push_back(make_event(900, "attack_probe", "Adv", "/p/2", "truth=hit", 50, 2));

  const sim::ForensicsReport report = sim::probe_forensics(events);
  ASSERT_EQ(report.probes.size(), 3u);
  EXPECT_EQ(report.fault_events, 2u);
  EXPECT_EQ(report.faulted_probes, 2u);
  EXPECT_EQ(report.probes[0].faults, 1);
  EXPECT_EQ(report.probes[0].fault_causes, "burst");
  EXPECT_FALSE(report.probes[0].agrees);  // attributable to the fault, not the join
  EXPECT_EQ(report.probes[1].faults, 1);
  EXPECT_EQ(report.probes[1].fault_causes, "cs_wipe");
  EXPECT_EQ(report.probes[2].faults, 0);
  EXPECT_EQ(report.probes[2].fault_causes, "");

  const std::string table = report.format_table();
  EXPECT_NE(table.find("faults"), std::string::npos);
  EXPECT_NE(table.find("1:burst"), std::string::npos);
  EXPECT_NE(table.find("1:cs_wipe"), std::string::npos);
  EXPECT_NE(table.find("fault_events=2 faulted_probes=2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end cross-check: capture a real (small) Figure-3 timing attack and
// verify the forensics join agrees with the attack's own accounting — same
// probe count, same hit/miss split, perfect truth agreement (the LAN
// scenario runs without a privacy policy, so every verdict is ExposedHit
// or TrueMiss).

TEST(TraceSinks, ForensicsAgreesWithTimingAttackCounters) {
  attack::TimingAttackConfig config;
  config.trials = 4;
  config.contents_per_trial = 5;
  config.scenario_params = &sim::lan_scenario_params;
  config.seed = 1;

  util::Tracer tracer;
  attack::TimingAttackResult result;
  {
    util::TracerBinding binding(&tracer);
    result = attack::run_timing_attack(config);
  }
  const sim::ForensicsReport report = sim::probe_forensics(sim::flatten(tracer));

  const std::size_t hits = result.hit_rtts_ms.size();
  const std::size_t misses = result.miss_rtts_ms.size();
  ASSERT_EQ(report.probes.size(), hits + misses);
  EXPECT_EQ(report.exposed_hits, hits);
  EXPECT_EQ(report.true_misses, misses);
  EXPECT_EQ(report.delayed_hits, 0u);
  EXPECT_EQ(report.simulated_misses, 0u);
  EXPECT_EQ(report.unknown, 0u);
  EXPECT_DOUBLE_EQ(report.agreement_rate(), 1.0);
  // Every verdict was decided by the shared first-hop router.
  for (const sim::ProbeForensics& probe : report.probes) EXPECT_EQ(probe.decided_by, "R");
}

}  // namespace
