// bench_e2e: the repository's end-to-end benchmark (bench/e2e/README.md).
//
//   bench_e2e --workload NAME [--seed S] [--seconds T] [--traced]
//   bench_e2e --smoke
//
// One process runs one workload through the libraries' public entry points
// (runner::replay_sharded or trace::replay_over_network) and prints one JSON
// object as its last stdout line. Inputs come from a SyntheticWorkload seeded
// with --seed; everything else is fixed, so a (workload, seed) pair always
// does the same work and produces the same output digest.
//
// An untraced run gives the end-to-end metrics: requests answered per wall
// second of the entry-point call, set-up time and peak RSS. A traced run
// wraps the trace source and the privacy policy in timing decorators and
// reads the counters the libraries already export, giving the per-layer
// breakdown. It alternates traced and untraced reps, so the decorators' own
// cost shows as bench.trace_overhead_pct. Nothing inside the libraries is
// instrumented: scheduler, link, forwarder and PIT time is one residual,
// and crypto time is an estimate (signs x timed cost of one ndn::make_data).
//
// Every rep is checked (record and outcome accounting), and its digest must
// repeat across reps and between traced and untraced reps.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/policies.hpp"
#include "ndn/packet.hpp"
#include "runner/sharded_replay.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/network_replay.hpp"
#include "trace/stream.hpp"
#include "util/invariant.hpp"
#include "util/tracing.hpp"

namespace {

using namespace ndnp;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string format_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

// ---------------------------------------------------------------------------
// Workloads

enum class Path { kReplay, kNetwork };
enum class PolicyKind { kExponentialRandomCache, kAlwaysDelay };

struct WorkloadSpec {
  const char* name;
  Path path;
  std::size_t requests;
  std::size_t objects;
  std::size_t shards;
  std::size_t jobs;
  PolicyKind policy;
};

// Why each workload exists is in README.md; in short: the unsharded replay
// is the one-thread baseline and mostly writes the CS, the sharded one
// exercises the runner's fan-out, the hot one mostly reads the CS, and the
// network one is the only path through sim/.
constexpr WorkloadSpec kWorkloads[] = {
    {"replay_unsharded", Path::kReplay, 1'000'000, 1'000'000, 1, 1,
     PolicyKind::kExponentialRandomCache},
    {"replay_sharded", Path::kReplay, 1'000'000, 1'000'000, 8, 2,
     PolicyKind::kExponentialRandomCache},
    {"replay_hot", Path::kReplay, 2'000'000, 20'000, 1, 1, PolicyKind::kAlwaysDelay},
    {"network_replay", Path::kNetwork, 100'000, 40'000, 1, 1,
     PolicyKind::kExponentialRandomCache},
};

/// Replay seed (shard seeds, private class, router RNGs); only the trace
/// varies with --seed.
constexpr std::uint64_t kReplaySeed = 99;
/// Payload sizes ndn::make_data signs: trace::ReplaySession's upstream fetch
/// and replay_over_network's producer.
constexpr std::size_t kReplayPayload = 64;
constexpr std::size_t kProducerPayload = 8'192;

trace::TraceGenConfig trace_config(const WorkloadSpec& w, std::uint64_t seed,
                                   std::size_t requests) {
  trace::TraceGenConfig config;
  config.num_users = 100'000;
  config.num_domains = 2'000;
  config.zipf_exponent = 0.8;
  config.num_objects = w.objects;
  config.num_requests = requests;
  config.seed = seed;
  return config;
}

/// Shards run on at most this many threads: the workload's jobs, capped by
/// the host's cores (results do not depend on it).
std::size_t jobs_for(const WorkloadSpec& w) {
  const std::size_t cores = std::thread::hardware_concurrency();
  return std::max<std::size_t>(1, std::min(w.jobs, cores));
}

// ---------------------------------------------------------------------------
// Timing decorators (traced reps only)

struct CallTally {
  std::uint64_t calls = 0;
  std::int64_t busy_ns = 0;

  void stop(Clock::time_point start) {
    ++calls;
    busy_ns +=
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count();
  }
  void add(const CallTally& other) {
    calls += other.calls;
    busy_ns += other.busy_ns;
  }
};

/// What the decorators of one traced rep measured. Each decorator keeps its
/// own tallies and adds them here once, when it is destroyed, so the lock
/// is taken once per shard or router.
struct LayerTrace {
  struct Span {
    double start_s;
    double end_s;
  };

  Clock::time_point origin;  // start of the entry-point call
  std::mutex mutex;
  std::vector<Span> sources;  // one per opened source: open -> destroyed
  double source_busy_s = 0.0;
  std::uint64_t records_read = 0;
  CallTally lookup;
  CallTally insert;
  CallTally miss_delay;
};

/// Times next_chunk and counts records. Its lifetime stamps a shard:
/// replay_sharded opens the source first and destroys it last in each shard.
class TimedSource final : public trace::TraceSource {
 public:
  TimedSource(std::unique_ptr<trace::TraceSource> inner, LayerTrace& trace)
      : inner_(std::move(inner)), trace_(trace), opened_(Clock::now()) {}
  TimedSource(const TimedSource&) = delete;
  TimedSource& operator=(const TimedSource&) = delete;
  ~TimedSource() override {
    const Clock::time_point closed = Clock::now();
    const std::lock_guard<std::mutex> lock(trace_.mutex);
    trace_.sources.push_back({seconds_between(trace_.origin, opened_),
                              seconds_between(trace_.origin, closed)});
    trace_.source_busy_s += busy_s_;
    trace_.records_read += records_;
  }

  bool next_chunk(std::vector<trace::TraceRecord>& out, std::size_t max_records) override {
    const Clock::time_point start = Clock::now();
    const bool more = inner_->next_chunk(out, max_records);
    busy_s_ += seconds_between(start, Clock::now());
    records_ += out.size();
    return more;
  }
  void rewind() override { inner_->rewind(); }
  [[nodiscard]] const trace::ParseStats& stats() const noexcept override {
    return inner_->stats();
  }
  [[nodiscard]] std::size_t catalogue_size() const noexcept override {
    return inner_->catalogue_size();
  }

 private:
  std::unique_ptr<trace::TraceSource> inner_;
  LayerTrace& trace_;
  Clock::time_point opened_;
  double busy_s_ = 0.0;
  std::uint64_t records_ = 0;
};

/// Times the three policy calls on the request path and forwards every
/// virtual call to the wrapped policy.
class TimedPolicy final : public core::CachePrivacyPolicy {
 public:
  TimedPolicy(std::unique_ptr<core::CachePrivacyPolicy> inner, LayerTrace& trace)
      : inner_(std::move(inner)), trace_(trace) {}
  TimedPolicy(const TimedPolicy&) = delete;
  TimedPolicy& operator=(const TimedPolicy&) = delete;
  ~TimedPolicy() override {
    const std::lock_guard<std::mutex> lock(trace_.mutex);
    trace_.lookup.add(lookup_);
    trace_.insert.add(insert_);
    trace_.miss_delay.add(miss_delay_);
  }

  void on_insert(cache::Entry& entry, const ndn::Interest& cause, util::SimTime now) override {
    const Clock::time_point start = Clock::now();
    inner_->on_insert(entry, cause, now);
    insert_.stop(start);
  }
  [[nodiscard]] core::LookupDecision on_cached_lookup(cache::Entry& entry,
                                                      const ndn::Interest& interest,
                                                      bool effective_private,
                                                      util::SimTime now) override {
    const Clock::time_point start = Clock::now();
    const core::LookupDecision decision =
        inner_->on_cached_lookup(entry, interest, effective_private, now);
    lookup_.stop(start);
    return decision;
  }
  [[nodiscard]] util::SimDuration miss_response_delay(util::SimDuration fetch_delay,
                                                      bool effective_private) const override {
    const Clock::time_point start = Clock::now();
    const util::SimDuration delay = inner_->miss_response_delay(fetch_delay, effective_private);
    miss_delay_.stop(start);
    return delay;
  }
  [[nodiscard]] std::string_view name() const noexcept override { return inner_->name(); }
  [[nodiscard]] std::unique_ptr<core::CachePrivacyPolicy> clone() const override {
    return std::make_unique<TimedPolicy>(inner_->clone(), trace_);
  }
  void export_metrics(util::MetricsRegistry& registry,
                      const std::string& prefix) const override {
    inner_->export_metrics(registry, prefix);
  }

 private:
  std::unique_ptr<core::CachePrivacyPolicy> inner_;
  LayerTrace& trace_;
  CallTally lookup_;
  CallTally insert_;
  mutable CallTally miss_delay_;
};

using PolicyFactory = std::function<std::unique_ptr<core::CachePrivacyPolicy>()>;

PolicyFactory policy_factory(PolicyKind kind, LayerTrace* trace) {
  return [kind, trace]() -> std::unique_ptr<core::CachePrivacyPolicy> {
    // Exponential-Random-Cache with the Fig. 5 parameters, or Always-Delay
    // with per-content gamma.
    std::unique_ptr<core::CachePrivacyPolicy> policy;
    if (kind == PolicyKind::kAlwaysDelay)
      policy = std::make_unique<core::AlwaysDelayPolicy>(
          core::AlwaysDelayPolicy::content_specific());
    else
      policy = core::RandomCachePolicy::exponential(0.999, 201, 5);
    if (trace == nullptr) return policy;
    return std::make_unique<TimedPolicy>(std::move(policy), *trace);
  };
}

std::unique_ptr<trace::TraceSource> open_source(const trace::SyntheticWorkload& workload,
                                                LayerTrace* trace) {
  std::unique_ptr<trace::TraceSource> source = workload.open();
  if (trace == nullptr) return source;
  return std::make_unique<TimedSource>(std::move(source), *trace);
}

// ---------------------------------------------------------------------------
// Calibration (traced runs): the clock read the decorators add per call,
// and the cost of one ndn::make_data at each payload size.

struct Calibration {
  double clock_read_ns = 0.0;
  double replay_sign_us = 0.0;
  double producer_sign_us = 0.0;
};

volatile std::uint8_t g_sink = 0;

double clock_read_ns() {
  std::vector<double> batches;
  for (int batch = 0; batch < 5; ++batch) {
    constexpr int kReads = 100'000;
    const Clock::time_point start = Clock::now();
    Clock::time_point last = start;
    for (int i = 0; i < kReads; ++i) last = Clock::now();
    const std::chrono::duration<double, std::nano> elapsed = last - start;
    batches.push_back(elapsed.count() / kReads);
  }
  return median(batches);
}

double sign_us(std::size_t payload_bytes) {
  const ndn::Name name("/web/dom1/obj1");
  std::vector<double> batches;
  for (int batch = 0; batch < 5; ++batch) {
    std::size_t calls = 0;
    const Clock::time_point start = Clock::now();
    double elapsed = 0.0;
    do {
      const ndn::Data data =
          ndn::make_data(name, std::string(payload_bytes, 'x'), "origin", "origin-key");
      g_sink = static_cast<std::uint8_t>(g_sink ^ data.signature[0]);
      ++calls;
      elapsed = seconds_between(start, Clock::now());
    } while (elapsed < 0.02);
    batches.push_back(1e6 * elapsed / static_cast<double>(calls));
  }
  return median(batches);
}

Calibration calibrate() {
  return {clock_read_ns(), sign_us(kReplayPayload), sign_us(kProducerPayload)};
}

// ---------------------------------------------------------------------------
// One rep: a call of the workload's entry point, checked.

/// Per-layer metrics, in output order, with units. Every traced rep sets
/// all of them; a layer the workload does not cross reads 0.
struct MetricDef {
  const char* name;
  const char* unit;
};
constexpr MetricDef kLayerMetrics[] = {
    {"trace.source.busy_s", "s"},
    {"trace.source.records_read", "count"},
    {"trace.source.ns_per_record", "ns"},
    {"runner.useful_read_ratio", "ratio"},
    {"runner.shard.busy_s.max", "s"},
    {"runner.shard.busy_s.mean", "s"},
    {"runner.shard.imbalance", "ratio"},
    {"runner.shard.wait_s.max", "s"},
    {"runner.merge_s", "s"},
    {"runner.parallel_efficiency", "ratio"},
    {"runner.speedup_vs_unsharded", "ratio"},
    {"core.policy.lookup.calls", "count"},
    {"core.policy.lookup.busy_s", "s"},
    {"core.policy.insert.calls", "count"},
    {"core.policy.insert.busy_s", "s"},
    {"core.policy.miss_delay.calls", "count"},
    {"core.policy.miss_delay.busy_s", "s"},
    {"core.engine.requests", "count"},
    {"core.engine.exposed_hits", "count"},
    {"core.engine.delayed_hits", "count"},
    {"core.engine.simulated_misses", "count"},
    {"core.engine.true_misses", "count"},
    {"cache.cs.lookups", "count"},
    {"cache.cs.matches", "count"},
    {"cache.cs.inserts", "count"},
    {"cache.cs.evictions", "count"},
    {"cache.cs.match_ratio", "ratio"},
    {"replay.residual_s", "s"},
    {"replay.residual_ns_per_request", "ns"},
    {"crypto.signs", "count"},
    {"crypto.signed_bytes", "bytes"},
    {"crypto.sign_us", "us"},
    {"crypto.est_busy_s", "s"},
    {"crypto.est_share", "ratio"},
    {"sim.self_s", "s"},
    {"sim.ns_per_request", "ns"},
    {"sim.completed", "count"},
    {"sim.edge_hits", "count"},
    {"sim.core_hits", "count"},
    {"sim.producer_fetches", "count"},
    {"sim.edge_hit_ratio", "ratio"},
    {"bench.trace_overhead_pct", "%"},
};

struct Rep {
  double wall_s = 0.0;
  std::uint64_t generated = 0;
  std::uint64_t answered = 0;
  std::uint64_t malformed = 0;
  std::uint64_t digest = 0;
  std::string merged_json;  // replay reps only
  std::vector<std::string> failures;
  std::map<std::string, double> layers;  // traced reps only

  [[nodiscard]] std::uint64_t failed() const {
    return generated - std::min(generated, answered) + malformed;
  }
  void expect(bool ok, const char* what) {
    if (!ok) failures.emplace_back(what);
  }
};

/// A tally's busy time less the one clock read each timed call adds.
double busy_s(const CallTally& tally, const Calibration& cal) {
  return std::max(0.0, 1e-9 * (static_cast<double>(tally.busy_ns) -
                               static_cast<double>(tally.calls) * cal.clock_read_ns));
}

double policy_busy_s(const LayerTrace& t, const Calibration& cal) {
  return busy_s(t.lookup, cal) + busy_s(t.insert, cal) + busy_s(t.miss_delay, cal);
}

/// Layer metrics every path reports: source, policy and crypto.
void common_layers(Rep& rep, const LayerTrace& t, const Calibration& cal, double signs,
                   std::size_t payload_bytes, double sign_cost_us) {
  auto& m = rep.layers;
  for (const MetricDef& def : kLayerMetrics) m[def.name] = 0.0;
  m["trace.source.busy_s"] = t.source_busy_s;
  m["trace.source.records_read"] = static_cast<double>(t.records_read);
  m["trace.source.ns_per_record"] =
      1e9 * ratio(t.source_busy_s, static_cast<double>(t.records_read));
  m["runner.useful_read_ratio"] =
      ratio(static_cast<double>(rep.generated), static_cast<double>(t.records_read));
  const auto tally = [&](const char* layer, const CallTally& c) {
    m[std::string("core.policy.") + layer + ".calls"] = static_cast<double>(c.calls);
    m[std::string("core.policy.") + layer + ".busy_s"] = busy_s(c, cal);
  };
  tally("lookup", t.lookup);
  tally("insert", t.insert);
  tally("miss_delay", t.miss_delay);
  m["crypto.signs"] = signs;
  m["crypto.signed_bytes"] = signs * static_cast<double>(payload_bytes);
  m["crypto.sign_us"] = sign_cost_us;
  m["crypto.est_busy_s"] = 1e-6 * signs * sign_cost_us;
}

runner::ShardedReplayConfig replay_config(const WorkloadSpec& w, std::size_t jobs,
                                          LayerTrace* trace) {
  runner::ShardedReplayConfig config;
  config.shards = w.shards;
  config.jobs = jobs;
  config.master_seed = kReplaySeed;
  config.replay.cache_capacity = 8'000;
  config.replay.eviction = cache::EvictionPolicy::kLru;
  config.replay.private_fraction = 0.2;
  config.replay.policy_factory = policy_factory(w.policy, trace);
  return config;
}

trace::NetworkReplayConfig network_config(const WorkloadSpec& w, LayerTrace* trace) {
  trace::NetworkReplayConfig config;
  config.edge_routers = 4;
  config.edge_cache = 2'000;
  config.core_cache = 8'000;
  config.eviction = cache::EvictionPolicy::kLru;
  config.private_fraction = 0.2;
  config.deployment = trace::Deployment::kEverywhere;
  config.policy_factory = policy_factory(w.policy, trace);
  config.seed = kReplaySeed;
  return config;
}

Rep run_replay(const WorkloadSpec& w, const trace::SyntheticWorkload& workload,
               std::size_t jobs, LayerTrace* trace, const Calibration* cal) {
  const runner::ShardedReplayConfig config = replay_config(w, jobs, trace);
  const runner::TraceSourceFactory open = [&workload, trace] {
    return open_source(workload, trace);
  };

  const Clock::time_point start = Clock::now();
  if (trace != nullptr) trace->origin = start;
  const runner::ShardedReplayResult result = runner::replay_sharded(open, config);
  Rep rep;
  rep.wall_s = seconds_between(start, Clock::now());

  const auto counter = [&](const char* name) -> std::uint64_t {
    const auto it = result.merged.counters.find(name);
    return it == result.merged.counters.end() ? 0 : it->second;
  };
  const std::uint64_t requests = counter("engine.requests");
  rep.generated = workload.config().num_requests;
  rep.answered = requests;
  rep.malformed = result.malformed_records;
  rep.merged_json = result.merged_json();
  rep.digest = fnv1a(rep.merged_json);

  rep.expect(result.records == rep.generated, "records fed == requests generated");
  rep.expect(counter("engine.exposed_hits") + counter("engine.delayed_hits") +
                     counter("engine.simulated_misses") + counter("engine.true_misses") ==
                 requests,
             "outcome counts sum to engine.requests");
  rep.expect(requests == counter("engine.cs.lookups"), "engine.requests == cs.lookups");
  rep.expect(counter("engine.cs.inserts") == counter("engine.true_misses"),
             "cs.inserts == true_misses");

  if (trace == nullptr) return rep;
  const std::uint64_t true_misses = counter("engine.true_misses");
  common_layers(rep, *trace, *cal, static_cast<double>(true_misses), kReplayPayload,
                cal->replay_sign_us);
  auto& m = rep.layers;
  double busy_sum = 0.0;
  double busy_max = 0.0;
  double wait_max = 0.0;
  double last_end = 0.0;
  for (const LayerTrace::Span& span : trace->sources) {
    busy_sum += span.end_s - span.start_s;
    busy_max = std::max(busy_max, span.end_s - span.start_s);
    wait_max = std::max(wait_max, span.start_s);
    last_end = std::max(last_end, span.end_s);
  }
  const double busy_mean = ratio(busy_sum, static_cast<double>(trace->sources.size()));
  m["runner.shard.busy_s.max"] = busy_max;
  m["runner.shard.busy_s.mean"] = busy_mean;
  m["runner.shard.imbalance"] = ratio(busy_max, busy_mean);
  m["runner.shard.wait_s.max"] = wait_max;
  m["runner.merge_s"] = std::max(0.0, rep.wall_s - last_end);
  m["runner.parallel_efficiency"] =
      ratio(busy_sum, static_cast<double>(std::min(jobs, w.shards)) * rep.wall_s);
  for (const char* name : {"requests", "exposed_hits", "delayed_hits", "simulated_misses",
                           "true_misses"})
    m[std::string("core.engine.") + name] =
        static_cast<double>(counter((std::string("engine.") + name).c_str()));
  for (const char* name : {"lookups", "matches", "inserts", "evictions"})
    m[std::string("cache.cs.") + name] =
        static_cast<double>(counter((std::string("engine.cs.") + name).c_str()));
  m["cache.cs.match_ratio"] = ratio(m["cache.cs.matches"], m["cache.cs.lookups"]);
  // Shard CPU-seconds not spent in the source, the policy or signing: the
  // engine, the CS and the shard filter.
  const double residual = busy_sum - trace->source_busy_s - policy_busy_s(*trace, *cal) -
                          m["crypto.est_busy_s"];
  m["replay.residual_s"] = residual;
  m["replay.residual_ns_per_request"] = 1e9 * ratio(residual, static_cast<double>(requests));
  m["crypto.est_share"] = ratio(m["crypto.est_busy_s"], busy_sum);
  return rep;
}

Rep run_network(const WorkloadSpec& w, const trace::SyntheticWorkload& workload,
                LayerTrace* trace, const Calibration* cal) {
  const trace::NetworkReplayConfig config = network_config(w, trace);
  Rep rep;
  trace::NetworkReplayResult result;
  {
    const std::unique_ptr<trace::TraceSource> source = open_source(workload, trace);
    const Clock::time_point start = Clock::now();
    if (trace != nullptr) trace->origin = start;
    result = trace::replay_over_network(*source, config);
    rep.wall_s = seconds_between(start, Clock::now());
  }
  rep.generated = workload.config().num_requests;
  rep.answered = result.completed;
  rep.malformed = result.malformed_records;

  rep.expect(result.requests == rep.generated, "requests issued == requests generated");
  rep.expect(result.completed <= result.requests, "completed + failed == requests");
  rep.expect(result.rtt_ms.size() == result.completed, "RTT samples == completed");
  std::string fields;
  for (const std::uint64_t v : {result.requests, result.completed, result.edge_hits,
                                result.core_hits, result.producer_fetches,
                                result.malformed_records})
    fields += std::to_string(v) + ' ';
  if (!result.rtt_ms.empty())
    for (const double q : {0.5, 0.9, 0.99, 1.0})
      fields += format_double(result.rtt_ms.quantile(q)) + ' ';
  rep.digest = fnv1a(fields);

  if (trace == nullptr) return rep;
  const auto fetches = static_cast<double>(result.producer_fetches);
  common_layers(rep, *trace, *cal, fetches, kProducerPayload, cal->producer_sign_us);
  auto& m = rep.layers;
  // Scheduler, links, forwarders, CS and PIT: everything the decorators and
  // the signing estimate do not cover.
  const double self_s = rep.wall_s - trace->source_busy_s - policy_busy_s(*trace, *cal) -
                        m["crypto.est_busy_s"];
  const auto requests = static_cast<double>(result.requests);
  m["sim.self_s"] = self_s;
  m["sim.ns_per_request"] = 1e9 * ratio(self_s, requests);
  m["sim.completed"] = static_cast<double>(result.completed);
  m["sim.edge_hits"] = static_cast<double>(result.edge_hits);
  m["sim.core_hits"] = static_cast<double>(result.core_hits);
  m["sim.producer_fetches"] = fetches;
  m["sim.edge_hit_ratio"] = ratio(static_cast<double>(result.edge_hits), requests);
  m["crypto.est_share"] = ratio(m["crypto.est_busy_s"], rep.wall_s);
  return rep;
}

Rep run_rep(const WorkloadSpec& w, const trace::SyntheticWorkload& workload, std::size_t jobs,
            LayerTrace* trace = nullptr, const Calibration* cal = nullptr) {
  return w.path == Path::kReplay ? run_replay(w, workload, jobs, trace, cal)
                                 : run_network(w, workload, trace, cal);
}

/// Set-up: the workload's tables, plus the entry point over an empty source
/// with the same config (sessions or topology built, merge done).
double setup_once(const WorkloadSpec& w, std::uint64_t seed, std::size_t jobs) {
  static const trace::Trace kEmpty;
  const Clock::time_point start = Clock::now();
  const auto workload =
      std::make_unique<trace::SyntheticWorkload>(trace_config(w, seed, w.requests));
  if (w.path == Path::kReplay) {
    (void)runner::replay_sharded(kEmpty, replay_config(w, jobs, nullptr));
  } else {
    trace::VectorTraceSource source(kEmpty);
    (void)trace::replay_over_network(source, network_config(w, nullptr));
  }
  return seconds_between(start, Clock::now());  // the tables are freed untimed
}

double peak_rss_mib() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ---------------------------------------------------------------------------
// Output

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string host_json() {
#ifdef __OPTIMIZE__
  constexpr bool kOptimized = true;
#else
  constexpr bool kOptimized = false;
#endif
#ifdef __clang__
  const std::string compiler = std::string("clang ") + __clang_version__;
#else
  const std::string compiler = std::string("gcc ") + __VERSION__;
#endif
#if defined(NDNP_SCHEDULER_REFERENCE) && NDNP_SCHEDULER_REFERENCE
  constexpr int kSchedulerReference = 1;
#else
  constexpr int kSchedulerReference = 0;
#endif
  std::string json = "{\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  json += ",\"build_type\":\"" + json_escape(NDNP_BENCH_BUILD_TYPE) + "\"";
  json += std::string(",\"optimized\":") + (kOptimized ? "true" : "false");
  json += ",\"compiler\":\"" + json_escape(compiler) + "\"";
  json += ",\"NDNP_TRACING\":" + std::to_string(NDNP_TRACING);
  json += ",\"NDNP_INVARIANT\":" + std::to_string(NDNP_INVARIANT);
  json += ",\"NDNP_TELEMETRY\":" + std::to_string(NDNP_TELEMETRY);
  json += ",\"NDNP_SCHEDULER_REFERENCE\":" + std::to_string(kSchedulerReference) + "}";
  return json;
}

struct Summary {
  const char* unit;
  std::vector<double> samples;
};

std::string metric_json(const Summary& s) {
  double lo = 0.0;
  double hi = 0.0;
  if (!s.samples.empty()) {
    lo = *std::min_element(s.samples.begin(), s.samples.end());
    hi = *std::max_element(s.samples.begin(), s.samples.end());
  }
  return "{\"value\":" + format_double(median(s.samples)) + ",\"unit\":\"" + s.unit +
         "\",\"min\":" + format_double(lo) + ",\"max\":" + format_double(hi) +
         ",\"n\":" + std::to_string(s.samples.size()) + "}";
}

// ---------------------------------------------------------------------------
// Modes

struct Options {
  std::string workload;
  std::uint64_t seed = 2013;
  double seconds = 10.0;
  bool traced = false;
  bool smoke = false;
};

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

int run_workload(const WorkloadSpec& w, const Options& opt) {
  constexpr std::size_t kMinReps = 3;
  constexpr std::size_t kMaxReps = 200;
  const std::size_t jobs = jobs_for(w);
  const trace::SyntheticWorkload workload(trace_config(w, opt.seed, w.requests));

  // Set-up takes milliseconds and the host's speed drifts over seconds, so
  // set-up is timed in a 0.1 s batch after every rep and the median of all
  // batches reported.
  std::vector<double> setup;
  const auto time_setup = [&] {
    const Clock::time_point start = Clock::now();
    do {
      setup.push_back(setup_once(w, opt.seed, jobs));
    } while (seconds_between(start, Clock::now()) < 0.1);
  };

  std::vector<std::string> failures;
  const auto check = [&](const Rep& rep, const char* label) {
    for (const std::string& f : rep.failures) failures.push_back(std::string(label) + ": " + f);
  };

  // Warm-up at 1/5 size: caches and allocator settle; checked, not timed.
  {
    const trace::SyntheticWorkload warm(trace_config(w, opt.seed, w.requests / 5));
    check(run_rep(w, warm, jobs), "warm-up");
  }

  const Calibration cal = opt.traced ? calibrate() : Calibration{};
  const WorkloadSpec unsharded = [&] {
    WorkloadSpec s = w;
    s.shards = 1;
    return s;
  }();
  std::vector<Rep> plain;
  std::vector<Rep> traced;
  std::vector<double> unsharded_wall;
  const Clock::time_point loop_start = Clock::now();
  for (;;) {
    plain.push_back(run_rep(w, workload, jobs));
    check(plain.back(), "rep");
    time_setup();
    if (opt.traced) {
      LayerTrace layer_trace;
      traced.push_back(run_rep(w, workload, jobs, &layer_trace, &cal));
      check(traced.back(), "traced rep");
      if (w.shards > 1) {
        const Rep base = run_rep(unsharded, workload, 1);
        check(base, "unsharded baseline");
        unsharded_wall.push_back(base.wall_s);
      }
    }
    // Stop before the next iteration would overrun --seconds.
    const auto n = static_cast<double>(plain.size());
    const double projected = seconds_between(loop_start, Clock::now()) * (n + 1) / n;
    if (plain.size() >= kMaxReps || (plain.size() >= kMinReps && projected > opt.seconds))
      break;
  }

  const std::uint64_t digest = plain.front().digest;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const std::vector<Rep>* reps : {&plain, &traced})
    for (const Rep& rep : *reps) {
      attempted += rep.generated;
      failed += rep.failed();
      if (rep.digest != digest) failures.emplace_back("output digest differs between reps");
    }

  std::map<std::string, Summary> metrics;
  Summary& rps = metrics["requests_per_s"] = {"req/s", {}};
  std::vector<double> plain_wall;
  for (const Rep& rep : plain) {
    rps.samples.push_back(ratio(static_cast<double>(rep.answered), rep.wall_s));
    plain_wall.push_back(rep.wall_s);
  }
  metrics["setup_s"] = {"s", setup};
  metrics["peak_rss_mib"] = {"MiB", {peak_rss_mib()}};
  metrics["failed_pct"] = {"%", {100.0 * ratio(static_cast<double>(failed),
                                               static_cast<double>(attempted))}};
  if (opt.traced) {
    for (const MetricDef& def : kLayerMetrics) {
      Summary& s = metrics[def.name] = {def.unit, {}};
      for (const Rep& rep : traced) s.samples.push_back(rep.layers.at(def.name));
    }
    std::vector<double> traced_wall;
    for (const Rep& rep : traced) traced_wall.push_back(rep.wall_s);
    metrics["bench.trace_overhead_pct"].samples = {
        100.0 * (median(traced_wall) - median(plain_wall)) / median(plain_wall)};
    double speedup = 0.0;  // the network path does not cross the runner
    if (w.path == Path::kReplay)
      speedup = w.shards > 1 ? median(unsharded_wall) / median(plain_wall) : 1.0;
    metrics["runner.speedup_vs_unsharded"].samples = {speedup};
  }

  char digest_hex[17];
  std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                static_cast<unsigned long long>(digest));
  std::string json = "{\"workload\":\"" + std::string(w.name) + "\"";
  json += ",\"seed\":" + std::to_string(opt.seed);
  json += std::string(",\"traced\":") + (opt.traced ? "true" : "false");
  json += ",\"host\":" + host_json();
  json += ",\"requests_per_rep\":" + std::to_string(w.requests);
  json += ",\"jobs\":" + std::to_string(jobs);
  json += ",\"reps\":" + std::to_string(plain.size());
  json += ",\"traced_reps\":" + std::to_string(traced.size());
  json += ",\"setup_reps\":" + std::to_string(setup.size());
  json += ",\"output_digest\":\"" + std::string(digest_hex) + "\"";
  json += std::string(",\"correct\":") + (failures.empty() ? "true" : "false");
  json += ",\"checks_failed\":[";
  for (std::size_t i = 0; i < failures.size(); ++i)
    json += (i ? ",\"" : "\"") + json_escape(failures[i]) + "\"";
  json += "],\"attempted\":" + std::to_string(attempted);
  json += ",\"failed\":" + std::to_string(failed);
  json += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, summary] : metrics) {
    json += (first ? "\"" : ",\"") + name + "\":" + metric_json(summary);
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return failures.empty() ? 0 : 1;
}

/// Every workload at 20k requests: the rep checks, traced == untraced
/// digests, and replay_sharded byte-identical at jobs 1 and 2.
int run_smoke() {
  constexpr std::size_t kSmokeRequests = 20'000;
  const Calibration cal{};  // the smoke checks counts and digests, not times
  int status = 0;
  for (const WorkloadSpec& w : kWorkloads) {
    const trace::SyntheticWorkload workload(trace_config(w, 2013, kSmokeRequests));
    std::vector<std::string> failures;
    const Rep plain = run_rep(w, workload, jobs_for(w));
    LayerTrace layer_trace;
    const Rep traced = run_rep(w, workload, jobs_for(w), &layer_trace, &cal);
    for (const Rep* rep : {&plain, &traced}) {
      failures.insert(failures.end(), rep->failures.begin(), rep->failures.end());
      if (rep->failed() != 0) failures.emplace_back("failed requests");
    }
    if (traced.digest != plain.digest)
      failures.emplace_back("traced digest != untraced digest");
    if (traced.layers.at("trace.source.records_read") < static_cast<double>(kSmokeRequests))
      failures.emplace_back("the timed source saw fewer records than were generated");
    if (w.shards > 1) {
      const Rep serial = run_rep(w, workload, 1);
      const Rep parallel = run_rep(w, workload, 2);
      if (serial.merged_json != parallel.merged_json)
        failures.emplace_back("merged_json differs between jobs=1 and jobs=2");
    }
    std::printf("%-17s %s digest=%016llx\n", w.name, failures.empty() ? "ok  " : "FAIL",
                static_cast<unsigned long long>(plain.digest));
    for (const std::string& f : failures) std::printf("  %s\n", f.c_str());
    if (!failures.empty()) status = 1;
  }
  return status;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload NAME [--seed S] [--seconds T] [--traced]\n"
               "       bench_e2e --smoke\n"
               "workloads:");
  for (const WorkloadSpec& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--traced") {
      opt.traced = true;
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else {
      return usage();
    }
  }
  try {
    if (opt.smoke) return run_smoke();
    const WorkloadSpec* w = find_workload(opt.workload);
    if (w == nullptr || !(opt.seconds > 0.0)) return usage();
    return run_workload(*w, opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
