// Microbenchmarks (google-benchmark): per-operation costs of the
// substrates — name parsing/hashing, SHA-256/HMAC, content-store
// insert/lookup under each eviction policy, the privacy policies' decision
// path, the forwarder pipeline, and trace replay throughput.
//
// Besides the google-benchmark suite, main() first runs a deterministic
// self-timed harness over the two CS hot paths the hash-index rewrite
// targets — exact-match lookup and insert+evict at 64k entries — and
// writes the measurements as canonical metrics JSON to
// BENCH_micro_ops.json in the current directory, next to the pre-rewrite
// baseline numbers (see EXPERIMENTS.md, "Micro-op hot-path baseline").
#include <benchmark/benchmark.h>
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/content_store.hpp"
#include "core/engine.hpp"
#include "core/policies.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256_compress.hpp"
#include "ndn/tlv.hpp"
#include "oracle/heap_scheduler.hpp"
#include "sim/apps.hpp"
#include "sim/forwarder.hpp"
#include "sim/scheduler.hpp"
#include "trace/replayer.hpp"
#include "trace/stream.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace {

using namespace ndnp;

void BM_NameParse(benchmark::State& state) {
  for (auto _ : state) {
    ndn::Name name("/youtube/alice/video-749.avi/137");
    benchmark::DoNotOptimize(name);
  }
}
BENCHMARK(BM_NameParse);

void BM_NameHash(benchmark::State& state) {
  const ndn::Name name("/youtube/alice/video-749.avi/137");
  for (auto _ : state) benchmark::DoNotOptimize(name.hash64());
}
BENCHMARK(BM_NameHash);

void BM_NamePrefixCheck(benchmark::State& state) {
  const ndn::Name prefix("/youtube/alice");
  const ndn::Name name("/youtube/alice/video-749.avi/137");
  for (auto _ : state) benchmark::DoNotOptimize(prefix.is_prefix_of(name));
}
BENCHMARK(BM_NamePrefixCheck);

void BM_NameToUri(benchmark::State& state) {
  const ndn::Name name("/youtube/alice/video-749.avi/137");
  for (auto _ : state) benchmark::DoNotOptimize(name.to_uri());
}
BENCHMARK(BM_NameToUri);

void BM_NameCopy(benchmark::State& state) {
  const ndn::Name name("/youtube/alice/video-749.avi/137");
  for (auto _ : state) {
    ndn::Name copy = name;
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_NameCopy);

// The probe name fib_lookup and Consumer::receive_data build per depth.
void BM_NamePrefixSlice(benchmark::State& state) {
  const ndn::Name name("/youtube/alice/video-749.avi/137");
  for (auto _ : state) {
    ndn::Name prefix = name.prefix(2);
    benchmark::DoNotOptimize(prefix);
  }
}
BENCHMARK(BM_NamePrefixSlice);

void BM_TlvEncodeInterest(benchmark::State& state) {
  ndn::Interest interest;
  interest.name = ndn::Name("/youtube/alice/video-749.avi/137");
  interest.nonce = 123456789;
  interest.scope = 2;
  for (auto _ : state) benchmark::DoNotOptimize(ndn::encode(interest));
}
BENCHMARK(BM_TlvEncodeInterest);

void BM_TlvDecodeData(benchmark::State& state) {
  ndn::Data data = ndn::make_data(ndn::Name("/youtube/alice/video-749.avi/137"),
                                  std::string(1024, 'x'), "alice", "key");
  const ndn::Buffer wire = ndn::encode(data);
  for (auto _ : state) benchmark::DoNotOptimize(ndn::decode_data(wire));
}
BENCHMARK(BM_TlvDecodeData);

void BM_Sha256(benchmark::State& state) {
  const std::string payload(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) benchmark::DoNotOptimize(crypto::Sha256::hash(payload));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(8192);

// The scalar reference compression, pinned: BM_Sha256 runs whichever one
// the CPU dispatch picked, so the pair shows what the SHA extensions buy.
void BM_Sha256Portable(benchmark::State& state) {
  const std::string payload(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    crypto::Sha256 h(crypto::compress_portable);
    h.update(payload);
    benchmark::DoNotOptimize(h.finish());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256Portable)->Arg(64)->Arg(1024)->Arg(8192);

void BM_HmacSign(benchmark::State& state) {
  const std::string payload(1024, 'x');
  for (auto _ : state)
    benchmark::DoNotOptimize(crypto::sign_content("key", "/a/b/c", payload));
}
BENCHMARK(BM_HmacSign);

// A producer building one Data whose signature no one reads: what every
// network_replay fetch pays, since the signature is deferred to first read.
void BM_MakeData(benchmark::State& state) {
  const ndn::Name name("/web/dom1/obj1");
  const ndn::Payload payload(std::string(static_cast<std::size_t>(state.range(0)), 'x'));
  const ndn::SigningKey key("origin-key");
  for (auto _ : state) benchmark::DoNotOptimize(ndn::make_data(name, payload, "dom1", key));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_MakeData)->Arg(64)->Arg(8192);

// The same Data with its signature read: the cost of a Data that is
// encoded or verified, and what every fetch paid when make_data signed.
void BM_MakeDataSigned(benchmark::State& state) {
  const ndn::Name name("/web/dom1/obj1");
  const ndn::Payload payload(std::string(static_cast<std::size_t>(state.range(0)), 'x'));
  const ndn::SigningKey key("origin-key");
  for (auto _ : state) {
    const ndn::Data data = ndn::make_data(name, payload, "dom1", key);
    benchmark::DoNotOptimize(data.signature.value());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_MakeDataSigned)->Arg(64)->Arg(8192);

void BM_PrfNameToken(benchmark::State& state) {
  const crypto::Prf prf("shared-secret");
  std::uint64_t seq = 0;
  for (auto _ : state) benchmark::DoNotOptimize(prf.derive_token("audio", seq++));
}
BENCHMARK(BM_PrfNameToken);

void BM_ContentStoreInsert(benchmark::State& state) {
  const auto policy = static_cast<cache::EvictionPolicy>(state.range(0));
  cache::ContentStore cs(4096, policy, 1);
  std::uint64_t i = 0;
  for (auto _ : state) {
    ndn::Data data;
    data.name = ndn::Name("/bench/obj").append_number(i++ % 8192);
    cs.insert(std::move(data), {});
  }
}
BENCHMARK(BM_ContentStoreInsert)
    ->Arg(static_cast<int>(cache::EvictionPolicy::kLru))
    ->Arg(static_cast<int>(cache::EvictionPolicy::kFifo))
    ->Arg(static_cast<int>(cache::EvictionPolicy::kLfu))
    ->Arg(static_cast<int>(cache::EvictionPolicy::kRandom));

void BM_ContentStoreLookupHit(benchmark::State& state) {
  cache::ContentStore cs(0, cache::EvictionPolicy::kLru, 1);
  for (std::uint64_t i = 0; i < 4096; ++i) {
    ndn::Data data;
    data.name = ndn::Name("/bench/obj").append_number(i);
    cs.insert(std::move(data), {});
  }
  ndn::Interest interest;
  interest.name = ndn::Name("/bench/obj/2048");
  for (auto _ : state) benchmark::DoNotOptimize(cs.find(interest));
}
BENCHMARK(BM_ContentStoreLookupHit);

// The two hot paths the hash-index CS rewrite is accountable for, at the
// 64k working-set size the acceptance numbers are pinned at.
void BM_ContentStoreLookup64k(benchmark::State& state) {
  const auto policy = static_cast<cache::EvictionPolicy>(state.range(0));
  cache::ContentStore cs(0, policy, 1);
  constexpr std::uint64_t kEntries = 65536;
  std::vector<ndn::Interest> interests;
  interests.reserve(kEntries);
  for (std::uint64_t i = 0; i < kEntries; ++i) {
    ndn::Data data;
    data.name = ndn::Name("/bench/obj").append_number(i);
    cs.insert(std::move(data), {});
    ndn::Interest interest;
    interest.name = ndn::Name("/bench/obj").append_number(i * 7919 % kEntries);
    interests.push_back(std::move(interest));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cs.find(interests[i]));
    if (++i == interests.size()) i = 0;
  }
}
BENCHMARK(BM_ContentStoreLookup64k)
    ->Arg(static_cast<int>(cache::EvictionPolicy::kLru))
    ->Arg(static_cast<int>(cache::EvictionPolicy::kFifo))
    ->Arg(static_cast<int>(cache::EvictionPolicy::kLfu))
    ->Arg(static_cast<int>(cache::EvictionPolicy::kRandom));

void BM_ContentStoreInsertEvict64k(benchmark::State& state) {
  const auto policy = static_cast<cache::EvictionPolicy>(state.range(0));
  constexpr std::uint64_t kEntries = 65536;
  cache::ContentStore cs(kEntries, policy, 1);
  std::uint64_t i = 0;
  for (; i < kEntries; ++i) {
    ndn::Data data;
    data.name = ndn::Name("/bench/obj").append_number(i);
    cs.insert(std::move(data), {});
  }
  // Every timed insert is a fresh name, so at steady state each one evicts.
  for (auto _ : state) {
    ndn::Data data;
    data.name = ndn::Name("/bench/obj").append_number(i++);
    cs.insert(std::move(data), {});
  }
}
BENCHMARK(BM_ContentStoreInsertEvict64k)
    ->Arg(static_cast<int>(cache::EvictionPolicy::kLru))
    ->Arg(static_cast<int>(cache::EvictionPolicy::kFifo))
    ->Arg(static_cast<int>(cache::EvictionPolicy::kLfu))
    ->Arg(static_cast<int>(cache::EvictionPolicy::kRandom));

// A strict-prefix interest against a large store: depth-2 interests
// (/bench/<g>) over 64k 3-component names (/bench/<g>/<i>) in 256 groups,
// so each interest matches 256 entries. The store answers it by scanning
// every entry.
void BM_ContentStorePrefixLookup64k(benchmark::State& state) {
  constexpr std::uint64_t kEntries = 65536;
  constexpr std::uint64_t kGroups = 256;
  cache::ContentStore cs(0, cache::EvictionPolicy::kLru, 1);
  for (std::uint64_t i = 0; i < kEntries; ++i) {
    ndn::Data data;
    data.name = ndn::Name("/bench").append_number(i % kGroups).append_number(i);
    cs.insert(std::move(data), {});
  }
  std::vector<ndn::Interest> interests(kGroups);
  for (std::uint64_t g = 0; g < kGroups; ++g)
    interests[g].name = ndn::Name("/bench").append_number(g * 97 % kGroups);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cs.find(interests[i]));
    if (++i == interests.size()) i = 0;
  }
}
BENCHMARK(BM_ContentStorePrefixLookup64k);

void BM_EngineRequest(benchmark::State& state) {
  core::CachePrivacyEngine engine(4096, cache::EvictionPolicy::kLru,
                                  core::RandomCachePolicy::exponential(0.999, 1024, 1));
  const core::CachePrivacyEngine::FetchFn fetch = [](const ndn::Interest& interest) {
    return std::pair{ndn::make_data(interest.name, "x", "p", "k"), util::millis(20)};
  };
  std::uint64_t i = 0;
  util::SimTime now = 0;
  for (auto _ : state) {
    ndn::Interest interest;
    interest.name = ndn::Name("/bench/obj").append_number(i++ % 8192);
    interest.private_req = (i % 5) == 0;
    benchmark::DoNotOptimize(engine.handle(interest, now, fetch));
    now += 1000;
  }
}
BENCHMARK(BM_EngineRequest);

// --- Engine true miss --------------------------------------------------------

/// The i-th replay-shaped 3-component name (/web/dom<d>/obj<j>).
ndn::Name true_miss_name(std::size_t i) {
  return ndn::Name("/web/dom" + std::to_string(i % 97) + "/obj" + std::to_string(i));
}

// The replay's most common request (~79 % of bench/e2e's replay_unsharded):
// a lookup that misses, then an admit that evicts, on a full 8000-entry LRU
// CS of 3-component names. The Data carries only its name and producer, as
// the replay's upstream stub builds it. The admit hashes the name once and
// probes the exact index once (ContentStore::prepare, then insert with the
// hint). The names cycle through four times the capacity, so a name comes
// round again only after it was evicted and every lookup misses.
void BM_EngineTrueMiss(benchmark::State& state) {
  constexpr std::size_t kCapacity = 8'000;
  std::vector<ndn::Interest> interests(4 * kCapacity);
  for (std::size_t i = 0; i < interests.size(); ++i)
    interests[i].name = true_miss_name(i);
  core::CachePrivacyEngine engine(kCapacity, cache::EvictionPolicy::kLru,
                                  std::make_unique<core::NoPrivacyPolicy>(), 1);
  util::Rng coin(1);
  std::size_t i = 0;
  util::SimTime now = 0;
  const auto true_miss = [&] {
    const ndn::Interest& interest = interests[i];
    i = i + 1 == interests.size() ? 0 : i + 1;
    benchmark::DoNotOptimize(engine.lookup(interest, now));
    ndn::Data data;
    data.name = interest.name;
    data.producer = "origin";
    benchmark::DoNotOptimize(
        engine.admit(std::move(data), interest, util::millis(40), now, coin));
    now += 1000;
  };
  for (std::size_t k = 0; k < kCapacity; ++k) true_miss();
  const std::uint64_t misses_before = engine.stats().true_misses;
  for (auto _ : state) true_miss();
  const auto timed = static_cast<std::uint64_t>(state.iterations());
  if (engine.stats().true_misses - misses_before != timed)
    state.SkipWithError("a lookup hit: the name cycle is too short");
}
BENCHMARK(BM_EngineTrueMiss);

// touch() on resident entries of the same full 8000-entry LRU CS: an LRU
// move-to-front reached from the Entry without an index probe.
void BM_ContentStoreTouch8000(benchmark::State& state) {
  constexpr std::size_t kCapacity = 8'000;
  cache::ContentStore cs(kCapacity, cache::EvictionPolicy::kLru, 1);
  std::vector<cache::Entry*> entries;
  for (std::size_t i = 0; i < kCapacity; ++i) {
    ndn::Data data;
    data.name = true_miss_name(i);
    entries.push_back(&cs.insert(std::move(data), {}));
  }
  std::vector<std::uint32_t> order(1 << 16);
  util::Rng rng(5);
  for (std::uint32_t& index : order)
    index = static_cast<std::uint32_t>(rng.uniform_u64(kCapacity));
  std::size_t i = 0;
  util::SimTime now = 0;
  for (auto _ : state) cs.touch(*entries[order[i++ & 0xFFFF]], ++now);
}
BENCHMARK(BM_ContentStoreTouch8000);

void BM_ForwarderRoundTrip(benchmark::State& state) {
  sim::Scheduler sched;
  sim::Consumer consumer(sched, "C", 1);
  sim::ForwarderConfig fcfg;
  fcfg.cs_capacity = 4096;
  sim::Forwarder router(sched, "R", fcfg);
  sim::Producer producer(sched, "P", ndn::Name("/p"), "key", {}, 2);
  sim::LinkConfig link;
  link.latency = util::micros(100);
  connect(consumer, router, link);
  const auto [rp, pr] = connect(router, producer, link);
  (void)pr;
  router.add_route(ndn::Name("/p"), rp);

  std::uint64_t i = 0;
  for (auto _ : state) {
    bool done = false;
    consumer.fetch(ndn::Name("/p/obj").append_number(i++),
                   [&done](const ndn::Data&, util::SimDuration) { done = true; });
    while (!done && sched.run_one()) {
    }
  }
}
BENCHMARK(BM_ForwarderRoundTrip);

// Armed variant: same round trip with a TelemetryHub folding every lookup
// into the detector banks. The delta against BM_ForwarderRoundTrip is the
// per-packet telemetry cost (BENCH_telemetry.json pins it under 5%).
void BM_ForwarderRoundTripTelemetry(benchmark::State& state) {
  sim::Scheduler sched;
  sim::Consumer consumer(sched, "C", 1);
  sim::ForwarderConfig fcfg;
  fcfg.cs_capacity = 4096;
  sim::Forwarder router(sched, "R", fcfg);
  telemetry::TelemetryHub hub;
  router.arm_telemetry(&hub);
  sim::Producer producer(sched, "P", ndn::Name("/p"), "key", {}, 2);
  sim::LinkConfig link;
  link.latency = util::micros(100);
  connect(consumer, router, link);
  const auto [rp, pr] = connect(router, producer, link);
  (void)pr;
  router.add_route(ndn::Name("/p"), rp);

  std::uint64_t i = 0;
  for (auto _ : state) {
    bool done = false;
    consumer.fetch(ndn::Name("/p/obj").append_number(i++),
                   [&done](const ndn::Data&, util::SimDuration) { done = true; });
    while (!done && sched.run_one()) {
    }
  }
}
BENCHMARK(BM_ForwarderRoundTripTelemetry);

// --- Scheduler vs reference heap --------------------------------------------
// Self-rescheduling ticker workload: a fixed population of outstanding
// events, each one rescheduling itself at a mixed-magnitude delay (same
// nanosecond through minutes ahead). One benchmark iteration is one
// schedule_in + run_one cycle — the steady state every simulation spends
// its time in. Three depths: 1024 outstanding (a small topology), 8192
// (network_replay's peak) and 128k, where the reference heap's O(log n)
// sift over 128-byte items turns into cache-miss chains while
// sim::Scheduler sifts 24-byte items through a 4-ary heap.

/// Fixed mixed-magnitude delay table so both scheduler benchmarks replay
/// the identical access pattern with zero RNG cost in the timed region.
std::vector<util::SimDuration> scheduler_delay_table() {
  std::vector<util::SimDuration> delays(1 << 16);
  util::Rng rng(11);
  for (util::SimDuration& delay : delays) {
    switch (rng.uniform_u64(6)) {
      case 0: delay = 0; break;
      case 1: delay = static_cast<util::SimDuration>(rng.uniform_u64(1 << 10)); break;
      case 2: delay = static_cast<util::SimDuration>(rng.uniform_u64(std::uint64_t{1} << 18)); break;
      case 3: delay = static_cast<util::SimDuration>(rng.uniform_u64(std::uint64_t{1} << 26)); break;
      case 4: delay = static_cast<util::SimDuration>(rng.uniform_u64(std::uint64_t{1} << 34)); break;
      default: delay = static_cast<util::SimDuration>(rng.uniform_u64(std::uint64_t{1} << 38)); break;
    }
  }
  return delays;
}

/// Event body for the ticker: dispatch bumps the counter and reschedules
/// itself. All-reference capture keeps it well inside the inline budget.
template <typename Sched>
struct SchedulerTicker {
  Sched& sched;
  const std::vector<util::SimDuration>& delays;
  std::size_t& cursor;
  std::uint64_t& dispatched;
  void operator()() {
    ++dispatched;
    sched.schedule_in(delays[cursor++ & 0xFFFF], *this);
  }
};

template <typename Sched>
void scheduler_ticker_bench(benchmark::State& state) {
  Sched sched;
  const std::vector<util::SimDuration> delays = scheduler_delay_table();
  std::size_t cursor = 0;
  std::uint64_t dispatched = 0;
  const SchedulerTicker<Sched> ticker{sched, delays, cursor, dispatched};
  for (std::int64_t i = 0; i < state.range(0); ++i)
    sched.schedule_in(delays[cursor++ & 0xFFFF], ticker);
  for (auto _ : state) {
    if (!sched.run_one()) state.SkipWithError("scheduler drained");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(dispatched));
}

void BM_SchedulerTicker(benchmark::State& state) {
  scheduler_ticker_bench<sim::Scheduler>(state);
}
BENCHMARK(BM_SchedulerTicker)->Arg(1024)->Arg(8192)->Arg(131072);

void BM_SchedulerHeapTicker(benchmark::State& state) {
  scheduler_ticker_bench<sim::HeapScheduler>(state);
}
BENCHMARK(BM_SchedulerHeapTicker)->Arg(1024)->Arg(8192)->Arg(131072);

// Trace source layer at the bench/e2e shape: one Zipf draw over the 1M-object
// catalogue, and one whole synthetic record (arrival, user and object
// draws, domain assignment, name building).
void BM_ZipfSample(benchmark::State& state) {
  const util::ZipfSampler zipf(1'000'000, 0.8);
  util::Rng rng(5);
  for (auto _ : state) benchmark::DoNotOptimize(zipf.sample(rng));
}
BENCHMARK(BM_ZipfSample);

// Arg = shards: at 1 every record is built; at 8 the pass is hinted to
// shard 0 of 8 and skips the other shards' records. Either way items are
// trace records scanned (stats().records), so the two rates compare.
void BM_SyntheticSourceRecord(benchmark::State& state) {
  trace::TraceGenConfig gen;
  gen.num_users = 100'000;
  gen.num_objects = 1'000'000;
  gen.num_domains = 2'000;
  gen.num_requests = std::size_t{1} << 40;  // never exhausted
  gen.seed = 2013;
  const trace::SyntheticWorkload workload(gen);
  const auto source = workload.open();
  source->select_shard(0, static_cast<std::size_t>(state.range(0)));
  constexpr std::size_t kChunk = 1'024;
  std::vector<trace::TraceRecord> chunk;
  for (auto _ : state) {
    source->next_chunk(chunk, kChunk);
    benchmark::DoNotOptimize(chunk.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(source->stats().records));
}
BENCHMARK(BM_SyntheticSourceRecord)->Arg(1)->Arg(8);

void BM_TraceReplayThroughput(benchmark::State& state) {
  trace::TraceGenConfig gen;
  gen.num_requests = 50'000;
  gen.num_objects = 20'000;
  gen.seed = 1;
  const trace::Trace tr = trace::generate_trace(gen);
  for (auto _ : state) {
    trace::ReplayConfig config;
    config.cache_capacity = 4'000;
    config.private_fraction = 0.2;
    config.seed = 2;
    config.policy_factory = [] {
      return core::RandomCachePolicy::exponential(0.999, 1024, 3);
    };
    benchmark::DoNotOptimize(trace::replay(tr, config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 50'000);
}
BENCHMARK(BM_TraceReplayThroughput)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Deterministic hot-path report (BENCH_micro_ops.json).
//
// Self-timed (std::chrono, not google-benchmark) so the op counts and
// access patterns are fixed and the derived Mops/s gauges are directly
// comparable across commits. The *_baseline_mops gauges are the numbers
// the ordered-map ContentStore produced on the reference machine right
// before the hash-index rewrite, measured with this same harness; the
// rewrite's acceptance criterion is speedup >= 2 on every row.

struct HotPathBaseline {
  cache::EvictionPolicy policy;
  double lookup_mops;
  double insert_evict_mops;
};

// Pre-rewrite numbers (ordered std::map CS; see EXPERIMENTS.md).
constexpr HotPathBaseline kBaselines[] = {
    {cache::EvictionPolicy::kLru, 0.738, 0.621},
    {cache::EvictionPolicy::kFifo, 0.849, 0.628},
    {cache::EvictionPolicy::kLfu, 0.782, 0.500},
    {cache::EvictionPolicy::kRandom, 0.707, 0.219},
};

double run_lookup64k(cache::EvictionPolicy policy, std::uint64_t ops) {
  constexpr std::uint64_t kEntries = 65536;
  cache::ContentStore cs(0, policy, 1);
  std::vector<ndn::Interest> interests;
  interests.reserve(kEntries);
  for (std::uint64_t i = 0; i < kEntries; ++i) {
    ndn::Data data;
    data.name = ndn::Name("/bench/obj").append_number(i);
    cs.insert(std::move(data), {});
    ndn::Interest interest;
    interest.name = ndn::Name("/bench/obj").append_number(i * 7919 % kEntries);
    interests.push_back(std::move(interest));
  }
  std::uint64_t hits = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t done = 0; done < ops;) {
    for (const ndn::Interest& interest : interests) {
      if (done++ == ops) break;
      if (cs.find(interest) != nullptr) ++hits;
    }
  }
  const double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  if (hits == 0) std::fprintf(stderr, "lookup64k: impossible zero hits\n");
  return static_cast<double>(ops) / secs / 1e6;
}

double run_insert_evict64k(cache::EvictionPolicy policy, std::uint64_t ops) {
  constexpr std::uint64_t kEntries = 65536;
  cache::ContentStore cs(kEntries, policy, 1);
  std::uint64_t i = 0;
  for (; i < kEntries; ++i) {
    ndn::Data data;
    data.name = ndn::Name("/bench/obj").append_number(i);
    cs.insert(std::move(data), {});
  }
  // Pre-build the Data outside the timed region: the harness measures the
  // store, not Name construction.
  std::vector<ndn::Data> pending;
  pending.reserve(ops);
  for (std::uint64_t j = 0; j < ops; ++j, ++i) {
    ndn::Data data;
    data.name = ndn::Name("/bench/obj").append_number(i);
    pending.push_back(std::move(data));
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (ndn::Data& data : pending) cs.insert(std::move(data), {});
  const double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  if (cs.stats().evictions != ops) std::fprintf(stderr, "insert_evict64k: eviction miscount\n");
  return static_cast<double>(ops) / secs / 1e6;
}

/// Self-timed ticker harness (same workload as BM_Scheduler*Ticker):
/// `outstanding` self-rescheduling events, `ops` dispatches timed. Returns
/// events/sec in millions; `fallbacks`/`chunks` report sim::Scheduler's
/// allocation gauges (zero heap-fallback events and a slab that stopped
/// growing are part of the acceptance criteria, not just speed).
template <typename Sched>
double run_scheduler_ticker(int outstanding, std::uint64_t ops, std::size_t* fallbacks = nullptr,
                            std::size_t* chunks = nullptr) {
  Sched sched;
  const std::vector<util::SimDuration> delays = scheduler_delay_table();
  std::size_t cursor = 0;
  std::uint64_t dispatched = 0;
  const SchedulerTicker<Sched> ticker{sched, delays, cursor, dispatched};
  for (int i = 0; i < outstanding; ++i) sched.schedule_in(delays[cursor++ & 0xFFFF], ticker);
  // Warm-up carves the slab chunks and grows the ready heap to its peak.
  while (dispatched < 100'000) (void)sched.run_one();
  const std::uint64_t timed_from = dispatched;
  const auto t0 = std::chrono::steady_clock::now();
  while (dispatched < timed_from + ops) (void)sched.run_one();
  const double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  if constexpr (std::is_same_v<Sched, sim::Scheduler>) {
    if (fallbacks != nullptr) *fallbacks = sched.heap_fallback_events();
    if (chunks != nullptr) *chunks = sched.slab_chunks();
  }
  return static_cast<double>(ops) / secs / 1e6;
}

/// Heap bytes per resident entry of a full 8000-entry LRU CS of the
/// replay's 3-component names, read from the allocator's in-use count:
/// the store's node, its index slots and the Data's own buffers.
double cs_bytes_per_entry() {
  constexpr std::size_t kEntries = 8'000;
  const std::size_t before = mallinfo2().uordblks;
  cache::ContentStore cs(kEntries, cache::EvictionPolicy::kLru, 1);
  for (std::size_t i = 0; i < kEntries; ++i) {
    ndn::Data data;
    data.name = true_miss_name(i);
    data.producer = "origin";
    cs.insert(std::move(data), {});
  }
  return static_cast<double>(mallinfo2().uordblks - before) / kEntries;
}

void write_hot_path_report(const char* path) {
  constexpr std::uint64_t kLookupOps = 1'310'720;   // 20 x 65536
  constexpr std::uint64_t kInsertOps = 400'000;
  constexpr std::uint64_t kSchedulerOps = 2'000'000;
  util::MetricsSnapshot snap;
  snap.counters["cs64k.exact_lookup.ops"] = kLookupOps;
  snap.counters["cs64k.insert_evict.ops"] = kInsertOps;
  snap.counters["sched.ticker.ops"] = kSchedulerOps;
  std::printf("CS hot paths at 64k entries (also written to %s):\n", path);
  for (const HotPathBaseline& base : kBaselines) {
    const std::string policy(cache::to_string(base.policy));
    const double lookup = run_lookup64k(base.policy, kLookupOps);
    const double insert = run_insert_evict64k(base.policy, kInsertOps);
    snap.gauges["cs64k.exact_lookup." + policy + ".mops"] = lookup;
    snap.gauges["cs64k.exact_lookup." + policy + ".baseline_mops"] = base.lookup_mops;
    snap.gauges["cs64k.exact_lookup." + policy + ".speedup"] = lookup / base.lookup_mops;
    snap.gauges["cs64k.insert_evict." + policy + ".mops"] = insert;
    snap.gauges["cs64k.insert_evict." + policy + ".baseline_mops"] = base.insert_evict_mops;
    snap.gauges["cs64k.insert_evict." + policy + ".speedup"] = insert / base.insert_evict_mops;
    std::printf("  %-6s exact_lookup %7.3f Mops/s (baseline %5.3f, x%.2f)   "
                "insert_evict %7.3f Mops/s (baseline %5.3f, x%.2f)\n",
                policy.c_str(), lookup, base.lookup_mops, lookup / base.lookup_mops, insert,
                base.insert_evict_mops, insert / base.insert_evict_mops);
  }
  // Scheduler section: sim::Scheduler vs the in-tree reference heap,
  // measured live in the same run (no frozen baseline constants —
  // HeapScheduler is always compiled as the reference, so the speedup gauge
  // stays honest on any machine). sim::Scheduler sifts 24-byte (when, seq,
  // node) items through a 4-ary heap where the reference's binary heap
  // moves whole events, which is what the deep row (128k outstanding)
  // shows: speedup >= 2 with zero heap-fallback events in the ticker's
  // steady state. The mid row (8192) is the depth network_replay peaks
  // near, and the shallow row (1024) the small-topology regime.
  struct TickerDepth {
    const char* key;
    int outstanding;
  };
  std::printf("Scheduler ticker (self-rescheduling events, mixed delays):\n");
  for (const TickerDepth& depth : {TickerDepth{"sched.ticker.deep", 131072},
                                   TickerDepth{"sched.ticker.mid", 8192},
                                   TickerDepth{"sched.ticker.shallow", 1024}}) {
    std::size_t fallbacks = 0;
    std::size_t chunks = 0;
    const double heap_mops =
        run_scheduler_ticker<sim::HeapScheduler>(depth.outstanding, kSchedulerOps);
    const double sched_mops = run_scheduler_ticker<sim::Scheduler>(
        depth.outstanding, kSchedulerOps, &fallbacks, &chunks);
    const std::string key(depth.key);
    snap.gauges[key + ".outstanding"] = depth.outstanding;
    snap.gauges[key + ".sched.mops"] = sched_mops;
    snap.gauges[key + ".heap.mops"] = heap_mops;
    snap.gauges[key + ".speedup"] = sched_mops / heap_mops;
    snap.gauges[key + ".sched.heap_fallback_events"] = static_cast<double>(fallbacks);
    snap.gauges[key + ".sched.slab_chunks"] = static_cast<double>(chunks);
    std::printf("  %6d outstanding: sched %7.3f Mev/s   heap %7.3f Mev/s   speedup x%.2f   "
                "heap_fallback=%zu slab_chunks=%zu\n",
                depth.outstanding, sched_mops, heap_mops, sched_mops / heap_mops, fallbacks,
                chunks);
  }
  const double bytes_per_entry = cs_bytes_per_entry();
  snap.gauges["cs.bytes_per_entry"] = bytes_per_entry;
  std::printf("CS heap bytes per entry (8000-entry LRU, 3-component names): %.1f\n",
              bytes_per_entry);
  std::ofstream out(path);
  out << snap.to_json() << '\n';
}

// ---------------------------------------------------------------------------
// Telemetry overhead report (BENCH_telemetry.json).
//
// The acceptance criterion for the online telemetry layer is that arming a
// TelemetryHub on the forwarder costs < 5% of round-trip throughput.
// Self-timed like the hot-path report: a fixed count of consumer->router->
// producer round trips over a warm 4096-entry CS (half hits, half misses,
// so both the hit and miss hooks are on the timed path), telemetry off vs
// armed, best-of-three interleaved to shed scheduler noise.

double run_forwarder_roundtrips(telemetry::TelemetryHub* hub, std::uint64_t ops) {
  sim::Scheduler sched;
  sim::Consumer consumer(sched, "C", 1);
  sim::ForwarderConfig fcfg;
  fcfg.cs_capacity = 4096;
  sim::Forwarder router(sched, "R", fcfg);
  if (hub != nullptr) router.arm_telemetry(hub);
  sim::Producer producer(sched, "P", ndn::Name("/p"), "key", {}, 2);
  sim::LinkConfig link;
  link.latency = util::micros(100);
  connect(consumer, router, link);
  const auto [rp, pr] = connect(router, producer, link);
  (void)pr;
  router.add_route(ndn::Name("/p"), rp);

  const auto round_trip = [&](std::uint64_t object) {
    bool done = false;
    consumer.fetch(ndn::Name("/p/obj").append_number(object),
                   [&done](const ndn::Data&, util::SimDuration) { done = true; });
    while (!done && sched.run_one()) {
    }
  };
  // Warm the CS so the timed region alternates hits (objects re-fetched
  // from the warm set) with misses (fresh names).
  for (std::uint64_t i = 0; i < 4096; ++i) round_trip(i);
  std::uint64_t fresh = 4096;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < ops; ++i)
    round_trip((i & 1) == 0 ? i % 4096 : fresh++);
  const double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return static_cast<double>(ops) / secs / 1e6;
}

void write_telemetry_report(const char* path) {
  constexpr std::uint64_t kOps = 120'000;
  constexpr int kRepeats = 3;
  double off_mops = 0.0;
  double on_mops = 0.0;
  std::uint64_t lookups = 0;
  for (int r = 0; r < kRepeats; ++r) {
    off_mops = std::max(off_mops, run_forwarder_roundtrips(nullptr, kOps));
    telemetry::TelemetryHub hub;
    on_mops = std::max(on_mops, run_forwarder_roundtrips(&hub, kOps));
    lookups = hub.lookups();
  }
  const double overhead_pct = 100.0 * (off_mops - on_mops) / off_mops;

  util::MetricsSnapshot snap;
  snap.counters["telemetry.roundtrip.ops"] = kOps;
  snap.counters["telemetry.roundtrip.lookups_per_run"] = lookups;
  snap.gauges["telemetry.roundtrip.off.mops"] = off_mops;
  snap.gauges["telemetry.roundtrip.armed.mops"] = on_mops;
  snap.gauges["telemetry.roundtrip.overhead_pct"] = overhead_pct;
  std::printf("Forwarder round trip, telemetry off vs armed (also written to %s):\n", path);
  std::printf("  off %7.3f Mrt/s   armed %7.3f Mrt/s   overhead %.2f%%  (budget < 5%%)\n",
              off_mops, on_mops, overhead_pct);
  std::ofstream out(path);
  out << snap.to_json() << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  write_hot_path_report("BENCH_micro_ops.json");
  write_telemetry_report("BENCH_telemetry.json");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
