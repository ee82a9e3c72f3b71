// Network-wide trace replay: the Section VII evaluation lifted from a
// single router onto a realistic multi-router deployment.
//
// Topology (a two-tier ISP tree):
//
//   users (by user_id % E) -> edge router 1..E -> core router -> producer
//
// Each trace request is issued, at its original timestamp, by the consumer
// attached to its user's edge router. Content marked private (same
// hash-based division as the single-router replayer) carries the consumer
// privacy bit. The privacy policy can be deployed nowhere, at the
// consumer-facing edge only (the paper's Section V-B suggestion), or on
// every router — quantifying the deployment question the paper defers to
// future work, including how simulated misses at the edge interact with
// an unprotected core cache.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "cache/content_store.hpp"
#include "core/policy.hpp"
#include "trace/stream.hpp"
#include "trace/trace.hpp"
#include "util/stats.hpp"

namespace ndnp::trace {

enum class Deployment {
  kNone,        // NoPrivacy everywhere (baseline)
  kEdgeOnly,    // policy at consumer-facing routers only
  kEverywhere,  // policy at edge and core routers
};

[[nodiscard]] std::string_view to_string(Deployment deployment) noexcept;

struct NetworkReplayConfig {
  std::size_t edge_routers = 4;
  std::size_t edge_cache = 2'000;
  std::size_t core_cache = 8'000;
  cache::EvictionPolicy eviction = cache::EvictionPolicy::kLru;
  double private_fraction = 0.2;
  Deployment deployment = Deployment::kEdgeOnly;
  /// Policy installed per the deployment; null = NoPrivacy.
  std::function<std::unique_ptr<core::CachePrivacyPolicy>()> policy_factory;
  /// Compress the trace's wall-clock span by this factor (a 24 h trace at
  /// 1000x replays in ~86 simulated seconds — inter-request order and
  /// concurrency structure are preserved).
  double time_compression = 1'000.0;
  std::uint64_t seed = 1;
};

struct NetworkReplayResult {
  std::uint64_t requests = 0;
  std::uint64_t completed = 0;
  /// Exposed cache hits summed over the edge tier / at the core.
  std::uint64_t edge_hits = 0;
  std::uint64_t core_hits = 0;
  /// Interests the producer had to serve (origin load).
  std::uint64_t producer_fetches = 0;
  /// Malformed input lines the feeding TraceSource skipped (counted, never
  /// silently dropped; 0 for in-memory traces). The source itself fails
  /// fast past its ParseOptions threshold.
  std::uint64_t malformed_records = 0;
  /// Consumer-observed round-trip times, ms.
  util::SampleSet rtt_ms;

  [[nodiscard]] double edge_hit_pct() const noexcept {
    return requests == 0 ? 0.0
                         : 100.0 * static_cast<double>(edge_hits) /
                               static_cast<double>(requests);
  }
  [[nodiscard]] double core_hit_pct() const noexcept {
    return requests == 0 ? 0.0
                         : 100.0 * static_cast<double>(core_hits) /
                               static_cast<double>(requests);
  }
  [[nodiscard]] double origin_load_pct() const noexcept {
    return requests == 0 ? 0.0
                         : 100.0 * static_cast<double>(producer_fetches) /
                               static_cast<double>(requests);
  }
};

/// Replay `tr` over the two-tier network. Deterministic for a given
/// (trace, config) pair. The records need not be sorted: they replay in
/// (compressed time, index) order.
[[nodiscard]] NetworkReplayResult replay_over_network(const Trace& tr,
                                                      const NetworkReplayConfig& config);

/// Streaming overload: pull fixed-size chunks from `source`, check every
/// timestamp of a chunk, then run the simulation to the chunk's last
/// timestamp before pulling the next, so peak memory is bounded by
/// `chunk_records` (plus cache state), independent of trace length. The
/// arrivals are fed one at a time: the scheduler holds one pending arrival
/// plus the in-flight work, never a chunk's backlog. Requires records in
/// nondecreasing timestamp order (the trace formats guarantee it); throws
/// std::invalid_argument otherwise. Deterministic for a given
/// (source, config) pair and byte-identical to the in-memory overload on
/// the same records.
[[nodiscard]] NetworkReplayResult replay_over_network(TraceSource& source,
                                                      const NetworkReplayConfig& config,
                                                      std::size_t chunk_records = 64 * 1024);

}  // namespace ndnp::trace
