// Request traces for the Section VII evaluation.
//
// The paper replays a 2007 IRCache/NLANR web-proxy trace (185 users,
// ~3.2 M requests) that is no longer distributed. This module provides the
// faithful substitute documented in DESIGN.md: a synthetic generator with
// the same macro-characteristics (user count, Zipf object popularity,
// session-structured arrivals over 24 h) plus plain-text and binary trace
// formats (trace/stream.hpp) so real traces can be substituted when
// available.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ndn/name.hpp"

namespace ndnp::trace {

struct TraceRecord {
  /// Seconds since trace start.
  double timestamp_s = 0.0;
  std::uint32_t user_id = 0;
  ndn::Name name;
  std::size_t size_bytes = 0;
};

/// True when a record stamped `timestamp_s` can be replayed with its times
/// divided by `time_compression` (> 0): the simulated nanosecond count
/// timestamp_s * 1e9 / time_compression is finite, non-negative and fits
/// util::SimTime (< 2^63 ns, about 292 years). Replay casts that value to
/// SimTime, which is undefined outside that range, so both trace readers,
/// ReplaySession::feed and replay_over_network reject such records.
[[nodiscard]] inline bool replayable_timestamp(double timestamp_s,
                                               double time_compression = 1.0) noexcept {
  const double ns = timestamp_s * 1e9 / time_compression;
  // NaN fails both comparisons and +inf the second.
  return ns >= 0.0 && ns < 0x1p63;
}

struct Trace {
  std::vector<TraceRecord> records;
  /// Catalogue size the generator drew from (0 when parsed from a file).
  std::size_t catalogue_size = 0;

  [[nodiscard]] std::size_t size() const noexcept { return records.size(); }
  /// Count of distinct names actually appearing in the trace.
  [[nodiscard]] std::size_t distinct_names() const;
};

/// Size of every generated object ("without loss of generality, we assume
/// that all content has the same size").
inline constexpr std::size_t kObjectSize = 8'192;

struct TraceGenConfig {
  /// Users in the 2007 IRCache RTP trace.
  std::size_t num_users = 185;
  /// Distinct objects in the catalogue.
  std::size_t num_objects = 100'000;
  /// Total requests (the paper's 3.2 M scaled for bench runtime; override
  /// freely).
  std::size_t num_requests = 400'000;
  /// Zipf popularity exponent; web-proxy traces classically fit 0.6-1.0.
  double zipf_exponent = 0.8;
  /// Trace duration (24 h in the original).
  double duration_s = 86'400.0;
  /// Domains objects are spread over; names look like
  /// /web/dom<d>/obj<j>, giving the namespace structure the correlation-
  /// grouping experiments need.
  std::size_t num_domains = 500;
  std::uint64_t seed = 1;
};

/// Deterministically generate a synthetic proxy trace.
[[nodiscard]] Trace generate_trace(const TraceGenConfig& config);

}  // namespace ndnp::trace
