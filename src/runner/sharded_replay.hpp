// Sharded trace replay: the single-router Section VII evaluation scaled to
// million-user traces by partitioning users across independent edge-router
// shards.
//
// Every user is pinned to one shard by a stable hash of its user id
// (trace::shard_of — independent of shard execution order and of how many
// worker threads run). Each shard owns a full ReplaySession (engine, cache,
// RNG streams) seeded with run_seed(master_seed, shard_index), streams the
// trace through its own TraceSource and feeds only its users' records, so
// peak memory is one chunk buffer + cache state per shard regardless of
// trace length. Each shard hints its source with select_shard: a synthetic
// or in-memory source then builds only that shard's records, while a file
// source still reads every record. Shard snapshots are merged in
// shard-index order, making the merged output byte-identical for any
// --jobs value (the same determinism-by-construction argument as
// runner::run_sweep; pinned by tests/test_sharded_replay.cpp).
//
// All shards share one private_class_seed, so they agree on which content
// is private even though their engine/delay RNG streams differ. Sharding
// changes cache dynamics (S smaller independent caches instead of one), so
// sharded results match unsharded replay statistically, not exactly — the
// chi-square property test in tests/test_sharded_replay.cpp locks the
// distributional bound. See docs/SCALE.md.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "trace/replayer.hpp"
#include "trace/stream.hpp"
#include "util/metrics.hpp"

namespace ndnp::runner {

/// Opens a fresh TraceSource over the same records. Each shard calls it
/// once (S sources live concurrently) and then calls select_shard(i, S) on
/// the result; it must be callable from any worker thread. A
/// SyntheticWorkload's or VectorTraceSource's pass then skips the other
/// shards' records; a file source re-reads the whole trace per shard, which
/// the chunked binary format makes cheap.
using TraceSourceFactory = std::function<std::unique_ptr<trace::TraceSource>()>;

struct ShardedReplayConfig {
  /// Independent edge-router shards users are hashed across.
  std::size_t shards = 8;
  /// Worker threads (0 = hardware concurrency, 1 = inline). Never affects
  /// results, only wall-clock.
  std::size_t jobs = 1;
  /// Records pulled from a shard's source per chunk (the memory bound).
  std::size_t chunk_records = 64 * 1024;
  /// Shard i replays with seed run_seed(master_seed, i).
  std::uint64_t master_seed = 1;
  /// Per-shard replay template. `seed` and `private_class_seed` are
  /// overwritten (per-shard stream / shared class seed). `policy_factory`
  /// is invoked once per shard, possibly concurrently: it must be thread-safe
  /// (the stateless make-a-policy lambdas used everywhere are).
  trace::ReplayConfig replay;
};

/// One shard's outcome, in shard-index order inside ShardedReplayResult.
struct ShardReplayResult {
  /// This shard's replay; `result.metrics` is its snapshot in merged_json.
  trace::ReplayResult result;
  /// Records this shard fed (its users only).
  std::uint64_t records = 0;
};

struct ShardedReplayResult {
  std::vector<ShardReplayResult> shards;
  /// Counters summed and histograms merged across shards in shard-index
  /// order; rate/mean gauges recomputed from the merged counters.
  util::MetricsSnapshot merged;
  /// Total records fed across shards (== records in the trace).
  std::uint64_t records = 0;
  /// Malformed input lines the trace format skipped. Every shard's source
  /// counts the whole trace (file sources ignore the shard hint and parse
  /// every line), so the per-shard counts agree; this is shard 0's.
  std::uint64_t malformed_records = 0;
  /// Wall-clock of the parallel phase; reported out of band, never part of
  /// the deterministic merge.
  double wall_seconds = 0.0;

  /// Canonical merged JSON: per-shard snapshots in shard-index order, then
  /// the merged snapshot. Byte-identical for any jobs count.
  [[nodiscard]] std::string merged_json() const;
};

/// Replay the trace behind `open_source` across `config.shards` independent
/// routers. Deterministic: byte-identical merged output for any jobs value.
[[nodiscard]] ShardedReplayResult replay_sharded(const TraceSourceFactory& open_source,
                                                 const ShardedReplayConfig& config);

/// Convenience overload for an in-memory trace (wraps VectorTraceSource;
/// `tr` must outlive the call).
[[nodiscard]] ShardedReplayResult replay_sharded(const trace::Trace& tr,
                                                 const ShardedReplayConfig& config);

}  // namespace ndnp::runner
