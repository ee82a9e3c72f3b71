#include "runner/sharded_replay.hpp"

#include <chrono>
#include <stdexcept>

#include "runner/runner.hpp"

namespace ndnp::runner {

ShardedReplayResult replay_sharded(const TraceSourceFactory& open_source,
                                   const ShardedReplayConfig& config) {
  if (config.shards == 0)
    throw std::invalid_argument("replay_sharded: need at least one shard");
  if (config.chunk_records == 0)
    throw std::invalid_argument("replay_sharded: chunk_records must be positive");
  if (!open_source) throw std::invalid_argument("replay_sharded: source factory is required");

  // One content-class seed for every shard: drawn from the master stream
  // just past the shard indices, so it is deterministic and never collides
  // with a shard's replay seed.
  const std::uint64_t class_seed = config.replay.private_class_seed != 0
                                       ? config.replay.private_class_seed
                                       : run_seed(config.master_seed, config.shards);

  ShardedReplayResult out;
  out.shards.resize(config.shards);
  std::vector<std::uint64_t> malformed(config.shards, 0);

  // NDNP-LINT-ALLOW(determinism-wallclock): wall_seconds reporting gauge, excluded from merged_json
  const auto start = std::chrono::steady_clock::now();
  detail::parallel_for(config.shards, resolve_jobs(config.jobs), [&](std::size_t i) {
    const std::unique_ptr<trace::TraceSource> source = open_source();
    source->select_shard(i, config.shards);
    trace::ReplayConfig shard_cfg = config.replay;
    shard_cfg.seed = run_seed(config.master_seed, i);
    shard_cfg.private_class_seed = class_seed;

    trace::ReplaySession session(shard_cfg);
    std::vector<trace::TraceRecord> chunk;
    chunk.reserve(config.chunk_records);
    while (source->next_chunk(chunk, config.chunk_records)) {
      // A source may ignore the hint, so the filter stays.
      for (const trace::TraceRecord& record : chunk)
        if (trace::shard_of(record.user_id, config.shards) == i) session.feed(record);
    }

    ShardReplayResult& shard = out.shards[i];
    shard.records = session.fed();
    shard.result = session.finish();
    malformed[i] = source->stats().malformed;
  });
  out.wall_seconds =
      // NDNP-LINT-ALLOW(determinism-wallclock): wall_seconds reporting gauge, excluded from merged_json
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  // Merge in shard-index order; recompute rates over the merged counters
  // (merge_snapshots sums gauges, which is wrong for rates and means).
  std::vector<util::MetricsSnapshot> parts;
  parts.reserve(out.shards.size());
  double response_ms_weighted = 0.0;
  for (const ShardReplayResult& shard : out.shards) {
    parts.push_back(shard.result.metrics);
    out.records += shard.records;
    response_ms_weighted +=
        shard.result.mean_response_ms * static_cast<double>(shard.records);
  }
  out.merged = util::merge_snapshots(parts);
  trace::set_rate_gauges(out.merged, out.records == 0 ? 0.0
                                                     : response_ms_weighted /
                                                           static_cast<double>(out.records));
  // Every shard's stats cover the whole trace (hinted or not), so the
  // counts agree — report one, not the sum.
  out.malformed_records = malformed.empty() ? 0 : malformed.front();
  out.merged.counters["replay.malformed_records"] = out.malformed_records;
  return out;
}

ShardedReplayResult replay_sharded(const trace::Trace& tr, const ShardedReplayConfig& config) {
  return replay_sharded([&tr] { return std::make_unique<trace::VectorTraceSource>(tr); },
                        config);
}

std::string ShardedReplayResult::merged_json() const {
  std::string json = "{\"shards\":[";
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (i) json += ',';
    json += shards[i].result.metrics.to_json();
  }
  json += "],\"merged\":" + merged.to_json();
  json += ",\"records\":" + std::to_string(records);
  json += ",\"malformed_records\":" + std::to_string(malformed_records);
  json += "}";
  return json;
}

}  // namespace ndnp::runner
