// Streaming trace I/O for deployment-scale replays (docs/SCALE.md).
//
// The seed-era replayer materialized the whole trace in memory; at the
// million-user scale the Section VII evaluation targets, that is the
// binding constraint (a 10M-record text trace parses to gigabytes of
// ndn::Name records). This module replaces "load a Trace" with "open a
// TraceSource and pull fixed-size chunks": peak memory is bounded by the
// chunk size — independent of trace length — for every source kind:
//
//   TextTraceSource       the plain-text format below, parsed with
//                         malformed-line accounting (ParseStats) and a
//                         configurable fail-fast threshold
//   BinaryTraceSource     the chunked binary format below (fast re-runs)
//   VectorTraceSource     adapter over an in-memory Trace (tests, back
//                         compat)
//   SyntheticTraceSource  bounded-memory synthetic workload generation
//                         straight from a SyntheticWorkload — no disk at
//                         all, arbitrarily many users/objects/requests
//
// Plain-text trace format, one request per line:
//   <timestamp_s> <user_id> <name-uri> <size_bytes>
// Fields are separated by spaces or tabs; a line with more or fewer than
// four fields is malformed. Blank lines and lines starting with '#' are
// skipped (counted as comments). Writers print timestamps with %.6f, so
// microseconds survive the round trip.
//
// Binary trace format ("NDNPTRB1", little-endian):
//   header : magic[8] u32 version u32 flags u64 catalogue_size
//   chunk* : u32 record_count, then per record
//            f64 timestamp_s  u32 user_id  u32 size_bytes
//            u16 uri_len      uri bytes (canonical Name URI)
// The stream ends at EOF; a truncated chunk raises an error. In either
// format a record whose timestamp fails replayable_timestamp (trace.hpp) is
// malformed: a counted bad line in text, an error in binary. Convert a
// text trace once with `convert_trace` (or `trace_gen --convert`) and
// replays parse ~10x faster.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace ndnp::trace {

/// Accounting of one parsing pass over a trace input. Malformed lines are
/// skipped and counted — never silently dropped — and the parse fails fast
/// once their count exceeds the configured threshold.
struct ParseStats {
  /// Input lines seen (text sources; binary sources count records here).
  std::uint64_t lines = 0;
  /// Records successfully parsed.
  std::uint64_t records = 0;
  /// Blank and '#'-comment lines (legitimately skipped).
  std::uint64_t comments = 0;
  /// Lines that failed to parse and were skipped.
  std::uint64_t malformed = 0;
};

struct ParseOptions {
  /// Fail fast (throw TraceParseError) as soon as the malformed-line count
  /// *exceeds* this. 0 — the default — keeps the historical strictness:
  /// the first malformed line aborts the parse.
  std::uint64_t max_malformed = 0;
};

/// Raised when a trace input is unreadable, truncated, or accumulates more
/// malformed lines than ParseOptions allows. Carries the stats so callers
/// can report how far the parse got.
class TraceParseError : public std::runtime_error {
 public:
  TraceParseError(const std::string& what, ParseStats parse_stats)
      : std::runtime_error(what), stats(parse_stats) {}
  ParseStats stats;
};

// ---------------------------------------------------------------------------
// Sources

/// Pull-based record stream. One pass per open source; `rewind()` restarts
/// the pass. Implementations are single-threaded; concurrent shards each
/// open their own source. Sharded replay makes one pass per shard and hints
/// each source with select_shard, so the in-process sources (synthetic,
/// vector) build only that shard's records; the file sources still read
/// every record (docs/SCALE.md).
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Hint that the caller keeps only records with
  /// shard_of(user_id, shards) == shard. A source may then leave the other
  /// records out of its chunks; one that ignores the hint stays correct,
  /// since the caller filters anyway. stats() still counts every record of
  /// the trace, and rewind() keeps the selection. TextTraceSource and
  /// BinaryTraceSource ignore it: they must parse and validate every line
  /// anyway, so every shard's malformed count agrees. Sources that honour
  /// it throw std::invalid_argument unless shard < shards.
  virtual void select_shard(std::size_t /*shard*/, std::size_t /*shards*/) {}

  /// Replace the contents of `out` with up to `max_records` records, in
  /// trace order (a source may reuse the old records' storage); with a
  /// shard selected, up to `max_records` of that shard's records. Returns
  /// false — with `out` empty — when the stream is exhausted. Throws
  /// TraceParseError per ParseOptions.
  virtual bool next_chunk(std::vector<TraceRecord>& out, std::size_t max_records) = 0;

  /// Restart the pass from the first record (resets stats()).
  virtual void rewind() = 0;

  /// Accounting for the pass so far.
  [[nodiscard]] virtual const ParseStats& stats() const noexcept = 0;

  /// Catalogue size if the source knows it (generator/binary header), else 0.
  [[nodiscard]] virtual std::size_t catalogue_size() const noexcept { return 0; }
};

/// Plain-text file source (the trace.hpp line format).
class TextTraceSource final : public TraceSource {
 public:
  explicit TextTraceSource(std::string path, ParseOptions options = {});

  bool next_chunk(std::vector<TraceRecord>& out, std::size_t max_records) override;
  void rewind() override;
  [[nodiscard]] const ParseStats& stats() const noexcept override { return stats_; }

 private:
  std::string path_;
  ParseOptions options_;
  std::ifstream in_;
  ParseStats stats_;
  std::string line_;  // reused across calls
};

/// Chunked binary file source.
class BinaryTraceSource final : public TraceSource {
 public:
  explicit BinaryTraceSource(std::string path);

  bool next_chunk(std::vector<TraceRecord>& out, std::size_t max_records) override;
  void rewind() override;
  [[nodiscard]] const ParseStats& stats() const noexcept override { return stats_; }
  [[nodiscard]] std::size_t catalogue_size() const noexcept override {
    return catalogue_size_;
  }

 private:
  void read_header();

  std::string path_;
  std::ifstream in_;
  ParseStats stats_;
  std::size_t catalogue_size_ = 0;
  /// Records of the current on-disk chunk not yet handed out.
  std::uint32_t pending_in_chunk_ = 0;
};

/// Adapter over an in-memory Trace (not owned; must outlive the source).
class VectorTraceSource final : public TraceSource {
 public:
  explicit VectorTraceSource(const Trace& trace) : trace_(&trace) {}

  /// Skips copying the other shards' records.
  void select_shard(std::size_t shard, std::size_t shards) override;
  bool next_chunk(std::vector<TraceRecord>& out, std::size_t max_records) override;
  void rewind() override;
  [[nodiscard]] const ParseStats& stats() const noexcept override { return stats_; }
  [[nodiscard]] std::size_t catalogue_size() const noexcept override {
    return trace_->catalogue_size;
  }

 private:
  const Trace* trace_;
  std::size_t cursor_ = 0;
  ParseStats stats_;
  std::size_t shard_ = 0;
  std::size_t shards_ = 1;
};

/// Open `path` as a TraceSource, sniffing the binary magic ("NDNPTRB1")
/// to pick the format. Throws TraceParseError if the file cannot be read.
[[nodiscard]] std::unique_ptr<TraceSource> open_trace_source(const std::string& path,
                                                             ParseOptions options = {});

// ---------------------------------------------------------------------------
// Sinks

/// Push-based record sink.
class TraceWriter {
 public:
  virtual ~TraceWriter() = default;
  virtual void append(const TraceRecord& record) = 0;
  /// Flush buffered records; further appends are invalid. Idempotent.
  virtual void close() = 0;
};

/// Plain-text sink (the line format above).
class TextTraceWriter final : public TraceWriter {
 public:
  /// Write to the file at `path`; close() closes it.
  explicit TextTraceWriter(const std::string& path);
  /// Write to a caller-owned stream (e.g. std::cout); close() flushes it.
  explicit TextTraceWriter(std::ostream& out);
  ~TextTraceWriter() override;

  void append(const TraceRecord& record) override;
  void close() override;

 private:
  std::ofstream file_;
  std::ostream* out_;
};

/// Chunked binary file sink.
class BinaryTraceWriter final : public TraceWriter {
 public:
  /// `catalogue_size` lands in the header (0 = unknown); records are
  /// flushed to disk every `chunk_records`, which must be positive
  /// (std::invalid_argument otherwise).
  explicit BinaryTraceWriter(const std::string& path, std::size_t catalogue_size = 0,
                             std::size_t chunk_records = 64 * 1024);
  ~BinaryTraceWriter() override;

  void append(const TraceRecord& record) override;
  void close() override;

 private:
  void flush_chunk();

  std::size_t chunk_records_;  // declared first: checked before out_ opens the file
  std::ofstream out_;
  std::uint32_t buffered_ = 0;
  std::vector<char> buffer_;
};

/// Stream every record of `source` into `sink` (the text -> binary
/// converter, but any direction works), `chunk_records` at a time; throws
/// std::invalid_argument if that is 0. Returns the source's final stats.
ParseStats convert_trace(TraceSource& source, TraceWriter& sink,
                         std::size_t chunk_records = 64 * 1024);

// ---------------------------------------------------------------------------
// Synthetic workload at scale

/// The immutable tables of a synthetic workload (Zipf CDFs), built once
/// and shared — const and thread-safe, so concurrent shards can each open
/// their own streaming pass without replicating an O(catalogue) CDF per
/// shard.
///
/// The stream differs from generate_trace in one documented way: arrivals
/// come from an exponential inter-arrival process (rate num_requests /
/// duration_s) instead of globally sorted uniform order statistics, so
/// records can be emitted in O(1) memory. Both are homogeneous-Poisson
/// models of the same 24 h trace; timestamps are nondecreasing either way.
class SyntheticWorkload {
 public:
  explicit SyntheticWorkload(const TraceGenConfig& config);

  [[nodiscard]] const TraceGenConfig& config() const noexcept { return config_; }

  /// Open a fresh deterministic pass (same config + seed => same records).
  [[nodiscard]] std::unique_ptr<TraceSource> open() const;

  /// Stable object -> domain assignment, identical for every pass: a
  /// Zipf(0.9) draw over domains seeded per object.
  [[nodiscard]] std::uint32_t domain_of(std::size_t object) const noexcept;

 private:
  friend class SyntheticTraceSource;

  TraceGenConfig config_;
  util::ZipfSampler object_popularity_;
  util::ZipfSampler user_activity_;
  util::ZipfSampler domain_popularity_;
};

/// One streaming pass over a SyntheticWorkload (not owned).
class SyntheticTraceSource final : public TraceSource {
 public:
  explicit SyntheticTraceSource(const SyntheticWorkload& workload);

  /// Other shards' records still draw their arrival gap, user and object
  /// uniform, so every kept record is bit-identical to the unhinted pass,
  /// but their object rank, domain and name are never built.
  void select_shard(std::size_t shard, std::size_t shards) override;
  bool next_chunk(std::vector<TraceRecord>& out, std::size_t max_records) override;
  void rewind() override;
  [[nodiscard]] const ParseStats& stats() const noexcept override { return stats_; }
  [[nodiscard]] std::size_t catalogue_size() const noexcept override {
    return workload_->config().num_objects;
  }

 private:
  const SyntheticWorkload* workload_;
  util::Rng rng_;
  ParseStats stats_;
  std::uint64_t emitted_ = 0;
  double clock_s_ = 0.0;
  std::size_t shard_ = 0;
  std::size_t shards_ = 1;
};

// ---------------------------------------------------------------------------
// Sharding

/// Stable shard assignment for a user id: a SplitMix64 hash reduced mod
/// num_shards. Pure function of (user_id, num_shards) — independent of
/// shard execution order, thread count, and trace position — so sharded
/// replays are deterministic by construction (docs/SCALE.md).
[[nodiscard]] inline std::size_t shard_of(std::uint32_t user_id,
                                          std::size_t num_shards) noexcept {
  util::SplitMix64 mix(0x9e3779b97f4a7c15ULL ^ user_id);
  return static_cast<std::size_t>(mix.next() % num_shards);
}

}  // namespace ndnp::trace
