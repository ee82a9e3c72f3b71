// Streaming trace I/O (trace/stream.hpp): round-trips through both on-disk
// formats, malformed-line accounting with the fail-fast threshold, the
// truncation/bit-flip robustness corpora of both formats, the text -> binary
// converter (and its zero-chunk guard), bounded-memory synthetic
// generation, the stable user -> shard hash and the sources' shard hint.
// See docs/SCALE.md.
#include "trace/stream.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace ndnp::trace {
namespace {

Trace small_trace() {
  TraceGenConfig config;
  config.num_users = 12;
  config.num_objects = 500;
  config.num_requests = 2'000;
  config.num_domains = 20;
  config.seed = 23;
  return generate_trace(config);
}

/// Per-test scratch file under the system temp dir; removed on scope exit
/// (tests run in parallel under ctest, so names embed the test name).
class ScratchFile {
 public:
  explicit ScratchFile(const std::string& tag)
      : path_((std::filesystem::temp_directory_path() / ("ndnp_stream_" + tag)).string()) {
    std::remove(path_.c_str());
  }
  ~ScratchFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// Drain a source through next_chunk with the given chunk size.
std::vector<TraceRecord> drain(TraceSource& source, std::size_t chunk_records) {
  std::vector<TraceRecord> all;
  std::vector<TraceRecord> chunk;
  while (source.next_chunk(chunk, chunk_records)) {
    EXPECT_LE(chunk.size(), chunk_records);
    all.insert(all.end(), chunk.begin(), chunk.end());
  }
  EXPECT_TRUE(chunk.empty());
  return all;
}

void expect_records_equal(const std::vector<TraceRecord>& actual,
                          const std::vector<TraceRecord>& expected, double ts_tolerance) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_NEAR(actual[i].timestamp_s, expected[i].timestamp_s, ts_tolerance);
    EXPECT_EQ(actual[i].user_id, expected[i].user_id);
    EXPECT_EQ(actual[i].name, expected[i].name);
    EXPECT_EQ(actual[i].size_bytes, expected[i].size_bytes);
  }
}

// --- Round trips ------------------------------------------------------------

TEST(TraceStream, TextRoundTripPreservesRecords) {
  const Trace tr = small_trace();
  ScratchFile file("text_roundtrip.trace");
  {
    TextTraceWriter writer(file.path());
    for (const TraceRecord& record : tr.records) writer.append(record);
    writer.close();
  }
  TextTraceSource source(file.path());
  // The text format prints timestamps with %.6f.
  expect_records_equal(drain(source, 37), tr.records, 1e-6);
  EXPECT_EQ(source.stats().records, tr.size());
  EXPECT_EQ(source.stats().malformed, 0u);
}

TEST(TraceStream, BinaryRoundTripIsExact) {
  const Trace tr = small_trace();
  ScratchFile file("binary_roundtrip.trace");
  {
    BinaryTraceWriter writer(file.path(), tr.catalogue_size, /*chunk_records=*/128);
    for (const TraceRecord& record : tr.records) writer.append(record);
    writer.close();
  }
  BinaryTraceSource source(file.path());
  EXPECT_EQ(source.catalogue_size(), tr.catalogue_size);
  const std::vector<TraceRecord> records = drain(source, 100);
  ASSERT_EQ(records.size(), tr.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    // Binary stores the raw f64: bit-exact, not approximately equal.
    EXPECT_EQ(records[i].timestamp_s, tr.records[i].timestamp_s);
    EXPECT_EQ(records[i].name, tr.records[i].name);
  }
}

TEST(TraceStream, RewindRestartsThePassAndResetsStats) {
  const Trace tr = small_trace();
  ScratchFile file("rewind.trace");
  {
    BinaryTraceWriter writer(file.path(), tr.catalogue_size);
    for (const TraceRecord& record : tr.records) writer.append(record);
    writer.close();
  }
  BinaryTraceSource source(file.path());
  const std::vector<TraceRecord> first = drain(source, 64);
  source.rewind();
  EXPECT_EQ(source.stats().records, 0u);
  const std::vector<TraceRecord> second = drain(source, 512);
  expect_records_equal(second, first, 0.0);
}

TEST(TraceStream, OpenTraceSourceSniffsTheFormat) {
  const Trace tr = small_trace();
  ScratchFile text("sniff.txt.trace");
  ScratchFile binary("sniff.bin.trace");
  {
    TextTraceWriter tw(text.path());
    BinaryTraceWriter bw(binary.path(), tr.catalogue_size);
    for (const TraceRecord& record : tr.records) {
      tw.append(record);
      bw.append(record);
    }
    tw.close();
    bw.close();
  }
  const auto from_text = open_trace_source(text.path());
  const auto from_binary = open_trace_source(binary.path());
  expect_records_equal(drain(*from_binary, 256), drain(*from_text, 256), 1e-6);
  EXPECT_THROW((void)open_trace_source("/nonexistent/ndnp.trace"), TraceParseError);
}

TEST(TraceStream, ConvertTraceStreamsTextToBinary) {
  const Trace tr = small_trace();
  ScratchFile text("convert_in.trace");
  ScratchFile binary("convert_out.trace");
  {
    TextTraceWriter writer(text.path());
    for (const TraceRecord& record : tr.records) writer.append(record);
    writer.close();
  }
  TextTraceSource source(text.path());
  BinaryTraceWriter sink(binary.path(), tr.catalogue_size);
  const ParseStats stats = convert_trace(source, sink, /*chunk_records=*/97);
  EXPECT_EQ(stats.records, tr.size());
  EXPECT_EQ(stats.malformed, 0u);

  BinaryTraceSource converted(binary.path());
  EXPECT_EQ(converted.catalogue_size(), tr.catalogue_size);
  expect_records_equal(drain(converted, 500), tr.records, 1e-6);
}

TEST(TraceStream, ZeroChunkSizesAreRejected) {
  // A zero chunk size used to end the conversion at once, as if the source
  // were exhausted, and leave a valid but empty trace behind.
  const Trace tr = small_trace();
  VectorTraceSource source(tr);
  ScratchFile converted("zero_chunk_convert.trace");
  {
    BinaryTraceWriter sink(converted.path());
    EXPECT_THROW((void)convert_trace(source, sink, 0), std::invalid_argument);
  }
  EXPECT_EQ(source.stats().records, 0u);

  // The writer refuses before it creates or truncates the file.
  ScratchFile unwritten("zero_chunk_writer.trace");
  EXPECT_THROW(BinaryTraceWriter(unwritten.path(), 0, 0), std::invalid_argument);
  EXPECT_FALSE(std::filesystem::exists(unwritten.path()));
}

// --- Malformed-line accounting ---------------------------------------------

constexpr const char* kMalformedCorpus =
    "# comment line\n"
    "0.5 3 /web/dom1/obj1 8192\n"
    "garbage\n"
    "\n"
    "1.5 not-a-user /web/dom1/obj2 8192\n"
    "2.5 4 /web/dom1/obj3 8192\n";

TEST(TraceStream, MalformedLinesAreCountedAndSkippedUnderTheThreshold) {
  ScratchFile file("malformed_tolerant.trace");
  std::ofstream(file.path()) << kMalformedCorpus;
  TextTraceSource source(file.path(), ParseOptions{.max_malformed = 2});
  const std::vector<TraceRecord> records = drain(source, 10);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].user_id, 3u);
  EXPECT_EQ(records[1].user_id, 4u);
  EXPECT_EQ(source.stats().lines, 6u);
  EXPECT_EQ(source.stats().comments, 2u);  // comment + blank
  EXPECT_EQ(source.stats().malformed, 2u);
  EXPECT_EQ(source.stats().records, 2u);
}

TEST(TraceStream, MalformedLinesPastTheThresholdFailFast) {
  ScratchFile file("malformed_failfast.trace");
  std::ofstream(file.path()) << kMalformedCorpus;
  TextTraceSource source(file.path(), ParseOptions{.max_malformed = 1});
  std::vector<TraceRecord> chunk;
  try {
    while (source.next_chunk(chunk, 10)) {
    }
    FAIL() << "expected TraceParseError once malformed count exceeded 1";
  } catch (const TraceParseError& error) {
    // The error carries the stats as of the failure point.
    EXPECT_EQ(error.stats.malformed, 2u);
    EXPECT_GE(error.stats.lines, 5u);
  }
}

// --- NDNPTRB1 robustness corpus ---------------------------------------------
// The binary reader's counterpart of the TLV corpus: every truncation and
// seeded bit flips of a small file. Each damaged file must either read
// cleanly into replayable records or raise TraceParseError — never crash,
// and never hand replay a timestamp it cannot cast to SimTime.

void write_binary(const std::string& path, const std::vector<TraceRecord>& records) {
  BinaryTraceWriter writer(path, /*catalogue_size=*/500, /*chunk_records=*/4);
  for (const TraceRecord& record : records) writer.append(record);
  writer.close();
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

struct BinaryReadOutcome {
  std::vector<TraceRecord> records;  // handed out before any error
  bool threw = false;
};

/// Read `bytes` as a binary trace file one record at a time.
BinaryReadOutcome read_binary_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  BinaryReadOutcome outcome;
  try {
    BinaryTraceSource source(path);
    std::vector<TraceRecord> chunk;
    while (source.next_chunk(chunk, 1)) outcome.records.push_back(chunk.front());
  } catch (const TraceParseError&) {
    outcome.threw = true;
  }
  return outcome;
}

std::vector<TraceRecord> prefix_of(const std::vector<TraceRecord>& records, std::size_t n) {
  return {records.begin(), records.begin() + static_cast<std::ptrdiff_t>(n)};
}

std::vector<TraceRecord> corpus_records() {
  return prefix_of(small_trace().records, 22);  // 5 full chunks + 2
}

TEST(TraceStream, TruncatedBinaryTraceRaisesParseError) {
  const std::vector<TraceRecord> records = corpus_records();
  ScratchFile file("truncated.trace");
  // Clean EOFs: the file lengths at which a chunk (or the header) ends,
  // found by writing each whole-chunk prefix of the records.
  std::map<std::size_t, std::size_t> boundary_records;
  for (std::size_t n = 0; n <= records.size(); n += 4) {
    write_binary(file.path(), prefix_of(records, n));
    boundary_records[std::filesystem::file_size(file.path())] = n;
  }
  write_binary(file.path(), records);
  const std::string full = read_bytes(file.path());
  boundary_records[full.size()] = records.size();

  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    SCOPED_TRACE("cut at " + std::to_string(cut) + " of " + std::to_string(full.size()));
    const BinaryReadOutcome outcome = read_binary_bytes(file.path(), full.substr(0, cut));
    const auto boundary = boundary_records.find(cut);
    if (boundary == boundary_records.end()) {
      EXPECT_TRUE(outcome.threw);
      ASSERT_LE(outcome.records.size(), records.size());
    } else {
      EXPECT_FALSE(outcome.threw);
      ASSERT_EQ(outcome.records.size(), boundary->second);
    }
    expect_records_equal(outcome.records, prefix_of(records, outcome.records.size()), 0.0);
  }
}

TEST(TraceStream, BinaryTraceBitFlipsReadValidRecordsOrThrow) {
  ScratchFile file("bitflip.trace");
  write_binary(file.path(), corpus_records());
  const std::string pristine = read_bytes(file.path());
  util::Rng rng(0x7b1f11b5ULL);  // fixed seed: the corpus is deterministic
  for (int i = 0; i < 2'000; ++i) {
    std::string mutated = pristine;
    const std::size_t byte = rng.uniform_u64(mutated.size());
    const int bit = static_cast<int>(rng.uniform_u64(8));
    mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
    SCOPED_TRACE("flip byte " + std::to_string(byte) + " bit " + std::to_string(bit));
    const BinaryReadOutcome outcome = read_binary_bytes(file.path(), mutated);
    for (const TraceRecord& record : outcome.records) {
      const double t = record.timestamp_s;
      ASSERT_TRUE(std::isfinite(t) && t >= 0.0 && t * 1e9 < 0x1p63)
          << "unreplayable timestamp " << t;
      ASSERT_EQ(ndn::Name(record.name.to_uri()), record.name);
    }
  }
}

TEST(TraceStream, BinaryReaderRejectsUnreplayableTimestamps) {
  ScratchFile file("bad_timestamp.trace");
  for (const double timestamp : {std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity(), 1e300, -1.0}) {
    SCOPED_TRACE(timestamp);
    std::vector<TraceRecord> records = corpus_records();
    records[5].timestamp_s = timestamp;
    write_binary(file.path(), records);
    BinaryTraceSource source(file.path());
    std::vector<TraceRecord> chunk;
    EXPECT_THROW(
        while (source.next_chunk(chunk, 1'000)) {}, TraceParseError);
  }
}

// --- Text trace robustness corpus -------------------------------------------
// The same damage applied to the plain-text format, read at the strict
// threshold and at a tolerant one. A damaged line must either parse into a
// replayable record or count as malformed — never crash, never pass an
// unreplayable timestamp, and never lose a line from the accounting.

struct TextReadOutcome {
  std::vector<TraceRecord> records;  // handed out before any error
  ParseStats stats;                  // at the end of the pass, or at the error
  bool threw = false;
};

/// Read `bytes` as a text trace file one record at a time.
TextReadOutcome read_text_bytes(const std::string& path, const std::string& bytes,
                                std::uint64_t max_malformed) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  TextReadOutcome outcome;
  try {
    TextTraceSource source(path, ParseOptions{.max_malformed = max_malformed});
    std::vector<TraceRecord> chunk;
    while (source.next_chunk(chunk, 1)) outcome.records.push_back(chunk.front());
    outcome.stats = source.stats();
  } catch (const TraceParseError& error) {
    outcome.threw = true;
    outcome.stats = error.stats;
  }
  return outcome;
}

/// The corpus records as text bytes, and as read back from those bytes
/// (the text format rounds timestamps to microseconds).
std::pair<std::string, std::vector<TraceRecord>> text_corpus(const std::string& path) {
  std::ostringstream text;
  TextTraceWriter writer(text);
  for (const TraceRecord& record : corpus_records()) writer.append(record);
  writer.close();
  const TextReadOutcome pristine = read_text_bytes(path, text.str(), 0);
  EXPECT_FALSE(pristine.threw);
  EXPECT_EQ(pristine.records.size(), corpus_records().size());
  return {text.str(), pristine.records};
}

constexpr std::uint64_t kTolerant = 1'000;

TEST(TraceStream, TruncatedTextTraceReadsARecordPrefixOrThrows) {
  ScratchFile file("truncated_text.trace");
  const auto [full, records] = text_corpus(file.path());
  for (const std::uint64_t max_malformed : {std::uint64_t{0}, kTolerant}) {
    for (std::size_t cut = 0; cut <= full.size(); ++cut) {
      SCOPED_TRACE("max_malformed " + std::to_string(max_malformed) + ", cut at " +
                   std::to_string(cut) + " of " + std::to_string(full.size()));
      const TextReadOutcome outcome =
          read_text_bytes(file.path(), full.substr(0, cut), max_malformed);
      if (!outcome.threw) {
        EXPECT_LE(outcome.stats.malformed, 1u);  // the cut line only
      }
      ASSERT_LE(outcome.records.size(), records.size());
      // Only the cut line can differ from the original (e.g. a shortened
      // size field still parses).
      const std::size_t whole = outcome.records.empty() ? 0 : outcome.records.size() - 1;
      expect_records_equal(prefix_of(outcome.records, whole), prefix_of(records, whole), 0.0);
    }
  }
}

TEST(TraceStream, TextTraceByteFlipsReadValidRecordsOrThrow) {
  ScratchFile file("bitflip_text.trace");
  const std::string pristine = text_corpus(file.path()).first;
  util::Rng rng(0x7e47f11bULL);  // fixed seed: the corpus is deterministic
  for (int i = 0; i < 2'000; ++i) {
    std::string mutated = pristine;
    const std::size_t byte = rng.uniform_u64(mutated.size());
    const int bit = static_cast<int>(rng.uniform_u64(8));
    mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
    for (const std::uint64_t max_malformed : {std::uint64_t{0}, kTolerant}) {
      SCOPED_TRACE("flip byte " + std::to_string(byte) + " bit " + std::to_string(bit) +
                   ", max_malformed " + std::to_string(max_malformed));
      const TextReadOutcome outcome = read_text_bytes(file.path(), mutated, max_malformed);
      for (const TraceRecord& record : outcome.records) {
        ASSERT_TRUE(replayable_timestamp(record.timestamp_s))
            << "unreplayable timestamp " << record.timestamp_s;
        ASSERT_EQ(ndn::Name(record.name.to_uri()), record.name);
      }
      if (!outcome.threw) {
        EXPECT_EQ(outcome.stats.records + outcome.stats.malformed + outcome.stats.comments,
                  outcome.stats.lines);
      }
    }
  }
}

// --- Synthetic workload at scale -------------------------------------------

TraceGenConfig synthetic_config() {
  TraceGenConfig config;
  config.num_users = 50;
  config.num_objects = 10'000;
  config.num_requests = 5'000;
  config.num_domains = 25;
  config.seed = 2013;
  return config;
}

TEST(TraceStream, SyntheticSourceIsDeterministicAcrossPassesAndChunkSizes) {
  const SyntheticWorkload workload(synthetic_config());
  const auto a = workload.open();
  const auto b = workload.open();
  const std::vector<TraceRecord> pass_a = drain(*a, 113);
  const std::vector<TraceRecord> pass_b = drain(*b, 4'096);
  // Chunking must never leak into the records: same config + seed => same
  // stream, bit-exact, for any chunk size.
  expect_records_equal(pass_b, pass_a, 0.0);
  ASSERT_EQ(pass_a.size(), synthetic_config().num_requests);
  EXPECT_EQ(a->catalogue_size(), synthetic_config().num_objects);

  double last_ts = 0.0;
  for (const TraceRecord& record : pass_a) {
    EXPECT_GE(record.timestamp_s, last_ts);
    last_ts = record.timestamp_s;
    EXPECT_LT(record.user_id, synthetic_config().num_users);
  }

  a->rewind();
  expect_records_equal(drain(*a, 113), pass_a, 0.0);
}

TEST(TraceStream, SyntheticDomainAssignmentIsStable) {
  const SyntheticWorkload workload(synthetic_config());
  for (const std::size_t object : {std::size_t{0}, std::size_t{17}, std::size_t{9'999}}) {
    EXPECT_EQ(workload.domain_of(object), workload.domain_of(object));
    EXPECT_LT(workload.domain_of(object), synthetic_config().num_domains);
  }
}

// --- Vector source + sharding hash -----------------------------------------

TEST(TraceStream, VectorSourceAdaptsAnInMemoryTrace) {
  const Trace tr = small_trace();
  VectorTraceSource source(tr);
  EXPECT_EQ(source.catalogue_size(), tr.catalogue_size);
  expect_records_equal(drain(source, 333), tr.records, 0.0);
  source.rewind();
  EXPECT_EQ(drain(source, 1).size(), tr.size());
}

void expect_stats_equal(const ParseStats& actual, const ParseStats& expected) {
  EXPECT_EQ(actual.lines, expected.lines);
  EXPECT_EQ(actual.records, expected.records);
  EXPECT_EQ(actual.comments, expected.comments);
  EXPECT_EQ(actual.malformed, expected.malformed);
}

TEST(TraceStream, ShardHintYieldsExactlyTheShardsRecords) {
  const SyntheticWorkload workload(synthetic_config());
  const Trace tr = small_trace();
  const std::vector<std::pair<std::string, std::function<std::unique_ptr<TraceSource>()>>>
      kinds = {{"synthetic", [&] { return workload.open(); }},
               {"vector", [&] { return std::make_unique<VectorTraceSource>(tr); }}};
  for (const auto& [kind, open] : kinds) {
    const auto unhinted = open();
    const std::vector<TraceRecord> full = drain(*unhinted, 4'096);
    const ParseStats full_stats = unhinted->stats();
    ASSERT_FALSE(full.empty());
    for (const std::size_t shards : {1u, 2u, 3u, 8u}) {
      for (const std::size_t chunk : {1u, 7u, 4'096u}) {
        SCOPED_TRACE(kind + " shards=" + std::to_string(shards) +
                     " chunk=" + std::to_string(chunk));
        std::size_t kept = 0;
        for (std::size_t shard = 0; shard < shards; ++shard) {
          std::vector<TraceRecord> expected;
          for (const TraceRecord& record : full)
            if (shard_of(record.user_id, shards) == shard) expected.push_back(record);

          const auto source = open();
          source->select_shard(shard, shards);
          const std::vector<TraceRecord> hinted = drain(*source, chunk);
          expect_records_equal(hinted, expected, 0.0);
          expect_stats_equal(source->stats(), full_stats);
          // rewind() restarts the same selected pass.
          source->rewind();
          expect_records_equal(drain(*source, chunk), expected, 0.0);
          expect_stats_equal(source->stats(), full_stats);
          kept += hinted.size();
        }
        // Each hinted pass is exactly its shard's records, so together the
        // passes partition the trace.
        EXPECT_EQ(kept, full.size());
      }
    }
    const auto source = open();
    EXPECT_THROW(source->select_shard(0, 0), std::invalid_argument);
    EXPECT_THROW(source->select_shard(3, 3), std::invalid_argument);
    EXPECT_THROW(source->select_shard(9, 8), std::invalid_argument);
  }
}

TEST(TraceStream, ShardOfIsStableInRangeAndCoversShards) {
  constexpr std::size_t kShards = 8;
  std::set<std::size_t> seen;
  for (std::uint32_t user = 0; user < 10'000; ++user) {
    const std::size_t shard = shard_of(user, kShards);
    ASSERT_LT(shard, kShards);
    // Pure function of (user, shards): repeated calls agree.
    ASSERT_EQ(shard, shard_of(user, kShards));
    seen.insert(shard);
  }
  // A hash that funneled users into few shards would serialize the replay.
  EXPECT_EQ(seen.size(), kShards);
  EXPECT_EQ(shard_of(42, 1), 0u);
}

}  // namespace
}  // namespace ndnp::trace
