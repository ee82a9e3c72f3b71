#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "trace/stream.hpp"

namespace ndnp::trace {
namespace {

TraceGenConfig small_config() {
  TraceGenConfig config;
  config.num_users = 20;
  config.num_objects = 1'000;
  config.num_requests = 20'000;
  config.num_domains = 30;
  config.seed = 42;
  return config;
}

TEST(TraceGen, ProducesRequestedCount) {
  const Trace trace = generate_trace(small_config());
  EXPECT_EQ(trace.size(), 20'000u);
  EXPECT_EQ(trace.catalogue_size, 1'000u);
}

TEST(TraceGen, DeterministicForSameSeed) {
  const Trace a = generate_trace(small_config());
  const Trace b = generate_trace(small_config());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(a.records[i].name, b.records[i].name);
    EXPECT_EQ(a.records[i].user_id, b.records[i].user_id);
    EXPECT_DOUBLE_EQ(a.records[i].timestamp_s, b.records[i].timestamp_s);
  }
}

TEST(TraceGen, DifferentSeedsDiffer) {
  TraceGenConfig config = small_config();
  const Trace a = generate_trace(config);
  config.seed = 43;
  const Trace b = generate_trace(config);
  int same = 0;
  for (std::size_t i = 0; i < 100; ++i)
    if (a.records[i].name == b.records[i].name) ++same;
  EXPECT_LT(same, 60);  // popular objects will coincide sometimes
}

TEST(TraceGen, TimestampsSortedWithinDuration) {
  const Trace trace = generate_trace(small_config());
  double prev = 0.0;
  for (const TraceRecord& record : trace.records) {
    EXPECT_GE(record.timestamp_s, prev);
    EXPECT_LE(record.timestamp_s, 86'400.0);
    prev = record.timestamp_s;
  }
}

TEST(TraceGen, UserIdsWithinRange) {
  const Trace trace = generate_trace(small_config());
  for (const TraceRecord& record : trace.records) EXPECT_LT(record.user_id, 20u);
}

TEST(TraceGen, PopularityIsZipfSkewed) {
  const Trace trace = generate_trace(small_config());
  std::map<ndn::Name, std::size_t> counts;
  for (const TraceRecord& record : trace.records) ++counts[record.name];
  std::vector<std::size_t> sorted;
  sorted.reserve(counts.size());
  for (const auto& [name, count] : counts) sorted.push_back(count);
  std::sort(sorted.rbegin(), sorted.rend());
  // Top-10 objects should take a disproportionate share (Zipf 0.8 over
  // 1000 objects: ~10 % of all requests).
  std::size_t top10 = 0;
  for (std::size_t i = 0; i < 10 && i < sorted.size(); ++i) top10 += sorted[i];
  EXPECT_GT(static_cast<double>(top10) / static_cast<double>(trace.size()), 0.05);
  // And far more than a uniform share (10/1000 = 1 %).
  EXPECT_GT(top10 * 100, trace.size() / 10);
}

TEST(TraceGen, NamesFollowDomainObjectScheme) {
  const Trace trace = generate_trace(small_config());
  for (std::size_t i = 0; i < 50; ++i) {
    const ndn::Name& name = trace.records[i].name;
    ASSERT_EQ(name.size(), 3u);
    EXPECT_EQ(name.at(0), "web");
    EXPECT_EQ(name.at(1).substr(0, 3), "dom");
    EXPECT_EQ(name.at(2).substr(0, 3), "obj");
  }
}

TEST(TraceGen, SameObjectAlwaysSameDomain) {
  const Trace trace = generate_trace(small_config());
  std::map<std::string, std::string> object_domain;
  for (const TraceRecord& record : trace.records) {
    const std::string obj(record.name.at(2));
    const std::string dom(record.name.at(1));
    const auto [it, inserted] = object_domain.emplace(obj, dom);
    EXPECT_EQ(it->second, dom) << "object moved domains";
  }
}

TEST(TraceGen, DistinctNamesBoundedByCatalogue) {
  const Trace trace = generate_trace(small_config());
  EXPECT_LE(trace.distinct_names(), 1'000u);
  EXPECT_GT(trace.distinct_names(), 300u);  // most of the catalogue gets touched
}

TEST(TraceGen, RejectsBadConfig) {
  TraceGenConfig config = small_config();
  config.num_users = 0;
  EXPECT_THROW((void)generate_trace(config), std::invalid_argument);
}

/// Write `text` to a per-test scratch file and read it back through
/// TextTraceSource at `max_malformed`, filling `stats` when given (tests
/// run in parallel under ctest, so the file name embeds the test name).
std::vector<TraceRecord> read_text(const std::string& text, std::uint64_t max_malformed = 0,
                                   ParseStats* stats = nullptr) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("ndnp_traceio_" +
        std::string(::testing::UnitTest::GetInstance()->current_test_info()->name())))
          .string();
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
  const struct Remove {
    const std::string& path;
    ~Remove() { std::filesystem::remove(path); }
  } remove{path};
  TextTraceSource source(path, ParseOptions{.max_malformed = max_malformed});
  std::vector<TraceRecord> records;
  std::vector<TraceRecord> chunk;
  while (source.next_chunk(chunk, 64))
    records.insert(records.end(), chunk.begin(), chunk.end());
  if (stats != nullptr) *stats = source.stats();
  return records;
}

TEST(TraceIo, WriteParseRoundTrip) {
  TraceGenConfig config = small_config();
  config.num_requests = 500;
  const Trace original = generate_trace(config);
  std::ostringstream buffer;
  TextTraceWriter writer(buffer);
  for (const TraceRecord& record : original.records) writer.append(record);
  writer.close();
  const std::vector<TraceRecord> parsed = read_text(buffer.str());
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(parsed[i].name, original.records[i].name);
    EXPECT_EQ(parsed[i].user_id, original.records[i].user_id);
    EXPECT_EQ(parsed[i].size_bytes, original.records[i].size_bytes);
    EXPECT_NEAR(parsed[i].timestamp_s, original.records[i].timestamp_s, 1e-6);
  }
}

TEST(TraceIo, ParserSkipsCommentsAndBlankLines) {
  const std::vector<TraceRecord> records =
      read_text("# proxy trace\n\n1.5 3 /web/dom1/obj2 8192\n");
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].user_id, 3u);
  EXPECT_EQ(records[0].name.to_uri(), "/web/dom1/obj2");
}

TEST(TraceIo, ParserRejectsMalformedLines) {
  // Missing size field.
  EXPECT_THROW((void)read_text("1.5 3 /web/x\n"), TraceParseError);
  // A non-URI name is a malformed line too (counted, not a distinct error
  // type): real proxy logs mix both corruption kinds and the threshold in
  // ParseOptions should govern either uniformly.
  EXPECT_THROW((void)read_text("1.5 3 no-slash 100\n"), TraceParseError);
  // from_chars accepts these, but replay could not cast them to SimTime.
  for (const char* timestamp : {"nan", "inf", "1e300", "-0.5"}) {
    SCOPED_TRACE(timestamp);
    EXPECT_THROW((void)read_text(std::string(timestamp) + " 3 /web/x 100\n"), TraceParseError);
  }
  // Two records joined by a lost newline: extra fields are not dropped.
  EXPECT_THROW((void)read_text("1.5 2 /web/dom0/obj1 100 2.5 3 /web/dom0/obj2 100\n"),
               TraceParseError);
}

TEST(TraceIo, ParserToleratesMalformedLinesUpToThreshold) {
  const std::string corpus =
      "0.5 1 /web/dom0/obj0 100\n"
      "garbage\n"
      "1.5 2 /web/dom0/obj1 100\n"
      "2.5 x /web/dom0/obj2 100\n"
      "3.5 3 /web/dom0/obj3 100\n";
  ParseStats stats;
  const std::vector<TraceRecord> records = read_text(corpus, /*max_malformed=*/2, &stats);
  EXPECT_EQ(records.size(), 3u);
  EXPECT_EQ(stats.records, 3u);
  EXPECT_EQ(stats.malformed, 2u);
  EXPECT_EQ(stats.lines, 5u);

  EXPECT_THROW((void)read_text(corpus, /*max_malformed=*/1), TraceParseError);
}

}  // namespace
}  // namespace ndnp::trace
