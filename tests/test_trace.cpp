#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/policies.hpp"
#include "trace/replayer.hpp"
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

namespace ndnp::trace {
namespace {

TEST(TraceGenLocality, TemporalLocalityRaisesRepeatRate) {
  TraceGenConfig base = small_config();
  base.num_requests = 30'000;
  const Trace plain = generate_trace(base);

  TraceGenConfig local = base;
  local.temporal_locality = 0.5;
  const Trace sticky = generate_trace(local);

  // Repeat rate: fraction of requests whose name appeared in the same
  // user's previous 32 requests.
  const auto repeat_rate = [](const Trace& trace) {
    std::map<std::uint32_t, std::vector<std::uint64_t>> recent;
    std::size_t repeats = 0;
    for (const TraceRecord& record : trace.records) {
      auto& window = recent[record.user_id];
      const std::uint64_t h = record.name.hash64();
      if (std::find(window.begin(), window.end(), h) != window.end()) ++repeats;
      window.push_back(h);
      if (window.size() > 32) window.erase(window.begin());
    }
    return static_cast<double>(repeats) / static_cast<double>(trace.size());
  };

  EXPECT_GT(repeat_rate(sticky), repeat_rate(plain) + 0.2);
}

TEST(TraceGenLocality, AffinityConcentratesUsersOnDomains) {
  TraceGenConfig base = small_config();
  base.num_requests = 30'000;
  base.user_affinity = 0.8;
  const Trace trace = generate_trace(base);

  // Top-domain share per user should be much higher than without affinity.
  const auto top_domain_share = [](const Trace& trace_in) {
    std::map<std::uint32_t, std::map<std::string, std::size_t>> counts;
    for (const TraceRecord& record : trace_in.records)
      ++counts[record.user_id][std::string(record.name.at(1))];
    double share_sum = 0.0;
    std::size_t users = 0;
    for (const auto& [user, domains] : counts) {
      std::size_t total = 0;
      std::size_t top = 0;
      for (const auto& [domain, count] : domains) {
        total += count;
        top = std::max(top, count);
      }
      if (total < 50) continue;  // skip low-activity users (noisy shares)
      share_sum += static_cast<double>(top) / static_cast<double>(total);
      ++users;
    }
    return users ? share_sum / static_cast<double>(users) : 0.0;
  };

  TraceGenConfig plain_cfg = small_config();
  plain_cfg.num_requests = 30'000;
  const Trace plain = generate_trace(plain_cfg);
  EXPECT_GT(top_domain_share(trace), top_domain_share(plain) + 0.3);
}

TEST(TraceGenLocality, DefaultsPreserveLegacyOutput) {
  // The locality knobs default to off; byte-identical output with the old
  // generator keeps every bench reproducible.
  TraceGenConfig config = small_config();
  const Trace a = generate_trace(config);
  config.temporal_locality = 0.0;
  config.user_affinity = 0.0;
  const Trace b = generate_trace(config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); i += 97) EXPECT_EQ(a.records[i].name, b.records[i].name);
}

TEST(TraceGenLocality, RejectsBadKnobs) {
  TraceGenConfig config = small_config();
  config.temporal_locality = 1.5;
  EXPECT_THROW((void)generate_trace(config), std::invalid_argument);
  config.temporal_locality = 0.5;
  config.locality_depth = 0;
  EXPECT_THROW((void)generate_trace(config), std::invalid_argument);
  config.locality_depth = 8;
  config.user_affinity = -0.1;
  EXPECT_THROW((void)generate_trace(config), std::invalid_argument);
}

TEST(TraceGenLocality, LocalityRaisesSmallCacheHitRates) {
  // Sanity link to the replayer: temporal locality should help a small
  // LRU cache disproportionately.
  TraceGenConfig config = small_config();
  config.num_requests = 20'000;
  const Trace plain = generate_trace(config);
  config.temporal_locality = 0.5;
  const Trace sticky = generate_trace(config);

  ReplayConfig replay_config;
  replay_config.cache_capacity = 100;
  replay_config.private_fraction = 0.0;
  replay_config.policy_factory = [] { return std::make_unique<core::NoPrivacyPolicy>(); };
  replay_config.seed = 3;
  EXPECT_GT(replay(sticky, replay_config).hit_rate_pct(),
            replay(plain, replay_config).hit_rate_pct() + 5.0);
}

}  // namespace
}  // namespace ndnp::trace
