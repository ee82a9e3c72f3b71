#include <gtest/gtest.h>

#include "util/logging.hpp"
#include "util/open_hash.hpp"
#include "util/run_path.hpp"
#include "util/sim_time.hpp"

namespace ndnp::util {
namespace {

TEST(SimTime, UnitConstructors) {
  EXPECT_EQ(nanos(5), 5);
  EXPECT_EQ(micros(3), 3'000);
  EXPECT_EQ(millis(2), 2'000'000);
  EXPECT_EQ(seconds(1), 1'000'000'000);
}

TEST(SimTime, FractionalMillis) {
  EXPECT_EQ(millis_f(0.05), 50'000);
  EXPECT_EQ(millis_f(1.5), 1'500'000);
  EXPECT_EQ(millis_f(0.0), 0);
}

TEST(SimTime, Conversions) {
  EXPECT_DOUBLE_EQ(to_millis(millis(7)), 7.0);
  EXPECT_DOUBLE_EQ(to_micros(micros(9)), 9.0);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(2)), 2.0);
  EXPECT_DOUBLE_EQ(to_millis(micros(500)), 0.5);
}

TEST(SimTime, RoundTripIsExactForWholeUnits) {
  for (const std::int64_t ms : {0LL, 1LL, 42LL, 86'400'000LL}) {
    EXPECT_EQ(static_cast<std::int64_t>(to_millis(millis(ms))), ms);
  }
}

TEST(SimTime, Sentinels) {
  EXPECT_EQ(kTimeZero, 0);
  EXPECT_LT(kTimeUnset, kTimeZero);
}

TEST(Logging, LevelIsProcessGlobalAndRestorable) {
  const LogLevel original = log_level();
  set_log_level(LogLevel::kTrace);
  EXPECT_EQ(log_level(), LogLevel::kTrace);
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  set_log_level(original);
}

TEST(Logging, SuppressedLevelsDoNotCrash) {
  const LogLevel original = log_level();
  set_log_level(LogLevel::kError);
  // These go nowhere; the test is that formatting with args is safe.
  log(LogLevel::kDebug, "dropped %d %s", 42, "message");
  log(LogLevel::kTrace, "also dropped");
  set_log_level(original);
}

TEST(Logging, EnabledLevelFormats) {
  const LogLevel original = log_level();
  set_log_level(LogLevel::kTrace);
  // Emitted to stderr; just exercise every level's name path.
  log(LogLevel::kError, "e");
  log(LogLevel::kWarn, "w");
  log(LogLevel::kInfo, "i %d", 1);
  log(LogLevel::kDebug, "d");
  log(LogLevel::kTrace, "t");
  set_log_level(original);
}

TEST(RunPath, SplicesTheRunTagBeforeTheFileNamesExtension) {
  EXPECT_EQ(run_path("a.jsonl", 3, 4), "a.run3.jsonl");
  EXPECT_EQ(run_path("out/t.prom", 0, 2), "out/t.run0.prom");
  // A dot in a directory name is not an extension.
  EXPECT_EQ(run_path("dir.d/trace", 1, 2), "dir.d/trace.run1");
  EXPECT_EQ(run_path("./trace", 0, 2), "./trace.run0");
  EXPECT_EQ(run_path("./metrics.json", 1, 2), "./metrics.run1.json");
  EXPECT_EQ(run_path("trace", 7, 8), "trace.run7");
}

TEST(RunPath, SingleRunKeepsThePath) {
  for (const char* path : {"a.jsonl", "dir.d/trace", "./trace", "trace"}) {
    EXPECT_EQ(run_path(path, 0, 1), path);
    EXPECT_EQ(run_path(path, 0, 0), path);
  }
}

TEST(OpenHashTable, ProbeThenEmplaceAtSurvivesErasesAndGrowth) {
  OpenHashTable<int> table;
  const auto is = [](int want) { return [want](const int& value) { return value == want; }; };
  // An empty table has no slot yet: emplace_at() grows and finds its own.
  OpenHashTable<int>::Probe probe = table.probe(1, is(10));
  EXPECT_EQ(probe.found, nullptr);
  EXPECT_EQ(probe.slot, OpenHashTable<int>::kNoSlot);
  table.emplace_at(probe.slot, 1, 10);
  EXPECT_NE(table.find(1, is(10)), nullptr);

  // An erase between probe() and emplace_at() leaves the slot valid.
  for (int i = 2; i < 8; ++i) table.emplace(static_cast<std::uint64_t>(i), i * 10, is(i * 10));
  probe = table.probe(100, is(1000));
  ASSERT_EQ(probe.found, nullptr);
  EXPECT_TRUE(table.erase(3, is(30)));
  table.emplace_at(probe.slot, 100, 1000);
  EXPECT_NE(table.find(100, is(1000)), nullptr);
  EXPECT_EQ(table.find(3, is(30)), nullptr);
  probe = table.probe(5, is(50));
  ASSERT_NE(probe.found, nullptr);
  EXPECT_EQ(*probe.found, 50);

  // Inserts that cross the growth threshold rehash and re-probe.
  for (int i = 200; i < 260; ++i) {
    probe = table.probe(static_cast<std::uint64_t>(i), is(i));
    ASSERT_EQ(probe.found, nullptr);
    table.emplace_at(probe.slot, static_cast<std::uint64_t>(i), i);
  }
  for (int i = 200; i < 260; ++i)
    EXPECT_NE(table.find(static_cast<std::uint64_t>(i), is(i)), nullptr);
  EXPECT_EQ(table.size(), 67u);
}

}  // namespace
}  // namespace ndnp::util
