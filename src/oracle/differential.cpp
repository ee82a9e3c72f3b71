#include "oracle/differential.hpp"

#include <algorithm>
#include <array>
#include <deque>
#include <list>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "ndn/packet.hpp"
#include "sim/forwarder.hpp"
#include "sim/link.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace ndnp::sim {

namespace {

// Packet rendering shared by the DUT-side recorders and the reference
// model: a divergence is any difference between the rendered streams.
std::string interest_line(const ndn::Interest& interest, util::SimTime t) {
  std::string line = "t=" + std::to_string(t) + " I " + interest.name.to_uri() +
                     " nonce=" + std::to_string(interest.nonce) +
                     " scope=" + (interest.scope ? std::to_string(*interest.scope) : "-");
  if (interest.must_be_fresh) line += " fresh";
  if (interest.private_req) line += " private";
  return line;
}

std::string data_line(const ndn::Data& data, util::SimTime t) {
  return "t=" + std::to_string(t) + " D " + data.name.to_uri() +
         " bytes=" + std::to_string(data.payload.size());
}

std::string nack_line(const ndn::Nack& nack, util::SimTime t) {
  return "t=" + std::to_string(t) + " N " + std::string(ndn::to_string(nack.reason)) + " " +
         nack.interest.name.to_uri() + " nonce=" + std::to_string(nack.interest.nonce);
}

/// Terminal stub that renders every received packet into a log line.
class RecorderNode final : public Node {
 public:
  RecorderNode(Scheduler& scheduler, std::string name)
      : Node(scheduler, std::move(name), 1) {}

  void receive_interest(const ndn::Interest& interest, FaceId) override {
    log.push_back(interest_line(interest, now()));
  }
  void receive_data(const ndn::Data& data, FaceId) override {
    log.push_back(data_line(data, now()));
  }
  void receive_nack(const ndn::Nack& nack, FaceId) override {
    log.push_back(nack_line(nack, now()));
  }

  std::vector<std::string> log;
};

/// Naive model of the forwarder: plain std::map PIT and LRU CS, no hash
/// indices, no timers — expiry is evaluated lazily by advance_to(). Scoped
/// to the differential harness's fixed setup: NoPrivacy policy, one
/// upstream (face 1), admission 1.0, padding off.
class ReferenceForwarder {
 public:
  ReferenceForwarder(std::size_t cs_capacity, std::size_t pit_capacity,
                     util::SimDuration pit_timeout, bool honor_scope)
      : cs_capacity_(cs_capacity),
        pit_capacity_(pit_capacity),
        pit_timeout_(pit_timeout),
        honor_scope_(honor_scope) {}

  struct CsEntry {
    ndn::Data data;
    util::SimTime inserted_at = 0;
  };

  struct Stats {
    std::uint64_t interests_received = 0;
    std::uint64_t data_received = 0;
    std::uint64_t nacks_received = 0;
    std::uint64_t exposed_hits = 0;
    std::uint64_t true_misses = 0;
    std::uint64_t collapsed = 0;
    std::uint64_t nonce_drops = 0;
    std::uint64_t scope_drops = 0;
    std::uint64_t no_route_drops = 0;
    std::uint64_t pit_overflows = 0;
    std::uint64_t unsolicited_data = 0;
    std::uint64_t pit_expirations = 0;
    std::uint64_t pit_inserts = 0;
    std::uint64_t pit_satisfied = 0;
    std::uint64_t pit_nack_erased = 0;
    std::uint64_t nacks_sent = 0;
    std::uint64_t data_forwarded = 0;
  };

  /// Lazily expire PIT entries whose deadline has passed. Called before
  /// *and* after each op: the DUT's expiry timers fire before same-time op
  /// events (earlier seq), and a zero/negative-lifetime insert expires
  /// within the op's own cascade.
  void advance_to(util::SimTime t) {
    for (auto it = pit_.begin(); it != pit_.end();) {
      if (it->second.expires_at <= t) {
        it = pit_.erase(it);
        ++stats_.pit_expirations;
      } else {
        ++it;
      }
    }
  }

  void on_interest(const ndn::Interest& interest, FaceId in_face, util::SimTime t) {
    ++stats_.interests_received;
    auto pit_it = pit_.find(interest.name);
    if (pit_it != pit_.end() && pit_it->second.nonces.count(interest.nonce) > 0) {
      ++stats_.nonce_drops;
      return;
    }
    if (CsEntry* entry = cs_find(interest, t)) {
      touch(entry->data.name);
      ++stats_.exposed_hits;
      emit(in_face, data_line(entry->data, t));
      return;
    }
    ++stats_.true_misses;
    if (pit_it != pit_.end()) {
      pit_it->second.nonces.insert(interest.nonce);
      auto& downstreams = pit_it->second.downstreams;
      if (std::find(downstreams.begin(), downstreams.end(), in_face) == downstreams.end())
        downstreams.push_back(in_face);
      ++stats_.collapsed;
      return;
    }
    ndn::Interest upstream = interest;
    if (honor_scope_ && interest.scope) {
      if (*interest.scope <= 2) {
        ++stats_.scope_drops;
        return;
      }
      upstream.scope = *interest.scope - 1;
    }
    if (!route_prefix_.is_prefix_of(interest.name)) {
      ++stats_.no_route_drops;
      ++stats_.nacks_sent;
      emit(in_face, nack_line({.interest = interest, .reason = ndn::NackReason::kNoRoute}, t));
      return;
    }
    if (pit_capacity_ != 0 && pit_.size() >= pit_capacity_) {
      ++stats_.pit_overflows;
      ++stats_.nacks_sent;
      emit(in_face,
           nack_line({.interest = interest, .reason = ndn::NackReason::kPitOverflow}, t));
      return;
    }
    PitEntry entry;
    entry.first_interest = interest;
    entry.downstreams = {in_face};
    entry.nonces = {interest.nonce};
    entry.expires_at =
        t + std::max<util::SimDuration>(interest.lifetime.value_or(pit_timeout_), 0);
    pit_.emplace(interest.name, std::move(entry));
    ++stats_.pit_inserts;
    emit(kUpstreamFace, interest_line(upstream, t));
  }

  void on_data(const ndn::Data& data, util::SimTime t) {
    ++stats_.data_received;
    std::vector<std::map<ndn::Name, PitEntry>::iterator> matches;
    for (std::size_t len = 0; len <= data.name.size(); ++len) {
      auto it = pit_.find(data.name.prefix(len));
      if (it != pit_.end() && data.satisfies(it->second.first_interest))
        matches.push_back(it);
    }
    if (matches.empty()) {
      ++stats_.unsolicited_data;
      return;
    }
    auto exact = cs_.find(data.name);
    if (exact != cs_.end()) {
      // Refresh payload and restart freshness: a refetched stale entry is
      // fresh again, as in CachePrivacyEngine::admit.
      exact->second.data = data;
      exact->second.inserted_at = t;
      touch(data.name);
    } else {
      if (cs_capacity_ != 0 && cs_.size() >= cs_capacity_) {
        cs_.erase(lru_.back());  // LRU victim
        lru_.pop_back();
      }
      cs_.emplace(data.name, CsEntry{data, t});
      lru_.push_front(data.name);
    }
    for (auto it : matches) {
      for (const FaceId face : it->second.downstreams) {
        emit(face, data_line(data, t));
        ++stats_.data_forwarded;
      }
      pit_.erase(it);
      ++stats_.pit_satisfied;
    }
  }

  void on_nack(const ndn::Nack& nack, util::SimTime t) {
    ++stats_.nacks_received;
    auto it = pit_.find(nack.interest.name);
    if (it == pit_.end()) return;
    for (const FaceId face : it->second.downstreams) {
      ++stats_.nacks_sent;
      emit(face, nack_line(nack, t));
    }
    pit_.erase(it);
    ++stats_.pit_nack_erased;
  }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t pit_size() const noexcept { return pit_.size(); }
  [[nodiscard]] std::size_t cs_size() const noexcept { return cs_.size(); }
  [[nodiscard]] const std::vector<std::string>& expected(FaceId face) const {
    return expected_.at(face);
  }
  [[nodiscard]] const std::map<ndn::Name, CsEntry>& cs_entries() const noexcept {
    return cs_;
  }

 private:
  struct PitEntry {
    ndn::Interest first_interest;
    std::vector<FaceId> downstreams;
    std::set<std::uint64_t> nonces;
    util::SimTime expires_at = 0;
  };

  static constexpr FaceId kUpstreamFace = 1;

  void emit(FaceId face, std::string line) { expected_[face].push_back(std::move(line)); }

  [[nodiscard]] static bool fresh_at(const CsEntry& entry, util::SimTime now) noexcept {
    return !entry.data.freshness_period ||
           now <= entry.inserted_at + *entry.data.freshness_period;
  }

  void touch(const ndn::Name& name) {
    const auto it = std::find(lru_.begin(), lru_.end(), name);
    if (it != lru_.end() && it != lru_.begin()) lru_.splice(lru_.begin(), lru_, it);
  }

  /// Exact match first; otherwise the lexicographically smallest strictly
  /// deeper satisfying entry — map order delivers exactly that, and names
  /// sharing the interest prefix form one contiguous map range.
  CsEntry* cs_find(const ndn::Interest& interest, util::SimTime now) {
    const bool check_fresh = interest.must_be_fresh;
    const auto exact = cs_.find(interest.name);
    if (exact != cs_.end() && (!check_fresh || fresh_at(exact->second, now)))
      return &exact->second;
    for (auto it = cs_.upper_bound(interest.name); it != cs_.end(); ++it) {
      if (!interest.name.is_prefix_of(it->first)) break;
      if (!it->second.data.satisfies(interest)) continue;
      if (check_fresh && !fresh_at(it->second, now)) continue;
      return &it->second;
    }
    return nullptr;
  }

  std::size_t cs_capacity_;
  std::size_t pit_capacity_;
  util::SimDuration pit_timeout_;
  bool honor_scope_;
  ndn::Name route_prefix_ = ndn::Name("/d");
  std::map<ndn::Name, PitEntry> pit_;
  std::map<ndn::Name, CsEntry> cs_;
  std::list<ndn::Name> lru_;  // front = most recently used
  std::array<std::vector<std::string>, 3> expected_;  // indexed by DUT face
  Stats stats_;
};

}  // namespace

DifferentialResult run_differential_episode(std::uint64_t seed, std::size_t num_ops) {
  util::Rng rng(seed);
  Scheduler scheduler;

  ForwarderConfig config;
  config.cs_capacity = 8;
  config.eviction = cache::EvictionPolicy::kLru;
  config.pit_timeout = util::millis(static_cast<std::int64_t>(5 + rng.uniform_u64(20)));
  config.pit_capacity = rng.bernoulli(0.5) ? 3 + rng.uniform_u64(5) : 0;
  config.processing_delay = 0;  // all cascades settle at the op timestamp
  config.honor_scope = rng.bernoulli(0.5);
  config.cache_admission_probability = 1.0;
  config.pad_collapsed_private = false;
  config.seed = rng.next_u64();

  Forwarder dut(scheduler, "dut", config);
  RecorderNode down_a(scheduler, "downA");
  RecorderNode up(scheduler, "up");
  RecorderNode down_b(scheduler, "downB");
  connect(down_a, dut, {});  // DUT face 0: downstream A
  connect(dut, up, {});      // DUT face 1: upstream
  connect(down_b, dut, {});  // DUT face 2: downstream B
  dut.add_route(ndn::Name("/d"), 1);

  ReferenceForwarder ref(config.cs_capacity, config.pit_capacity, config.pit_timeout,
                         config.honor_scope);

  // Small name universe: heavy collisions exercise collapse, nonce dedup,
  // prefix satisfaction and LRU eviction. "/x/off" has no route.
  std::vector<ndn::Name> pool;
  for (const char* leaf : {"a", "b", "c", "d", "e", "f"})
    pool.emplace_back(std::string("/d/") + leaf);
  for (const char* leaf : {"a", "b", "c"})
    for (const char* seg : {"0", "1"})
      pool.emplace_back(std::string("/d/") + leaf + "/s" + seg);
  pool.emplace_back("/x/off");
  pool.emplace_back("/d/private");  // name-marked private content

  std::deque<std::pair<ndn::Name, std::uint64_t>> recent_nonces;
  DifferentialResult result;
  util::SimTime t = 0;

  const std::array<RecorderNode*, 3> recorders = {&down_a, &up, &down_b};
  const auto compare = [&](std::size_t op) {
    const auto fail = [&](std::string what) {
      if (result.divergences == 0)
        result.first_divergence =
            "seed " + std::to_string(seed) + " op " + std::to_string(op) + ": " + what;
      ++result.divergences;
    };
    for (FaceId face = 0; face < recorders.size(); ++face) {
      const std::vector<std::string>& actual = recorders[face]->log;
      const std::vector<std::string>& expected = ref.expected(face);
      const std::size_t common = std::min(actual.size(), expected.size());
      for (std::size_t i = 0; i < common; ++i)
        if (actual[i] != expected[i]) {
          fail("face " + std::to_string(face) + " line " + std::to_string(i) +
               ": expected \"" + expected[i] + "\" got \"" + actual[i] + "\"");
          return;
        }
      if (actual.size() != expected.size()) {
        const bool extra = actual.size() > expected.size();
        fail("face " + std::to_string(face) +
             (extra ? ": unexpected \"" + actual[common] + "\""
                    : ": missing \"" + expected[common] + "\""));
        return;
      }
    }
    const ForwarderStats& ds = dut.stats();
    const core::EngineStats& dos = dut.engine().stats();
    const ReferenceForwarder::Stats& rs = ref.stats();
    const std::array<std::tuple<const char*, std::uint64_t, std::uint64_t>, 19> counters = {{
        {"interests_received", ds.interests_received, rs.interests_received},
        {"data_received", ds.data_received, rs.data_received},
        {"nacks_received", ds.nacks_received, rs.nacks_received},
        {"exposed_hits", dos.exposed_hits, rs.exposed_hits},
        {"true_misses", dos.true_misses, rs.true_misses},
        {"collapsed_interests", ds.collapsed_interests, rs.collapsed},
        {"nonce_drops", ds.nonce_drops, rs.nonce_drops},
        {"scope_drops", ds.scope_drops, rs.scope_drops},
        {"no_route_drops", ds.no_route_drops, rs.no_route_drops},
        {"pit_overflows", ds.pit_overflows, rs.pit_overflows},
        {"unsolicited_data", ds.unsolicited_data, rs.unsolicited_data},
        {"pit_expirations", ds.pit_expirations, rs.pit_expirations},
        {"pit_inserts", ds.pit_inserts, rs.pit_inserts},
        {"pit_satisfied", ds.pit_satisfied, rs.pit_satisfied},
        {"pit_nack_erased", ds.pit_nack_erased, rs.pit_nack_erased},
        {"nacks_sent", ds.nacks_sent, rs.nacks_sent},
        {"data_forwarded", ds.data_forwarded, rs.data_forwarded},
        {"forwarded_interests", ds.forwarded_interests, rs.pit_inserts},
        {"pit_size", dut.pit_size(), ref.pit_size()},
    }};
    for (const auto& [label, dut_value, ref_value] : counters)
      if (dut_value != ref_value) {
        fail(std::string(label) + " dut=" + std::to_string(dut_value) +
             " ref=" + std::to_string(ref_value));
        return;
      }
    if (dut.cs().size() != ref.cs_size()) {
      fail("cs_size dut=" + std::to_string(dut.cs().size()) +
           " ref=" + std::to_string(ref.cs_size()));
      return;
    }
    for (const auto& [name, entry] : ref.cs_entries())
      if (!dut.cs().contains(name)) {
        fail("cs missing " + name.to_uri());
        return;
      }
  };

  for (std::size_t op = 0; op < num_ops && result.divergences == 0; ++op) {
    t += 1 + static_cast<util::SimDuration>(rng.uniform_u64(util::millis(2)));
    scheduler.run_until(t);
    ref.advance_to(t);

    const double kind = rng.uniform01();
    if (kind < 0.55) {
      ndn::Interest interest;
      interest.name = pool[rng.uniform_u64(pool.size())];
      if (!recent_nonces.empty() && rng.bernoulli(0.2)) {
        const auto& past = recent_nonces[rng.uniform_u64(recent_nonces.size())];
        interest.name = past.first;  // same name: candidate nonce-loop drop
        interest.nonce = past.second;
      } else {
        interest.nonce = 1 + rng.uniform_u64(1ULL << 20);
      }
      recent_nonces.emplace_back(interest.name, interest.nonce);
      if (recent_nonces.size() > 32) recent_nonces.pop_front();
      if (rng.bernoulli(0.15)) interest.must_be_fresh = true;
      if (rng.bernoulli(0.15)) interest.private_req = true;
      if (rng.bernoulli(0.20)) interest.scope = static_cast<int>(1 + rng.uniform_u64(4));
      if (rng.bernoulli(0.25)) {
        if (rng.bernoulli(0.1))
          interest.lifetime = -util::millis(2);  // hostile: DUT must clamp, not abort
        else
          interest.lifetime =
              static_cast<std::int64_t>(rng.uniform_u64(util::millis(8)));  // includes 0
      }
      const FaceId in_face = rng.bernoulli(0.7) ? 0 : 2;
      dut.receive_interest(interest, in_face);
      scheduler.run_until(t);
      ref.on_interest(interest, in_face, t);
      ref.advance_to(t);  // zero/negative-lifetime entries die immediately
    } else if (kind < 0.85) {
      ndn::Name name = pool[rng.uniform_u64(pool.size())];
      if (rng.bernoulli(0.2))
        name = ndn::Name(name.to_uri() + "/v" + std::to_string(rng.uniform_u64(2)));
      ndn::Data data =
          ndn::make_data(name, std::string(1 + rng.uniform_u64(64), 'x'), "prod", "key",
                         rng.bernoulli(0.2));
      if (rng.bernoulli(0.15)) data.exact_match_only = true;
      if (rng.bernoulli(0.30))
        data.freshness_period =
            static_cast<std::int64_t>(rng.uniform_u64(util::millis(6)));  // includes 0
      dut.receive_data(data, 1);
      scheduler.run_until(t);
      ref.on_data(data, t);
    } else {
      ndn::Nack nack;
      nack.interest.name = pool[rng.uniform_u64(pool.size())];
      nack.interest.nonce = 1 + rng.uniform_u64(1ULL << 20);
      constexpr std::array<ndn::NackReason, 3> kReasons = {ndn::NackReason::kNoRoute,
                                                           ndn::NackReason::kPitOverflow,
                                                           ndn::NackReason::kDuplicate};
      nack.reason = kReasons[rng.uniform_u64(kReasons.size())];
      dut.receive_nack(nack, 1);
      scheduler.run_until(t);
      ref.on_nack(nack, t);
    }
    ++result.ops;
    compare(op);
  }
  return result;
}

}  // namespace ndnp::sim
