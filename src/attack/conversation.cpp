#include "attack/conversation.hpp"

#include <optional>
#include <stdexcept>
#include <string>

#include "core/name_privacy.hpp"
#include "sim/apps.hpp"
#include "sim/fetch_util.hpp"
#include "sim/forwarder.hpp"
#include "util/rng.hpp"

namespace ndnp::attack {

namespace {

using namespace ndnp::sim;

/// One trial's network: Alice (and the adversary) adjacent to router R;
/// Bob behind a WAN hop at router X. Each party is a producer of its own
/// call frames and a consumer of the peer's.
struct ConversationNet {
  Scheduler sched;
  std::optional<Forwarder> r;  // shared first-hop router (probed)
  std::optional<Forwarder> x;  // Bob's side router
  std::optional<Producer> alice_p;
  std::optional<Producer> bob_p;
  std::optional<Consumer> alice_c;
  std::optional<Consumer> bob_c;
  std::optional<Consumer> adversary;

  explicit ConversationNet(std::uint64_t seed) {
    ForwarderConfig rcfg;
    rcfg.cs_capacity = 0;
    rcfg.seed = seed;
    r.emplace(sched, "R", rcfg);
    x.emplace(sched, "X", rcfg);

    ProducerConfig pcfg;
    pcfg.auto_generate = false;  // calls are exact published frames
    alice_p.emplace(sched, "alice", ndn::Name("/alice"), "alice-key", pcfg, seed + 1);
    bob_p.emplace(sched, "bob", ndn::Name("/bob"), "bob-key", pcfg, seed + 2);
    alice_c.emplace(sched, "alice-c", seed + 3);
    bob_c.emplace(sched, "bob-c", seed + 4);
    adversary.emplace(sched, "eve", seed + 5);

    const LinkConfig lan = lan_link(0.5, 0.05);
    const LinkConfig wan = wan_link(3.0, 0.3, 0.5);
    connect(*alice_p, *r, lan);
    connect(*alice_c, *r, lan);
    connect(*adversary, *r, lan);
    const auto [r_to_x, x_to_r] = connect(*r, *x, wan);
    connect(*bob_p, *x, lan);
    connect(*bob_c, *x, lan);

    // Routes: /alice lives behind R's face 0 (alice_p was connected
    // first); /bob behind X.
    r->add_route(ndn::Name("/alice"), 0);
    r->add_route(ndn::Name("/bob"), r_to_x);
    x->add_route(ndn::Name("/alice"), x_to_r);
    x->add_route(ndn::Name("/bob"), 1);  // bob_p is X's second face (index 1)
  }
};

/// Every fetch gives up after this long; nullopt then means "timed out".
constexpr util::SimDuration kProbeTimeout = util::millis(200);

}  // namespace

ConversationAttackResult run_conversation_attack(const ConversationAttackConfig& config) {
  if (config.trials == 0) throw std::invalid_argument("run_conversation_attack: trials is 0");
  util::Rng coin(config.seed ^ 0x2545f4914f6cdd1dULL);
  DetectionTally tally;

  for (std::size_t trial = 0; trial < config.trials; ++trial) {
    ConversationNet net(config.seed + trial * 101);

    // Per-direction sessions; in protected mode frames carry PRF-derived
    // rand components and are exact-match-only.
    const std::string secret = "alice-bob-shared-" + std::to_string(trial);
    const core::UnpredictableNameSession a_to_b(ndn::Name("/alice/call"), secret, "a2b");
    const core::UnpredictableNameSession b_to_a(ndn::Name("/bob/call"), secret, "b2a");

    const auto frame_name = [&](bool from_alice, std::uint64_t seq) {
      if (config.unpredictable_names)
        return (from_alice ? a_to_b : b_to_a).name_for(seq);
      return ndn::Name(from_alice ? "/alice/call" : "/bob/call").append_number(seq);
    };
    const auto publish_frame = [&](bool from_alice, std::uint64_t seq) {
      Producer& producer = from_alice ? *net.alice_p : *net.bob_p;
      if (config.unpredictable_names) {
        producer.publish((from_alice ? a_to_b : b_to_a)
                             .data_for(seq, "frame", from_alice ? "alice" : "bob",
                                       from_alice ? "alice-key" : "bob-key"));
      } else {
        producer.publish(ndn::make_data(frame_name(from_alice, seq), "frame",
                                        from_alice ? "alice" : "bob",
                                        from_alice ? "alice-key" : "bob-key"));
      }
    };

    // Both parties always have (possibly old) frames published, plus
    // calibration content: data coming back does not by itself imply a
    // recent call — only the cache timing does.
    for (std::uint64_t seq = 0; seq < config.frames; ++seq) {
      publish_frame(true, seq);
      publish_frame(false, seq);
    }
    net.alice_p->publish(ndn::make_data(ndn::Name("/alice/calib/0"), "c", "alice", "alice-key"));
    net.bob_p->publish(ndn::make_data(ndn::Name("/bob/calib/0"), "c", "bob", "bob-key"));

    // Adversary calibration: the midpoint of one miss and one hit RTT
    // toward each party.
    const auto calibrate = [&](const ndn::Name& name) {
      const auto miss = fetch_blocking(*net.adversary, {.name = name}, kProbeTimeout);
      const auto hit = fetch_blocking(*net.adversary, {.name = name}, kProbeTimeout);
      return (miss && hit) ? (*miss + *hit) / 2 : kProbeTimeout;
    };
    const util::SimDuration thr_alice = calibrate(ndn::Name("/alice/calib/0"));
    const util::SimDuration thr_bob = calibrate(ndn::Name("/bob/calib/0"));

    // The call happens with probability 1/2: each party fetches the
    // peer's frames, caching them at R along the way.
    const bool call = coin.bernoulli(0.5);
    if (call) {
      for (std::uint64_t seq = 0; seq < config.frames; ++seq) {
        (void)fetch_blocking(*net.bob_c, {.name = frame_name(true, seq)}, kProbeTimeout);
        (void)fetch_blocking(*net.alice_c, {.name = frame_name(false, seq)}, kProbeTimeout);
      }
    }

    // Probe: one prefix interest per direction; "ongoing" iff either comes
    // back faster than the calibrated midpoint.
    const auto rtt_alice =
        fetch_blocking(*net.adversary, {.name = ndn::Name("/alice/call")}, kProbeTimeout);
    const auto rtt_bob =
        fetch_blocking(*net.adversary, {.name = ndn::Name("/bob/call")}, kProbeTimeout);
    tally.add((rtt_alice && *rtt_alice <= thr_alice) || (rtt_bob && *rtt_bob <= thr_bob), call);
  }

  return tally.rates();
}

}  // namespace ndnp::attack
