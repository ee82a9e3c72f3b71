// Quickstart: build a small NDN network, fetch content through a caching
// router, and watch the cache take effect — then see the cache-privacy
// problem in one probe.
//
//   consumer (Alice) ----1ms---- router R ----5ms---- producer
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>
#include <optional>

#include "sim/apps.hpp"
#include "sim/forwarder.hpp"

using namespace ndnp;

namespace {

util::SimDuration fetch(sim::Consumer& consumer, sim::Scheduler& sched,
                        const ndn::Name& name) {
  std::optional<util::SimDuration> rtt;
  consumer.fetch(name, [&rtt](const ndn::Data& data, util::SimDuration r) {
    std::printf("  got %-28s payload=%zuB rtt=%.2f ms\n", data.name.to_uri().c_str(),
                data.payload.size(), util::to_millis(r));
    rtt = r;
  });
  while (!rtt && sched.run_one()) {
  }
  return rtt.value_or(-1);
}

}  // namespace

int main() {
  sim::Scheduler sched;

  // Nodes. The router runs the default NoPrivacy cache policy.
  sim::Consumer alice(sched, "alice", /*seed=*/1);
  sim::Consumer eve(sched, "eve", /*seed=*/2);
  sim::Forwarder router(sched, "R", {.cs_capacity = 1'000});
  sim::Producer producer(sched, "cnn", ndn::Name("/cnn"), "cnn-signing-key",
                         {.payload_size = 2'048}, /*seed=*/3);

  // Topology: both consumers share R as their first-hop router.
  sim::LinkConfig access = sim::lan_link(/*latency_ms=*/0.5);
  sim::LinkConfig backbone = sim::wan_link(/*latency_ms=*/2.5);
  connect(alice, router, access);
  connect(eve, router, access);
  const auto [router_face, producer_face] = connect(router, producer, backbone);
  (void)producer_face;
  router.add_route(ndn::Name("/cnn"), router_face);

  std::printf("Alice fetches an article (cold cache -> full round trip to the producer):\n");
  const util::SimDuration cold = fetch(alice, sched, ndn::Name("/cnn/news/2013may20"));

  std::printf("Alice fetches it again (cached at R -> one hop):\n");
  const util::SimDuration warm = fetch(alice, sched, ndn::Name("/cnn/news/2013may20"));

  std::printf("\nCaching speedup: %.1fx (%.2f ms -> %.2f ms)\n",
              static_cast<double>(cold) / static_cast<double>(warm), util::to_millis(cold),
              util::to_millis(warm));

  // The privacy problem in one probe: Eve measures the SAME article and a
  // fresh one, and the RTT gap tells her what Alice just read.
  std::printf("\nEve probes R's cache (the paper's attack, Section III):\n");
  const util::SimDuration probe_read = fetch(eve, sched, ndn::Name("/cnn/news/2013may20"));
  const util::SimDuration probe_unread = fetch(eve, sched, ndn::Name("/cnn/sports/final"));
  std::printf("\nEve's inference: /cnn/news/2013may20 %s recently requested behind R\n",
              probe_read * 2 < probe_unread ? "WAS" : "was NOT");
  std::printf("(probe: %.2f ms vs fresh content: %.2f ms)\n", util::to_millis(probe_read),
              util::to_millis(probe_unread));
  std::printf("\nRouter stats: %llu interests, %llu cache hits, %llu misses\n",
              static_cast<unsigned long long>(router.stats().interests_received),
              static_cast<unsigned long long>(router.engine().stats().exposed_hits),
              static_cast<unsigned long long>(router.engine().stats().true_misses));
  std::printf("See examples/timing_attack_demo.cpp for the full attack and the\n"
              "countermeasures that defeat it.\n");
  return 0;
}
