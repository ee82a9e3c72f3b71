// The local adversary of Figure 2 / Figure 3(d): NDN nodes (a laptop, an
// Android phone) run a node-local daemon ("ccnd") with its own cache that
// every application shares. A malicious app — with no special privileges,
// just ordinary network access — probes that cache to learn what the
// user's other apps fetched.
//
//   ./build/examples/local_malicious_app
#include <cstdio>

#include "sim/apps.hpp"
#include "sim/fetch_util.hpp"
#include "sim/forwarder.hpp"

using namespace ndnp;

int main() {
  sim::Scheduler sched;

  // One device: honest apps + a malicious app, all talking to the local
  // daemon over IPC; the daemon reaches the network over one WAN link.
  sim::Consumer browser(sched, "browser-app", 1);
  sim::Consumer mail(sched, "mail-app", 2);
  sim::Consumer malicious(sched, "game-with-ads", 3);
  sim::Forwarder ccnd(sched, "ccnd", {.cs_capacity = 5'000});
  sim::Producer network(sched, "internet", ndn::Name(), {}, {}, 4);

  const sim::LinkConfig ipc = sim::local_ipc_link();
  connect(browser, ccnd, ipc);
  connect(mail, ccnd, ipc);
  connect(malicious, ccnd, ipc);
  const auto [up, down] = connect(ccnd, network, sim::wan_link(2.0));
  (void)down;
  ccnd.add_route(ndn::Name(), up);  // default route to the network

  // The user's apps do their thing.
  std::printf("Honest apps fetch content through the local daemon:\n");
  const ndn::Name visited("/webmd/conditions/condition-x/page1");
  const ndn::Name inbox("/mailprovider/alice/inbox/newest");
  std::printf("  browser: %s  (%.2f ms)\n", visited.to_uri().c_str(),
              util::to_millis(sim::fetch_blocking(browser, {.name = visited}).value()));
  std::printf("  mail:    %s  (%.2f ms)\n", inbox.to_uri().c_str(),
              util::to_millis(sim::fetch_blocking(mail, {.name = inbox}).value()));

  // The malicious app probes the shared local cache. Anything the user
  // recently fetched answers in IPC time; everything else pays the
  // network round trip.
  std::printf("\nMalicious app probes the local cache:\n");
  struct Probe {
    const char* what;
    ndn::Name name;
  };
  const Probe probes[] = {
      {"health page the user visited", visited},
      {"health page the user did NOT visit", ndn::Name("/webmd/conditions/condition-y/page1")},
      {"the user's mail inbox", inbox},
      {"someone else's mail inbox", ndn::Name("/mailprovider/bob/inbox/newest")},
  };
  for (const Probe& probe : probes) {
    const util::SimDuration rtt = sim::fetch_blocking(malicious, {.name = probe.name}).value();
    const bool cached = rtt < util::millis(1);
    std::printf("  %-38s %6.2f ms -> %s\n", probe.what, util::to_millis(rtt),
                cached ? "CACHED (user activity inferred)" : "not cached");
  }

  std::printf("\nNo privileges were needed: the malicious app only issued ordinary\n"
              "interests. This is Figure 3(d)'s setting, where the paper found the\n"
              "hit/miss gap 'even more evident' than across the network — and why the\n"
              "paper requires countermeasures at the node-local cache too.\n");
  return 0;
}
