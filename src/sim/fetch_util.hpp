// Consumer-side fetch utilities.
//
// fetch_blocking is the adversary's one primitive (Section III): fetch a
// name and time the reply, running the simulation until it is answered.
// ReliableFetcher wraps one interest with timeout-driven retransmission —
// the standard NDN ARQ loop whose cache-assisted recovery is exactly why
// Section V-A insists the unpredictable-name countermeasure must keep
// router caching intact.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "sim/apps.hpp"

namespace ndnp::sim {

/// Express `interest` through `consumer` and run the consumer's scheduler
/// until one of four things happens: the Data arrives, a NACK arrives, the
/// consumer-side `timeout` fires (0 schedules no timer) or the event queue
/// drains. Returns the RTT the Data callback saw, or nullopt when no Data
/// came. An interest still pending when the queue drained may be answered
/// later; its callback then writes into state it owns, not into this frame.
[[nodiscard]] std::optional<util::SimDuration> fetch_blocking(Consumer& consumer,
                                                              ndn::Interest interest,
                                                              util::SimDuration timeout = 0);

struct ReliableFetchOptions {
  /// Retransmission timeout per attempt.
  util::SimDuration timeout = util::millis(200);
  /// Total attempts (first transmission included).
  std::size_t max_attempts = 4;
  bool private_req = false;
};

struct ReliableFetchResult {
  bool succeeded = false;
  /// Attempts actually used (>= 1 when succeeded).
  std::size_t attempts = 0;
  /// RTT of the successful attempt.
  util::SimDuration rtt = 0;
};

/// Fetch `name` through `consumer` with retransmissions; `on_done` fires
/// exactly once, with success or final failure. NACKs count as failed
/// attempts and are retried (transient no-route may heal).
void reliable_fetch(Consumer& consumer, const ndn::Name& name,
                    std::function<void(const ReliableFetchResult&)> on_done,
                    const ReliableFetchOptions& options = {});

}  // namespace ndnp::sim
