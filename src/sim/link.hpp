// Point-to-point link model.
//
// Per-traversal delay = propagation latency + transmission (size/bandwidth,
// when a finite bandwidth is configured) + random jitter. Optional loss.
// Jitter is what limits the paper's timing attacks: on a LAN it is
// negligible and hit/miss separate perfectly; across WAN hops it widens the
// distributions (Figure 3(b)); when the producer sits one low-latency hop
// past the probed router it drowns the hit/miss gap almost entirely
// (Figure 3(c), ~59 %).
#pragma once

#include <cstddef>

#include "sim/faults.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace ndnp::sim {

enum class JitterKind {
  kNone,
  /// Uniform extra delay in [a, b] (a, b in nanoseconds).
  kUniform,
  /// Normal(mean=a, stddev=b), truncated at zero.
  kTruncNormal,
  /// Lognormal: exp(N(mu=a', sigma=b')) scaled so the *median* extra delay
  /// is `a` ns with shape parameter sigma = b. Heavy upper tail, the
  /// classic WAN queueing shape.
  kLognormal,
};

struct LinkConfig {
  /// One-way base propagation delay.
  util::SimDuration latency = 0;
  /// Bits per second; 0 = infinite (no transmission delay component).
  double bandwidth_bps = 0.0;
  JitterKind jitter = JitterKind::kNone;
  /// Jitter parameters, in nanoseconds (interpretation per JitterKind).
  double jitter_a = 0.0;
  double jitter_b = 0.0;
  /// Independent per-packet loss probability.
  double loss_probability = 0.0;
  /// Serialize transmissions per direction behind a FIFO queue (requires a
  /// finite bandwidth): later packets wait for earlier ones, so
  /// cross-traffic adds genuine queueing delay instead of iid jitter.
  bool fifo_queue = false;
  /// Deterministic fault injection (sim/faults.hpp). Disabled by default;
  /// a disabled config adds zero overhead and zero RNG draws, so existing
  /// experiments are bit-identical with or without this field.
  LinkFaultConfig faults;

  /// Sample the total one-way delay for a packet of `wire_bytes`.
  [[nodiscard]] util::SimDuration sample_delay(util::Rng& rng, std::size_t wire_bytes) const;

  /// Sample whether this traversal drops the packet.
  [[nodiscard]] bool sample_loss(util::Rng& rng) const;
};

/// Convenience constructors for the experiment topologies.
[[nodiscard]] LinkConfig lan_link(double latency_ms = 0.05, double jitter_ms = 0.01);
[[nodiscard]] LinkConfig wan_link(double latency_ms = 2.0, double jitter_median_ms = 0.3,
                                  double jitter_sigma = 0.5);
/// Intra-host IPC "link" between an application and the local NDN daemon.
[[nodiscard]] LinkConfig local_ipc_link(double latency_ms = 0.02, double jitter_ms = 0.01);

}  // namespace ndnp::sim
