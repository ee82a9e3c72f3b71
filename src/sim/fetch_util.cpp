#include "sim/fetch_util.hpp"

#include <memory>
#include <stdexcept>

namespace ndnp::sim {

namespace {

/// State of one reliable fetch. Lifetime: the pending-interest callbacks
/// registered with the Consumer each hold a shared_ptr, so the state lives
/// exactly as long as an attempt is outstanding.
struct ReliableState : std::enable_shared_from_this<ReliableState> {
  Consumer* consumer = nullptr;
  ndn::Name name;
  ReliableFetchOptions options;
  std::function<void(const ReliableFetchResult&)> on_done;
  std::size_t attempts = 0;

  void attempt() {
    ++attempts;
    ndn::Interest interest;
    interest.name = name;
    interest.private_req = options.private_req;
    interest.lifetime = options.timeout;
    auto self = shared_from_this();
    consumer->express_interest(
        interest,
        [self](const ndn::Data&, util::SimDuration rtt) {
          self->on_done({.succeeded = true, .attempts = self->attempts, .rtt = rtt});
        },
        /*face=*/0, options.timeout, [self](const ndn::Interest&) { self->retry(); },
        [self](const ndn::Nack&) { self->retry(); });
  }

  void retry() {
    if (attempts >= options.max_attempts) {
      on_done({.succeeded = false, .attempts = attempts, .rtt = 0});
      return;
    }
    attempt();
  }
};

}  // namespace

std::optional<util::SimDuration> fetch_blocking(Consumer& consumer, ndn::Interest interest,
                                                util::SimDuration timeout) {
  struct Outcome {
    bool done = false;
    std::optional<util::SimDuration> rtt;
  };
  auto outcome = std::make_shared<Outcome>();
  consumer.express_interest(
      std::move(interest),
      [outcome](const ndn::Data&, util::SimDuration rtt) {
        outcome->done = true;
        outcome->rtt = rtt;
      },
      /*face=*/0, timeout, [outcome](const ndn::Interest&) { outcome->done = true; },
      [outcome](const ndn::Nack&) { outcome->done = true; });
  Scheduler& scheduler = consumer.scheduler();
  while (!outcome->done && scheduler.run_one()) {
  }
  return outcome->rtt;
}

void reliable_fetch(Consumer& consumer, const ndn::Name& name,
                    std::function<void(const ReliableFetchResult&)> on_done,
                    const ReliableFetchOptions& options) {
  if (!on_done) throw std::invalid_argument("reliable_fetch: on_done is required");
  if (options.max_attempts == 0)
    throw std::invalid_argument("reliable_fetch: need at least one attempt");
  auto state = std::make_shared<ReliableState>();
  state->consumer = &consumer;
  state->name = name;
  state->options = options;
  state->on_done = std::move(on_done);
  state->attempt();
}

}  // namespace ndnp::sim
