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

void segment_fetch(Consumer& consumer, const ndn::Name& prefix, std::size_t count,
                   std::function<void(const SegmentFetchResult&)> on_done,
                   const SegmentFetchOptions& options) {
  if (!on_done) throw std::invalid_argument("segment_fetch: on_done is required");
  if (options.window == 0) throw std::invalid_argument("segment_fetch: window must be >= 1");
  if (count == 0) {
    on_done({.succeeded = true, .segments = 0, .retransmissions = 0, .elapsed = 0});
    return;
  }

  struct SegmentState {
    Consumer* consumer = nullptr;
    ndn::Name prefix;
    std::size_t count = 0;
    SegmentFetchOptions options;
    std::function<void(const SegmentFetchResult&)> on_done;
    util::SimTime started_at = 0;
    std::size_t next_to_issue = 0;
    std::size_t completed = 0;
    std::size_t retransmissions = 0;
    bool failed = false;
  };
  auto state = std::make_shared<SegmentState>();
  state->consumer = &consumer;
  state->prefix = prefix;
  state->count = count;
  state->options = options;
  state->on_done = std::move(on_done);
  state->started_at = consumer.now();

  // Window pump: issuing a segment registers a completion callback that
  // issues the next one, keeping `window` segments in flight. The pump
  // holds itself only weakly; the in-flight completion callbacks own it,
  // so it, the state and `on_done` are freed once the last one has run.
  auto issue = std::make_shared<std::function<void()>>();
  *issue = [state, weak_issue = std::weak_ptr<std::function<void()>>(issue)] {
    if (state->failed || state->next_to_issue >= state->count) return;
    const std::size_t segment = state->next_to_issue++;
    reliable_fetch(
        *state->consumer, state->prefix.append_number(segment),
        [state, issue = weak_issue.lock()](const ReliableFetchResult& result) {
          state->retransmissions += result.attempts - (result.succeeded ? 1 : 0);
          if (!result.succeeded) {
            if (!state->failed) {
              state->failed = true;
              state->on_done({.succeeded = false,
                              .segments = state->completed,
                              .retransmissions = state->retransmissions,
                              .elapsed = state->consumer->now() - state->started_at});
            }
            return;
          }
          ++state->completed;
          if (state->completed == state->count) {
            state->on_done({.succeeded = true,
                            .segments = state->completed,
                            .retransmissions = state->retransmissions,
                            .elapsed = state->consumer->now() - state->started_at});
            return;
          }
          (*issue)();
        },
        state->options.per_segment);
  };
  const std::size_t initial = std::min(options.window, count);
  for (std::size_t i = 0; i < initial; ++i) (*issue)();
}

}  // namespace ndnp::sim
