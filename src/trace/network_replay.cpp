#include "trace/network_replay.hpp"

#include <algorithm>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/policies.hpp"
#include "sim/apps.hpp"
#include "sim/forwarder.hpp"
#include "trace/replayer.hpp"

namespace ndnp::trace {

std::string_view to_string(Deployment deployment) noexcept {
  switch (deployment) {
    case Deployment::kNone: return "none";
    case Deployment::kEdgeOnly: return "edge-only";
    case Deployment::kEverywhere: return "everywhere";
  }
  return "?";
}

namespace {

/// The two-tier deployment tree plus the arrival feeder, shared by
/// the in-memory and streaming overloads.
struct DeploymentTree {
  explicit DeploymentTree(const NetworkReplayConfig& config) : config_(config) {
    if (config.edge_routers == 0)
      throw std::invalid_argument("replay_over_network: need at least one edge router");
    if (!(config.time_compression > 0.0))
      throw std::invalid_argument("replay_over_network: time compression must be positive");

    const auto make_policy = [&](bool is_edge) -> std::unique_ptr<core::CachePrivacyPolicy> {
      const bool wants_policy =
          config.policy_factory &&
          (config.deployment == Deployment::kEverywhere ||
           (config.deployment == Deployment::kEdgeOnly && is_edge));
      return wants_policy ? config.policy_factory() : nullptr;  // null -> NoPrivacy
    };

    // Core tier.
    sim::ForwarderConfig core_cfg;
    core_cfg.cs_capacity = config.core_cache;
    core_cfg.eviction = config.eviction;
    core_cfg.seed = config.seed ^ 0xff51afd7ed558ccdULL;
    core_ = std::make_unique<sim::Forwarder>(sched_, "core", core_cfg,
                                             make_policy(/*is_edge=*/false));

    // Producer: auto-generates the whole /web namespace.
    sim::ProducerConfig pcfg;
    pcfg.payload_size = 8'192;
    producer_ = std::make_unique<sim::Producer>(sched_, "origin", ndn::Name("/web"),
                                                "origin-key", pcfg, config.seed + 1);
    const sim::LinkConfig core_producer = sim::wan_link(8.0, 0.5, 0.4);
    const auto [core_up, producer_down] = connect(*core_, *producer_, core_producer);
    (void)producer_down;
    core_->add_route(ndn::Name("/web"), core_up);

    // Edge tier, one aggregate consumer per edge router.
    edges_.reserve(config.edge_routers);
    const sim::LinkConfig access = sim::lan_link(0.3, 0.05);
    const sim::LinkConfig edge_core = sim::wan_link(2.0, 0.2, 0.4);
    for (std::size_t i = 0; i < config.edge_routers; ++i) {
      sim::ForwarderConfig edge_cfg;
      edge_cfg.cs_capacity = config.edge_cache;
      edge_cfg.eviction = config.eviction;
      edge_cfg.seed = config.seed + 100 + i;
      Edge edge;
      edge.router = std::make_unique<sim::Forwarder>(sched_, "edge" + std::to_string(i),
                                                     edge_cfg, make_policy(/*is_edge=*/true));
      edge.consumer = std::make_unique<sim::Consumer>(sched_, "users" + std::to_string(i),
                                                      config.seed + 200 + i);
      connect(*edge.consumer, *edge.router, access);
      const auto [up, down] = connect(*edge.router, *core_, edge_core);
      (void)down;
      edge.router->add_route(ndn::Name("/web"), up);
      edges_.push_back(std::move(edge));
    }
  }

  /// Compressed simulation timestamp of a record. Throws TraceParseError,
  /// as the readers do, when the compressed time does not fit SimTime.
  [[nodiscard]] util::SimTime at(const TraceRecord& record) const {
    if (!replayable_timestamp(record.timestamp_s, config_.time_compression))
      throw TraceParseError(
          "replay_over_network: record " + std::to_string(result_.requests + 1) +
              " has a negative, non-finite or out-of-range timestamp after time compression",
          ParseStats{.lines = result_.requests, .records = result_.requests});
    return static_cast<util::SimTime>(record.timestamp_s * 1e9 / config_.time_compression);
  }

  /// Count one record as a request once its timestamp is known to replay.
  void validate(const TraceRecord& record) {
    (void)at(record);
    ++result_.requests;
  }

  /// Feed validated `records` to the network one arrival at a time. Record
  /// k gets reserved sequence number base + k, the number scheduling every
  /// record now would have given it, so each arrival dispatches exactly
  /// where that eager schedule would put it, while the scheduler holds only
  /// the next one. `order` lists the records in (time, index) order; empty
  /// means they already are. Both must outlive the last arrival.
  void feed(std::span<const TraceRecord> records, std::span<const std::size_t> order = {}) {
    feed_ = records;
    feed_order_ = order;
    feed_pos_ = 0;
    feed_seq_ = sched_.reserve_sequence(records.size());
    feed_next();
  }

  /// Drain the event queue and collect the tier accounting.
  [[nodiscard]] NetworkReplayResult finish() {
    sched_.run();
    for (const Edge& edge : edges_)
      result_.edge_hits += edge.router->engine().stats().exposed_hits;
    result_.core_hits = core_->engine().stats().exposed_hits;
    result_.producer_fetches = producer_->interests_served();
    return std::move(result_);
  }

  sim::Scheduler sched_;

 private:
  struct Edge {
    std::unique_ptr<sim::Forwarder> router;
    std::unique_ptr<sim::Consumer> consumer;
  };

  /// Schedule the next record's arrival; it schedules the one after.
  void feed_next() {
    if (feed_pos_ == feed_.size()) return;
    const std::size_t k = feed_order_.empty() ? feed_pos_ : feed_order_[feed_pos_];
    ++feed_pos_;
    auto arrival = [this, k] {
      feed_next();
      issue(feed_[k]);
    };
    static_assert(sim::EventFn::fits_inline<decltype(arrival)>,
                  "the arrival event must fit the scheduler's inline buffer");
    sched_.schedule_reserved(at(feed_[k]), feed_seq_ + k, std::move(arrival));
  }

  /// Express one request's Interest from its user's edge consumer.
  void issue(const TraceRecord& record) {
    ndn::Interest interest;
    interest.name = record.name;
    interest.private_req =
        is_private_content(record.name, config_.private_fraction, config_.seed);
    NetworkReplayResult* result = &result_;
    edges_[record.user_id % config_.edge_routers].consumer->express_interest(
        interest, [result](const ndn::Data&, util::SimDuration rtt) {
          ++result->completed;
          result->rtt_ms.add(util::to_millis(rtt));
        });
  }

  NetworkReplayConfig config_;
  std::unique_ptr<sim::Forwarder> core_;
  std::unique_ptr<sim::Producer> producer_;
  std::vector<Edge> edges_;
  NetworkReplayResult result_;
  std::span<const TraceRecord> feed_;
  std::span<const std::size_t> feed_order_;
  std::size_t feed_pos_ = 0;
  std::uint64_t feed_seq_ = 0;
};

}  // namespace

NetworkReplayResult replay_over_network(const Trace& tr, const NetworkReplayConfig& config) {
  DeploymentTree tree(config);
  for (const TraceRecord& record : tr.records) tree.validate(record);
  // Records scheduled all at once would dispatch in (time, index) order;
  // an unsorted trace is fed in that order.
  const auto when = [&tree](const TraceRecord& record) { return tree.at(record); };
  std::vector<std::size_t> order;
  if (!std::ranges::is_sorted(tr.records, {}, when)) {
    order.resize(tr.records.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::ranges::sort(order, {},
                      [&](std::size_t i) { return std::pair{when(tr.records[i]), i}; });
  }
  tree.feed(tr.records, order);
  return tree.finish();
}

NetworkReplayResult replay_over_network(TraceSource& source,
                                        const NetworkReplayConfig& config,
                                        std::size_t chunk_records) {
  if (chunk_records == 0)
    throw std::invalid_argument("replay_over_network: chunk_records must be positive");
  DeploymentTree tree(config);
  std::vector<TraceRecord> chunk;
  chunk.reserve(chunk_records);
  double last_ts = 0.0;
  while (source.next_chunk(chunk, chunk_records)) {
    for (const TraceRecord& record : chunk) {
      if (record.timestamp_s < last_ts)
        throw std::invalid_argument(
            "replay_over_network: streaming replay requires a time-sorted trace");
      last_ts = record.timestamp_s;
      tree.validate(record);
    }
    // Execute everything up to the horizon of this chunk before pulling the
    // next one: the chunk's arrivals all dispatch by then, and in-flight
    // events stay pending.
    tree.feed(chunk);
    tree.sched_.run_until(tree.at(chunk.back()));
  }
  NetworkReplayResult result = tree.finish();
  result.malformed_records = source.stats().malformed;
  return result;
}

}  // namespace ndnp::trace
