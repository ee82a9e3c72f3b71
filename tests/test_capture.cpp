// Packet capture on simulated links, read from the flight recorder. Every
// packet a node sends leaves an interest_tx / data_tx / nack_tx event at the
// sender, then link_enqueue (or link_drop when the link loses it) at the
// sender and link_dequeue at the receiver.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/apps.hpp"
#include "sim/fetch_util.hpp"
#include "sim/forwarder.hpp"
#include "util/tracing.hpp"

namespace ndnp::sim {
namespace {

using util::TraceEvent;
using util::TraceEventType;

/// The events of one type, in recording order.
std::vector<TraceEvent> events_of(const util::Tracer& tracer, TraceEventType type) {
  std::vector<TraceEvent> out;
  for (const TraceEvent& event : tracer.events())
    if (event.type == type) out.push_back(event);
  return out;
}

TEST(PacketTap, RecordsBothDirections) {
  Scheduler sched;
  Consumer consumer(sched, "C", 1);
  Producer producer(sched, "P", ndn::Name("/p"), "key", {}, 2);
  LinkConfig link;
  link.latency = util::millis(1);
  connect(consumer, producer, link);

  util::Tracer tracer;
  util::TracerBinding binding(&tracer);
  ASSERT_TRUE(fetch_blocking(consumer, {.name = ndn::Name("/p/x")}));

  const std::vector<TraceEvent> interests = events_of(tracer, TraceEventType::kInterestTx);
  ASSERT_EQ(interests.size(), 1u);
  EXPECT_EQ(tracer.label(interests[0].node), "C");
  EXPECT_EQ(interests[0].name, "/p/x");
  EXPECT_EQ(interests[0].time, 0);

  const std::vector<TraceEvent> data = events_of(tracer, TraceEventType::kDataTx);
  ASSERT_EQ(data.size(), 1u);
  EXPECT_EQ(tracer.label(data[0].node), "P");
  EXPECT_EQ(data[0].name, "/p/x");
  EXPECT_GT(data[0].time, util::millis(1) - 1);

  // Each crossing arrives at the other end.
  const std::vector<TraceEvent> arrivals = events_of(tracer, TraceEventType::kLinkDequeue);
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(tracer.label(arrivals[0].node), "P");
  EXPECT_EQ(arrivals[0].detail, "kind=interest");
  EXPECT_EQ(tracer.label(arrivals[1].node), "C");
  EXPECT_EQ(arrivals[1].detail, "kind=data");
}

TEST(PacketTap, RecordsNacks) {
  Scheduler sched;
  Consumer consumer(sched, "C", 1);
  Forwarder router(sched, "R", {});  // no routes: NACK
  LinkConfig link;
  link.latency = util::millis(1);
  connect(consumer, router, link);

  util::Tracer tracer;
  util::TracerBinding binding(&tracer);
  consumer.fetch(ndn::Name("/nowhere"), [](const ndn::Data&, util::SimDuration) {});
  sched.run();

  const std::vector<TraceEvent> nacks = events_of(tracer, TraceEventType::kNackTx);
  ASSERT_EQ(nacks.size(), 1u);
  EXPECT_EQ(tracer.label(nacks[0].node), "R");
  EXPECT_EQ(nacks[0].name, "/nowhere");
  const std::vector<TraceEvent> arrivals = events_of(tracer, TraceEventType::kLinkDequeue);
  ASSERT_FALSE(arrivals.empty());
  EXPECT_EQ(tracer.label(arrivals.back().node), "C");
  EXPECT_EQ(arrivals.back().detail, "kind=nack");
}

TEST(PacketTap, SeesPacketsTheLinkLoses) {
  Scheduler sched;
  Consumer consumer(sched, "C", 1);
  Producer producer(sched, "P", ndn::Name("/p"), "key", {}, 2);
  LinkConfig link;
  link.latency = util::millis(1);
  link.loss_probability = 1.0;  // everything dropped in flight
  connect(consumer, producer, link);

  util::Tracer tracer;
  util::TracerBinding binding(&tracer);
  consumer.fetch(ndn::Name("/p/x"), [](const ndn::Data&, util::SimDuration) {});
  sched.run();

  // The sender's event is recorded even though the link loses the packet.
  EXPECT_EQ(events_of(tracer, TraceEventType::kInterestTx).size(), 1u);
  const std::vector<TraceEvent> drops = events_of(tracer, TraceEventType::kLinkDrop);
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(tracer.label(drops[0].node), "C");
  EXPECT_EQ(drops[0].name, "/p/x");
  EXPECT_EQ(drops[0].detail, "kind=interest");
  EXPECT_TRUE(events_of(tracer, TraceEventType::kLinkDequeue).empty());
  EXPECT_EQ(producer.interests_served(), 0u);
}

TEST(PacketTap, NoTapNoOverheadPathStillWorks) {
  // With no tracer bound, links behave exactly as before (smoke check).
  Scheduler sched;
  Consumer consumer(sched, "C", 1);
  Producer producer(sched, "P", ndn::Name("/p"), "key", {}, 2);
  LinkConfig link;
  link.latency = util::millis(1);
  connect(consumer, producer, link);
  EXPECT_TRUE(fetch_blocking(consumer, {.name = ndn::Name("/p/x")}));
}

}  // namespace
}  // namespace ndnp::sim
