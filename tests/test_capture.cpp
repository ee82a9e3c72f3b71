#include "sim/capture.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <sstream>

#include "sim/apps.hpp"
#include "sim/fetch_util.hpp"
#include "sim/forwarder.hpp"

namespace ndnp::sim {
namespace {

TEST(PacketTap, RecordsBothDirections) {
  Scheduler sched;
  Consumer consumer(sched, "C", 1);
  Producer producer(sched, "P", ndn::Name("/p"), "key", {}, 2);
  LinkConfig link;
  link.latency = util::millis(1);
  link.tap = std::make_shared<PacketTap>();
  connect(consumer, producer, link);

  ASSERT_TRUE(fetch_blocking(consumer, {.name = ndn::Name("/p/x")}));

  ASSERT_EQ(link.tap->size(), 2u);
  EXPECT_EQ(link.tap->count(PacketKind::kInterest), 1u);
  EXPECT_EQ(link.tap->count(PacketKind::kData), 1u);

  const CapturedPacket& interest = link.tap->packets()[0];
  EXPECT_EQ(interest.sender, "C");
  EXPECT_EQ(interest.receiver, "P");
  EXPECT_EQ(interest.name.to_uri(), "/p/x");
  EXPECT_EQ(interest.sent_at, 0);

  const CapturedPacket& data = link.tap->packets()[1];
  EXPECT_EQ(data.sender, "P");
  EXPECT_EQ(data.receiver, "C");
  EXPECT_GT(data.sent_at, util::millis(1) - 1);
}

TEST(PacketTap, WireBytesDecodeBackToPackets) {
  Scheduler sched;
  Consumer consumer(sched, "C", 1);
  Producer producer(sched, "P", ndn::Name("/p"), "key", {}, 2);
  LinkConfig link;
  link.latency = util::millis(1);
  link.tap = std::make_shared<PacketTap>();
  connect(consumer, producer, link);

  ndn::Interest probe;
  probe.name = ndn::Name("/p/doc");
  probe.must_be_fresh = true;
  consumer.express_interest(probe, [](const ndn::Data&, util::SimDuration) {});
  sched.run();

  const ndn::Interest decoded_interest =
      ndn::decode_interest(link.tap->packets()[0].wire);
  EXPECT_EQ(decoded_interest.name.to_uri(), "/p/doc");
  EXPECT_TRUE(decoded_interest.must_be_fresh);

  const ndn::Data decoded_data = ndn::decode_data(link.tap->packets()[1].wire);
  EXPECT_EQ(decoded_data.name.to_uri(), "/p/doc");
  EXPECT_EQ(decoded_data.producer, "P");
}

TEST(PacketTap, RecordsNacks) {
  Scheduler sched;
  Consumer consumer(sched, "C", 1);
  Forwarder router(sched, "R", {});  // no routes: NACK
  LinkConfig link;
  link.latency = util::millis(1);
  link.tap = std::make_shared<PacketTap>();
  connect(consumer, router, link);
  consumer.fetch(ndn::Name("/nowhere"), [](const ndn::Data&, util::SimDuration) {});
  sched.run();
  EXPECT_EQ(link.tap->count(PacketKind::kNack), 1u);
  EXPECT_EQ(link.tap->packets().back().sender, "R");
}

TEST(PacketTap, SeesPacketsTheLinkLoses) {
  Scheduler sched;
  Consumer consumer(sched, "C", 1);
  Producer producer(sched, "P", ndn::Name("/p"), "key", {}, 2);
  LinkConfig link;
  link.latency = util::millis(1);
  link.loss_probability = 1.0;  // everything dropped in flight
  link.tap = std::make_shared<PacketTap>();
  connect(consumer, producer, link);
  consumer.fetch(ndn::Name("/p/x"), [](const ndn::Data&, util::SimDuration) {});
  sched.run();
  EXPECT_EQ(link.tap->count(PacketKind::kInterest), 1u);  // tap sits at the sender
  EXPECT_EQ(producer.interests_served(), 0u);
}

TEST(PacketTap, DumpFormat) {
  Scheduler sched;
  Consumer consumer(sched, "C", 1);
  Producer producer(sched, "P", ndn::Name("/p"), "key", {}, 2);
  LinkConfig link;
  link.latency = util::millis(1);
  link.tap = std::make_shared<PacketTap>();
  connect(consumer, producer, link);
  consumer.fetch(ndn::Name("/p/x"), [](const ndn::Data&, util::SimDuration) {});
  sched.run();

  std::ostringstream out;
  link.tap->dump(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("C > P INTEREST /p/x"), std::string::npos);
  EXPECT_NE(text.find("P > C DATA /p/x"), std::string::npos);

  link.tap->clear();
  EXPECT_EQ(link.tap->size(), 0u);
}

TEST(PacketTap, NoTapNoOverheadPathStillWorks) {
  // Links without taps behave exactly as before (smoke check).
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
