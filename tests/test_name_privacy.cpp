#include "core/name_privacy.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

namespace ndnp::core {
namespace {

TEST(UnpredictableNames, BothPartiesDeriveSameName) {
  // Consumer and producer construct sessions independently from the shared
  // secret; names must agree for every sequence number.
  const UnpredictableNameSession consumer(ndn::Name("/alice/skype/0"), "shared", "a-to-b");
  const UnpredictableNameSession producer(ndn::Name("/alice/skype/0"), "shared", "a-to-b");
  for (std::uint64_t seq = 0; seq < 50; ++seq)
    EXPECT_EQ(consumer.name_for(seq), producer.name_for(seq));
}

TEST(UnpredictableNames, NameStructureIsBaseSeqRand) {
  const UnpredictableNameSession session(ndn::Name("/a/b"), "s", "l", 16);
  const ndn::Name name = session.name_for(7);
  ASSERT_EQ(name.size(), 4u);
  EXPECT_EQ(name.prefix(2).to_uri(), "/a/b");
  EXPECT_EQ(name.at(2), "7");
  EXPECT_EQ(name.at(3).size(), 16u);
}

TEST(UnpredictableNames, TokensDifferAcrossSequences) {
  const UnpredictableNameSession session(ndn::Name("/a"), "s", "l");
  std::unordered_set<std::string> tokens;
  for (std::uint64_t seq = 0; seq < 200; ++seq) tokens.insert(std::string(session.name_for(seq).last()));
  EXPECT_EQ(tokens.size(), 200u);
}

TEST(UnpredictableNames, DifferentSecretsGiveDifferentNames) {
  const UnpredictableNameSession a(ndn::Name("/a"), "secret-1", "l");
  const UnpredictableNameSession b(ndn::Name("/a"), "secret-2", "l");
  EXPECT_NE(a.name_for(0), b.name_for(0));
}

TEST(UnpredictableNames, DifferentLabelsGiveDifferentStreams) {
  const UnpredictableNameSession audio(ndn::Name("/a"), "s", "audio");
  const UnpredictableNameSession video(ndn::Name("/a"), "s", "video");
  EXPECT_NE(audio.name_for(0), video.name_for(0));
}

TEST(UnpredictableNames, InterestCarriesExactName) {
  const UnpredictableNameSession session(ndn::Name("/a"), "s", "l");
  const ndn::Interest interest = session.interest_for(3, /*nonce=*/42);
  EXPECT_EQ(interest.name, session.name_for(3));
  EXPECT_EQ(interest.nonce, 42u);
}

TEST(UnpredictableNames, DataIsExactMatchOnlyAndSigned) {
  const UnpredictableNameSession session(ndn::Name("/a"), "s", "l");
  const ndn::Data data = session.data_for(3, "frame", "alice", "alice-key");
  EXPECT_TRUE(data.exact_match_only);
  EXPECT_EQ(data.payload, "frame");
  // Footnote 5: the data must not satisfy a shorter-prefix interest.
  ndn::Interest prefix_probe;
  prefix_probe.name = ndn::Name("/a").append_number(3);
  EXPECT_FALSE(data.satisfies(prefix_probe));
  ndn::Interest exact;
  exact.name = data.name;
  EXPECT_TRUE(data.satisfies(exact));
}

TEST(UnpredictableNames, RejectsBadTokenLength) {
  EXPECT_THROW(UnpredictableNameSession(ndn::Name("/a"), "s", "l", 0), std::invalid_argument);
  EXPECT_THROW(UnpredictableNameSession(ndn::Name("/a"), "s", "l", 65), std::invalid_argument);
}

}  // namespace
}  // namespace ndnp::core
