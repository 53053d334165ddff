#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/rule_parser.h"
#include "src/serve/session_digest.h"
#include "src/serve/wire.h"
#include "src/util/crc32c.h"
#include "tests/test_util.h"

namespace emdbg {
namespace {

// ---------------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------------

TEST(WireTest, EncodeFrameRoundTripsThroughExtract) {
  std::string buffer;
  EncodeFrame("set_threshold 0 1 0.8", &buffer);
  EncodeFrame("run", &buffer);
  EncodeFrame("", &buffer);  // empty payloads are legal frames

  std::string payload;
  bool error = false;
  ASSERT_TRUE(ExtractFrame(&buffer, &payload, kMaxFrameBytes, &error));
  EXPECT_EQ(payload, "set_threshold 0 1 0.8");
  ASSERT_TRUE(ExtractFrame(&buffer, &payload, kMaxFrameBytes, &error));
  EXPECT_EQ(payload, "run");
  ASSERT_TRUE(ExtractFrame(&buffer, &payload, kMaxFrameBytes, &error));
  EXPECT_EQ(payload, "");
  EXPECT_FALSE(ExtractFrame(&buffer, &payload, kMaxFrameBytes, &error));
  EXPECT_FALSE(error);
  EXPECT_TRUE(buffer.empty());
}

TEST(WireTest, DecodeFrameLengthIsLittleEndian) {
  const char header[4] = {0x15, 0x00, 0x00, 0x00};
  EXPECT_EQ(DecodeFrameLength(header), 0x15u);
  const char big[4] = {0x01, 0x02, 0x03, 0x04};
  EXPECT_EQ(DecodeFrameLength(big), 0x04030201u);
}

TEST(WireTest, ExtractFrameWaitsForCompleteHeader) {
  std::string buffer;
  EncodeFrame("ping", &buffer);
  const std::string whole = buffer;

  std::string payload;
  bool error = false;
  // Feed byte by byte: no frame until the last byte arrives.
  buffer.clear();
  for (size_t i = 0; i < whole.size(); ++i) {
    buffer.push_back(whole[i]);
    const bool got = ExtractFrame(&buffer, &payload, kMaxFrameBytes, &error);
    EXPECT_FALSE(error);
    if (i + 1 < whole.size()) {
      EXPECT_FALSE(got) << "frame surfaced " << (whole.size() - i - 1)
                        << " bytes early";
    } else {
      EXPECT_TRUE(got);
      EXPECT_EQ(payload, "ping");
    }
  }
}

TEST(WireTest, ExtractFrameRejectsOversizedLength) {
  std::string buffer;
  EncodeFrame("this payload is longer than the cap", &buffer);
  std::string payload;
  bool error = false;
  EXPECT_FALSE(ExtractFrame(&buffer, &payload, /*max_frame=*/8, &error));
  EXPECT_TRUE(error) << "an oversized header is fatal for the connection";
}

TEST(WireTest, ExtractFrameLeavesFollowingBytesIntact) {
  std::string buffer;
  EncodeFrame("first", &buffer);
  buffer += "trailing-partial";
  std::string payload;
  bool error = false;
  ASSERT_TRUE(ExtractFrame(&buffer, &payload, kMaxFrameBytes, &error));
  EXPECT_EQ(payload, "first");
  EXPECT_EQ(buffer, "trailing-partial");
}

// ---------------------------------------------------------------------------
// Blocking fd IO (over a pipe; sockets go through the same code path).
// ---------------------------------------------------------------------------

class WireFdTest : public ::testing::Test {
 protected:
  WireFdTest() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::pipe(fds), 0);
    read_fd_ = fds[0];
    write_fd_ = fds[1];
  }
  ~WireFdTest() override {
    if (read_fd_ >= 0) ::close(read_fd_);
    if (write_fd_ >= 0) ::close(write_fd_);
  }
  int read_fd_ = -1;
  int write_fd_ = -1;
};

TEST_F(WireFdTest, WriteThenReadRoundTrips) {
  ASSERT_TRUE(WriteFrameFd(write_fd_, "hello frame").ok());
  ASSERT_TRUE(WriteFrameFd(write_fd_, "").ok());
  std::string payload;
  ASSERT_TRUE(ReadFrameFd(read_fd_, &payload).ok());
  EXPECT_EQ(payload, "hello frame");
  ASSERT_TRUE(ReadFrameFd(read_fd_, &payload).ok());
  EXPECT_EQ(payload, "");
}

TEST_F(WireFdTest, CleanEofIsIoError) {
  ::close(write_fd_);
  write_fd_ = -1;
  std::string payload;
  EXPECT_EQ(ReadFrameFd(read_fd_, &payload).code(), StatusCode::kIoError);
}

TEST_F(WireFdTest, EofMidFrameIsIoError) {
  // Header promising 100 bytes, then the peer dies after 3.
  const char header[4] = {100, 0, 0, 0};
  ASSERT_EQ(::write(write_fd_, header, 4), 4);
  ASSERT_EQ(::write(write_fd_, "abc", 3), 3);
  ::close(write_fd_);
  write_fd_ = -1;
  std::string payload;
  EXPECT_EQ(ReadFrameFd(read_fd_, &payload).code(), StatusCode::kIoError);
}

TEST_F(WireFdTest, OversizedLengthIsParseError) {
  const uint32_t huge = kMaxFrameBytes + 1;
  char header[4];
  std::memcpy(header, &huge, 4);
  ASSERT_EQ(::write(write_fd_, header, 4), 4);
  std::string payload;
  EXPECT_EQ(ReadFrameFd(read_fd_, &payload).code(), StatusCode::kParseError);
}

TEST_F(WireFdTest, LargePayloadSurvivesPipeBuffering) {
  // Bigger than a default pipe buffer (64 KiB), so the writer must block
  // and resume: exercises the partial-write loop in WriteFrameFd.
  const std::string big(300 * 1024, 'x');
  std::thread writer(
      [&] { EXPECT_TRUE(WriteFrameFd(write_fd_, big).ok()); });
  std::string payload;
  ASSERT_TRUE(ReadFrameFd(read_fd_, &payload).ok());
  EXPECT_EQ(payload, big);
  writer.join();
}

// ---------------------------------------------------------------------------
// Session state digest.
// ---------------------------------------------------------------------------

class SessionDigestTest : public ::testing::Test {
 protected:
  static std::unique_ptr<DebugSession> NewSession() {
    GeneratedDataset ds = testing::SmallProducts();
    return std::make_unique<DebugSession>(
        std::move(ds.a), std::move(ds.b), std::move(ds.candidates));
  }
};

TEST_F(SessionDigestTest, IdenticalHistoriesGiveIdenticalDigests) {
  auto s1 = NewSession();
  auto s2 = NewSession();
  for (DebugSession* s : {s1.get(), s2.get()}) {
    ASSERT_TRUE(s->AddRuleText("r1: jaccard(title, title) >= 0.5").ok());
    ASSERT_TRUE(s->AddRuleText("r2: jaccard(brand, brand) >= 0.7").ok());
  }
  EXPECT_EQ(SessionStateDigest(*s1), SessionStateDigest(*s2));
}

TEST_F(SessionDigestTest, DigestSeesRuleAndThresholdChanges) {
  auto s1 = NewSession();
  auto s2 = NewSession();
  for (DebugSession* s : {s1.get(), s2.get()}) {
    ASSERT_TRUE(s->AddRuleText("r1: jaccard(title, title) >= 0.5").ok());
  }
  const uint32_t same = SessionStateDigest(*s1);
  ASSERT_EQ(same, SessionStateDigest(*s2));

  // A threshold nudge too small to change any match decision must still
  // change the digest: the rule text is part of the fingerprint.
  const Rule& r1 = s2->function().rule(0);
  ASSERT_TRUE(s2->SetThreshold(r1.id(), r1.predicate(0).id, 0.5001).ok());
  EXPECT_NE(SessionStateDigest(*s2), same);
}

TEST_F(SessionDigestTest, DigestForcesARun) {
  auto s = NewSession();
  ASSERT_TRUE(s->AddRuleText("r1: jaccard(title, title) >= 0.5").ok());
  EXPECT_FALSE(s->has_run());
  (void)SessionStateDigest(*s);
  EXPECT_TRUE(s->has_run()) << "the digest covers match decisions, so it "
                               "must bring the session up to date first";
}

TEST_F(SessionDigestTest, PredicateOrderDoesNotMoveTheDigest) {
  // The same CNF written in two predicate orders, kept as written: one
  // logical state, so one digest.
  std::unique_ptr<DebugSession> sessions[2];
  const char* const texts[2] = {
      "r1: jaccard(title, title) >= 0.4 AND cosine(brand, brand) >= 0.5",
      "r1: cosine(brand, brand) >= 0.5 AND jaccard(title, title) >= 0.4"};
  for (int i = 0; i < 2; ++i) {
    GeneratedDataset ds = testing::SmallProducts();
    DebugSession::Options o;
    o.ordering = OrderingStrategy::kAsWritten;
    sessions[i] = std::make_unique<DebugSession>(
        std::move(ds.a), std::move(ds.b), std::move(ds.candidates), o);
    ASSERT_TRUE(sessions[i]->AddRuleText(texts[i]).ok());
  }
  ASSERT_NE(RuleToDsl(sessions[0]->function().rule(0),
                      sessions[0]->catalog()),
            RuleToDsl(sessions[1]->function().rule(0),
                      sessions[1]->catalog()))
      << "the two sessions must hold the predicates in different orders";
  EXPECT_EQ(sessions[0]->Run().Count(), sessions[1]->Run().Count());
  EXPECT_EQ(SessionStateDigest(*sessions[0]),
            SessionStateDigest(*sessions[1]));
}

TEST_F(SessionDigestTest, OnePredicateRulesHashAsTheirSortedRuleDsl) {
  // The line of a one-predicate rule is exactly RuleToDsl's, so a client
  // can recompute the digest: CRC-32C over the sorted RuleToDsl lines,
  // chained with the match bitmap words.
  auto s = NewSession();
  ASSERT_TRUE(s->AddRuleText("r2: jaccard(brand, brand) >= 0.7").ok());
  ASSERT_TRUE(s->AddRuleText("r1: jaccard(title, title) >= 0.5").ok());
  ASSERT_TRUE(s->AddRuleText("r3: trigram(modelno, modelno) >= 0.6").ok());
  const uint32_t digest = SessionStateDigest(*s);
  std::vector<std::string> lines;
  for (const Rule& rule : s->function().rules()) {
    ASSERT_EQ(rule.size(), 1u);
    lines.push_back(RuleToDsl(rule, s->catalog()));
  }
  std::sort(lines.begin(), lines.end());
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  const std::vector<uint64_t>& words = s->Run().words();
  EXPECT_EQ(digest, Crc32cExtend(Crc32c(text), words.data(),
                                 words.size() * sizeof(uint64_t)));
}

TEST_F(SessionDigestTest, EmptyRuleSetHasAStableDigest) {
  auto s1 = NewSession();
  auto s2 = NewSession();
  EXPECT_EQ(SessionStateDigest(*s1), SessionStateDigest(*s2));
  ASSERT_TRUE(s2->AddRuleText("r1: jaccard(title, title) >= 0.5").ok());
  EXPECT_NE(SessionStateDigest(*s1), SessionStateDigest(*s2));
}

}  // namespace
}  // namespace emdbg
