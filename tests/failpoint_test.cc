// Unit tests for the failpoint registry (common/failpoint.h) and the
// durable I/O helpers it instruments (common/io_util.h): activation,
// env-spec parsing, counted faults, data faults, and the typed statuses
// each injection produces.

#include "common/failpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string_view>
#include <vector>

#include "common/io_util.h"

namespace privateclean {
namespace {

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(failpoint::CompiledIn())
        << "tests must build with -DPCLEAN_FAILPOINTS=ON";
    failpoint::DeactivateAll();
    failpoint::ResetHits();
    dir_ = ::testing::TempDir() + "/pclean_failpoint_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    failpoint::DeactivateAll();
    std::filesystem::remove_all(dir_);
  }

  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  std::string dir_;
};

TEST_F(FailpointTest, CatalogueIsStableAndNonEmpty) {
  const auto& sites = failpoint::Sites();
  ASSERT_FALSE(sites.empty());
  EXPECT_NE(std::find(sites.begin(), sites.end(), "io.read.open"),
            sites.end());
  EXPECT_NE(std::find(sites.begin(), sites.end(), "release.commit.rename"),
            sites.end());
}

TEST_F(FailpointTest, ActivateRejectsUnknownSite) {
  Status st = failpoint::Activate("io.read.nonsense", failpoint::Fault{});
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("io.read.nonsense"), std::string::npos);
}

TEST_F(FailpointTest, ErrorFaultCarriesSiteDetailAndCode) {
  failpoint::Fault fault;
  fault.code = StatusCode::kNotFound;
  fault.message = "vanished";
  ASSERT_TRUE(failpoint::Activate("io.read.open", fault).ok());
  ASSERT_TRUE(io::WriteFileDurable(Path("f"), "payload\n").ok());
  auto read = io::ReadFileToString(Path("f"));
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsNotFound());
  EXPECT_NE(read.status().message().find("io.read.open"), std::string::npos);
  EXPECT_NE(read.status().message().find(Path("f")), std::string::npos);
  EXPECT_NE(read.status().message().find("vanished"), std::string::npos);

  failpoint::Deactivate("io.read.open");
  EXPECT_TRUE(io::ReadFileToString(Path("f")).ok());
}

TEST_F(FailpointTest, CountedFaultFiresThenExpires) {
  failpoint::Fault fault;
  fault.remaining = 2;
  ASSERT_TRUE(failpoint::Activate("io.read.transient", fault).ok());
  ASSERT_TRUE(io::WriteFileDurable(Path("f"), "data\n").ok());
  EXPECT_TRUE(io::ReadFileToString(Path("f")).status().IsIOError());
  EXPECT_TRUE(io::ReadFileToString(Path("f")).status().IsIOError());
  EXPECT_TRUE(io::ReadFileToString(Path("f")).ok());
}

TEST_F(FailpointTest, RetryOutlastsTransientFaults) {
  // Two injected transient failures, then success: the bounded retry
  // loop must deliver the file.
  failpoint::Fault fault;
  fault.remaining = 2;
  ASSERT_TRUE(failpoint::Activate("io.read.transient", fault).ok());
  ASSERT_TRUE(io::WriteFileDurable(Path("f"), "data\n").ok());
  auto read = io::ReadFileWithRetry(Path("f"));
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.ValueOrDie(), "data\n");
}

TEST_F(FailpointTest, RetryGivesUpAfterMaxAttempts) {
  ASSERT_TRUE(failpoint::Activate("io.read.transient",
                                  failpoint::DefaultFault("io.read.transient"))
                  .ok());
  ASSERT_TRUE(io::WriteFileDurable(Path("f"), "data\n").ok());
  io::RetryOptions retry;
  retry.max_attempts = 3;
  retry.initial_backoff_ms = 0;
  auto read = io::ReadFileWithRetry(Path("f"), retry);
  ASSERT_TRUE(read.status().IsIOError());
  EXPECT_NE(read.status().message().find("after 3 attempts"),
            std::string::npos);
}

TEST_F(FailpointTest, RetryJitterSleepsStayUnderTheDoublingCaps) {
  // Persistent transient fault: every attempt fails, so the loop sleeps
  // max_attempts - 1 times. With full jitter each sleep is uniform in
  // [0, cap] where the cap doubles: 4, 8, 16 ms here.
  ASSERT_TRUE(failpoint::Activate("io.read.transient",
                                  failpoint::DefaultFault("io.read.transient"))
                  .ok());
  ASSERT_TRUE(io::WriteFileDurable(Path("f"), "data\n").ok());
  io::RetryOptions retry;
  retry.max_attempts = 4;
  retry.initial_backoff_ms = 4;
  retry.jitter_seed = 20260808;
  std::vector<int> sleeps;
  retry.sleep_fn = [&sleeps](int ms) { sleeps.push_back(ms); };
  auto read = io::ReadFileWithRetry(Path("f"), retry);
  ASSERT_TRUE(read.status().IsIOError());
  ASSERT_EQ(sleeps.size(), 3u);
  int cap = 4;
  int total = 0;
  for (int ms : sleeps) {
    EXPECT_GE(ms, 0);
    EXPECT_LE(ms, cap);
    cap *= 2;
    total += ms;
  }
  EXPECT_LE(total, retry.max_total_backoff_ms);
}

TEST_F(FailpointTest, RetryZeroJitterSeedSleepsTheFullCaps) {
  ASSERT_TRUE(failpoint::Activate("io.read.transient",
                                  failpoint::DefaultFault("io.read.transient"))
                  .ok());
  ASSERT_TRUE(io::WriteFileDurable(Path("f"), "data\n").ok());
  io::RetryOptions retry;
  retry.max_attempts = 4;
  retry.initial_backoff_ms = 4;
  retry.jitter_seed = 0;  // jitter off: deterministic worst-case backoff
  std::vector<int> sleeps;
  retry.sleep_fn = [&sleeps](int ms) { sleeps.push_back(ms); };
  EXPECT_TRUE(io::ReadFileWithRetry(Path("f"), retry).status().IsIOError());
  EXPECT_EQ(sleeps, (std::vector<int>{4, 8, 16}));
}

TEST_F(FailpointTest, RetryTotalBackoffBudgetEndsTheLoopEarly) {
  ASSERT_TRUE(failpoint::Activate("io.read.transient",
                                  failpoint::DefaultFault("io.read.transient"))
                  .ok());
  ASSERT_TRUE(io::WriteFileDurable(Path("f"), "data\n").ok());
  io::RetryOptions retry;
  retry.max_attempts = 10;
  retry.initial_backoff_ms = 4;
  retry.max_total_backoff_ms = 5;
  retry.jitter_seed = 0;
  std::vector<int> sleeps;
  retry.sleep_fn = [&sleeps](int ms) { sleeps.push_back(ms); };
  auto read = io::ReadFileWithRetry(Path("f"), retry);
  ASSERT_TRUE(read.status().IsIOError());
  // Caps would be 4, 8, 16, ... but the 5 ms budget clips the second
  // sleep to 1 ms and ends the loop before the third: 3 attempts, not
  // 10, and the summed sleep never exceeds the budget.
  EXPECT_EQ(sleeps, (std::vector<int>{4, 1}));
  EXPECT_NE(read.status().message().find("after 3 attempts"),
            std::string::npos)
      << read.status().message();
}

TEST_F(FailpointTest, RetryDoesNotRetryNotFound) {
  failpoint::ResetHits();
  auto read = io::ReadFileWithRetry(Path("missing"));
  EXPECT_TRUE(read.status().IsNotFound());
  // One open attempt only: NotFound is permanent, not transient.
  EXPECT_EQ(failpoint::Hits("io.read.open"), 1u);
}

TEST_F(FailpointTest, BitFlipFaultCorruptsReadBytes) {
  ASSERT_TRUE(io::WriteFileDurable(Path("f"), "abcdefgh\n").ok());
  ASSERT_TRUE(failpoint::Activate("io.read.bitflip",
                                  failpoint::DefaultFault("io.read.bitflip"))
                  .ok());
  auto read = io::ReadFileToString(Path("f"));
  ASSERT_TRUE(read.ok());  // The device "succeeds"; the bytes are wrong.
  EXPECT_NE(read.ValueOrDie(), "abcdefgh\n");
  EXPECT_EQ(read.ValueOrDie().size(), 9u);
}

TEST_F(FailpointTest, TruncateFaultDropsTail) {
  ASSERT_TRUE(io::WriteFileDurable(Path("f"), "abcdefgh\n").ok());
  ASSERT_TRUE(failpoint::Activate("io.read.truncate",
                                  failpoint::DefaultFault("io.read.truncate"))
                  .ok());
  auto read = io::ReadFileToString(Path("f"));
  ASSERT_TRUE(read.ok());
  EXPECT_LT(read.ValueOrDie().size(), 9u);
}

TEST_F(FailpointTest, ShortWriteLeavesTornFileBehind) {
  ASSERT_TRUE(failpoint::Activate("io.write.short",
                                  failpoint::DefaultFault("io.write.short"))
                  .ok());
  // The write "succeeds" — the device dropped the tail silently.
  ASSERT_TRUE(io::WriteFileDurable(Path("f"), "0123456789\n").ok());
  failpoint::DeactivateAll();
  auto read = io::ReadFileToString(Path("f"));
  ASSERT_TRUE(read.ok());
  EXPECT_LT(read.ValueOrDie().size(), 11u);
}

TEST_F(FailpointTest, EnospcFaultReportsErrorWithPartialFile) {
  ASSERT_TRUE(failpoint::Activate("io.write.enospc",
                                  failpoint::DefaultFault("io.write.enospc"))
                  .ok());
  Status st = io::WriteFileDurable(Path("f"), "0123456789\n");
  ASSERT_TRUE(st.IsIOError());
  EXPECT_NE(st.message().find("ENOSPC"), std::string::npos);
  failpoint::DeactivateAll();
  // A partial prefix was persisted — exactly the torn state a full disk
  // leaves behind.
  auto read = io::ReadFileToString(Path("f"));
  ASSERT_TRUE(read.ok());
  EXPECT_LT(read.ValueOrDie().size(), 11u);
}

TEST_F(FailpointTest, SpecParsesSiteActionAndCount) {
  ASSERT_TRUE(io::WriteFileDurable(Path("pre"), "x\n").ok());
  ASSERT_TRUE(
      failpoint::ActivateFromSpec("io.read.transient=notfound:1;io.write.fsync")
          .ok());

  // io.write.fsync active with the default error fault.
  failpoint::Deactivate("io.read.transient");
  Status st = io::WriteFileDurable(Path("f"), "x\n");
  EXPECT_TRUE(st.IsIOError());
  EXPECT_NE(st.message().find("io.write.fsync"), std::string::npos);
  failpoint::Deactivate("io.write.fsync");

  // Counted NotFound: fires once, then the site is spent.
  ASSERT_TRUE(failpoint::ActivateFromSpec("io.read.transient=notfound:1").ok());
  EXPECT_TRUE(io::ReadFileToString(Path("pre")).status().IsNotFound());
  EXPECT_TRUE(io::ReadFileToString(Path("pre")).ok());
}

TEST_F(FailpointTest, SpecRejectsUnknownSiteActionAndBadCount) {
  EXPECT_TRUE(failpoint::ActivateFromSpec("no.such.site").IsInvalidArgument());
  EXPECT_TRUE(failpoint::ActivateFromSpec("io.read.open=explode")
                  .IsInvalidArgument());
  EXPECT_TRUE(
      failpoint::ActivateFromSpec("io.read.open:zero").IsInvalidArgument());
}

TEST_F(FailpointTest, HitsCountEveryVisitEvenWhenInactive) {
  failpoint::ResetHits();
  ASSERT_TRUE(io::WriteFileDurable(Path("f"), "x\n").ok());
  ASSERT_TRUE(io::ReadFileToString(Path("f")).ok());
  EXPECT_EQ(failpoint::Hits("io.write.open"), 1u);
  EXPECT_EQ(failpoint::Hits("io.read.open"), 1u);
  EXPECT_EQ(failpoint::Hits("io.read.bitflip"), 1u);
  EXPECT_EQ(failpoint::Hits("release.commit.rename"), 0u);
}

/// Bit-at-a-time CRC32C, the definition the table kernel must match.
uint32_t BytewiseCrc32c(uint32_t crc, std::string_view data) {
  crc = ~crc;
  for (unsigned char c : data) {
    crc ^= c;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0u);
    }
  }
  return ~crc;
}

TEST_F(FailpointTest, Crc32cMatchesKnownVectors) {
  // RFC 3720 test vectors for CRC32C (Castagnoli).
  EXPECT_EQ(io::Crc32c(""), 0x00000000u);
  EXPECT_EQ(io::Crc32c("123456789"), 0xE3069283u);
  std::string zeros(32, '\0');
  EXPECT_EQ(io::Crc32c(zeros), 0x8A9136AAu);
  // Against the bytewise reference: every length 0-64 at every start
  // offset 0-7 covers the 8-byte main loop, the byte tail and unaligned
  // input; splitting each input at every point checks that Crc32cExtend
  // chains across calls.
  std::string buffer(64 + 8, '\0');
  for (size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<char>((i * 167 + 13) ^ (i >> 3));
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 64; ++length) {
      const std::string_view data(buffer.data() + offset, length);
      const uint32_t want = BytewiseCrc32c(0, data);
      ASSERT_EQ(io::Crc32c(data), want)
          << "offset " << offset << " length " << length;
      for (size_t split = 0; split <= length; ++split) {
        ASSERT_EQ(io::Crc32cExtend(io::Crc32c(data.substr(0, split)),
                                   data.substr(split)),
                  want)
            << "offset " << offset << " length " << length << " split "
            << split;
      }
    }
  }
}

TEST_F(FailpointTest, Crc32cHexRoundTrips) {
  uint32_t crc = io::Crc32c("payload");
  std::string hex = io::Crc32cToHex(crc);
  EXPECT_EQ(hex.size(), 8u);
  auto back = io::Crc32cFromHex(hex);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.ValueOrDie(), crc);
  EXPECT_TRUE(io::Crc32cFromHex("xyz").status().IsInvalidArgument());
  EXPECT_TRUE(io::Crc32cFromHex("0123456g").status().IsInvalidArgument());
}

}  // namespace
}  // namespace privateclean
