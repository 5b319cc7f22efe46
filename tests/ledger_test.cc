// BudgetLedger functional suite: WAL round-trips, overdraft rejection,
// torn-tail repair vs mid-log corruption, checkpoint compaction, and
// thread-count-independent concurrent charging.

#include "privacy/ledger.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/io_util.h"

namespace privateclean {
namespace {

namespace fs = std::filesystem;

class LedgerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = ::testing::TempDir() + "ledger_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(base_);
    fs::create_directories(base_);
  }
  void TearDown() override { fs::remove_all(base_); }

  std::string Dir(const std::string& name) { return base_ + "/" + name; }

  std::string base_;
};

TEST_F(LedgerTest, GrantChargeSurviveReopen) {
  const std::string dir = Dir("roundtrip");
  {
    auto ledger = BudgetLedger::Open(dir);
    ASSERT_TRUE(ledger.ok()) << ledger.status().ToString();
    ASSERT_TRUE(ledger->Grant("alice", 2.5).ok());
    ASSERT_TRUE(ledger->Relax("alice", 0.5).ok());
    ASSERT_TRUE(ledger->Charge("alice", 0.75).ok());
    ASSERT_TRUE(ledger->Grant("bob budget", 1.0).ok());  // spaces survive
    EXPECT_EQ(ledger->last_seq(), 4u);
  }
  auto reopened = BudgetLedger::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto alice = reopened->Budget("alice");
  ASSERT_TRUE(alice.ok());
  EXPECT_EQ(alice->granted, 3.0);  // bit-exact: ε rides as IEEE-754 bits
  EXPECT_EQ(alice->spent, 0.75);
  auto bob = reopened->Budget("bob budget");
  ASSERT_TRUE(bob.ok());
  EXPECT_EQ(bob->granted, 1.0);
  EXPECT_EQ(reopened->last_seq(), 4u);
}

TEST_F(LedgerTest, OverdraftIsTypedResourceExhaustedAndChargesNothing) {
  const std::string dir = Dir("overdraft");
  auto ledger = BudgetLedger::Open(dir);
  ASSERT_TRUE(ledger.ok());
  ASSERT_TRUE(ledger->Grant("alice", 1.0).ok());
  ASSERT_TRUE(ledger->Charge("alice", 0.75).ok());
  Status st = ledger->Charge("alice", 0.5);
  ASSERT_TRUE(st.IsResourceExhausted()) << st.ToString();
  // Names the tenant, spent, and remaining.
  EXPECT_NE(st.message().find("alice"), std::string::npos) << st.message();
  EXPECT_NE(st.message().find("spent ε=0.75"), std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find("remaining ε=0.25"), std::string::npos)
      << st.message();
  // The rejected charge left no trace, in memory or on disk.
  EXPECT_EQ(ledger->Budget("alice")->spent, 0.75);
  auto reopened = BudgetLedger::Open(dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->Budget("alice")->spent, 0.75);
  // A never-granted tenant has zero allowance.
  EXPECT_TRUE(ledger->Charge("nobody", 0.1).IsResourceExhausted());
}

TEST_F(LedgerTest, RelaxTopsUpAnExhaustedTenant) {
  const std::string dir = Dir("relax");
  auto ledger = BudgetLedger::Open(dir);
  ASSERT_TRUE(ledger.ok());
  ASSERT_TRUE(ledger->Grant("t", 1.0).ok());
  ASSERT_TRUE(ledger->Charge("t", 1.0).ok());
  ASSERT_TRUE(ledger->Charge("t", 0.25).IsResourceExhausted());
  ASSERT_TRUE(ledger->Relax("t", 0.25).ok());  // gradual release
  EXPECT_TRUE(ledger->Charge("t", 0.25).ok());
  EXPECT_EQ(ledger->Budget("t")->remaining(), 0.0);
}

TEST_F(LedgerTest, ValidationRejectsBadTenantsAndEpsilons) {
  auto ledger = BudgetLedger::Open(Dir("validate"));
  ASSERT_TRUE(ledger.ok());
  EXPECT_TRUE(ledger->Grant("", 1.0).IsInvalidArgument());
  EXPECT_TRUE(ledger->Grant("a\nb", 1.0).IsInvalidArgument());
  EXPECT_TRUE(ledger->Grant("t", 0.0).IsInvalidArgument());
  EXPECT_TRUE(ledger->Grant("t", -1.0).IsInvalidArgument());
  EXPECT_TRUE(ledger->Charge("t", std::nan("")).IsInvalidArgument());
  EXPECT_TRUE(ledger->Budget("unknown").status().IsNotFound());
  EXPECT_EQ(ledger->last_seq(), 0u);  // nothing was admitted to the WAL
}

TEST_F(LedgerTest, TornTailIsTruncatedAndRepairIsIdempotent) {
  const std::string dir = Dir("torn");
  {
    auto ledger = BudgetLedger::Open(dir);
    ASSERT_TRUE(ledger.ok());
    ASSERT_TRUE(ledger->Grant("t", 4.0).ok());
    ASSERT_TRUE(ledger->Charge("t", 0.5).ok());
  }
  // Tear the WAL mid-frame, as a crash during an un-fsynced append
  // would: drop the last 3 bytes.
  const std::string wal = dir + "/ledger.wal";
  auto bytes = io::ReadFileToString(wal);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(
      io::WriteFileDurable(wal, bytes->substr(0, bytes->size() - 3)).ok());

  auto recovered = BudgetLedger::Open(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  auto budget = recovered->Budget("t");
  ASSERT_TRUE(budget.ok());
  EXPECT_EQ(budget->granted, 4.0);
  EXPECT_EQ(budget->spent, 0.0);  // the torn charge was never acknowledged
  // Repair happened on disk, so a second recovery sees the same state
  // and the same bytes.
  auto repaired = io::ReadFileToString(wal);
  ASSERT_TRUE(repaired.ok());
  auto again = BudgetLedger::Open(dir);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->Budget("t")->granted, 4.0);
  EXPECT_EQ(*io::ReadFileToString(wal), *repaired);
  // The repaired ledger accepts new records.
  EXPECT_TRUE(again->Charge("t", 0.25).ok());
}

TEST_F(LedgerTest, MidLogCorruptionIsDataLossNamingFileAndByte) {
  const std::string dir = Dir("bitflip");
  {
    auto ledger = BudgetLedger::Open(dir);
    ASSERT_TRUE(ledger.ok());
    ASSERT_TRUE(ledger->Grant("t", 4.0).ok());
    ASSERT_TRUE(ledger->Charge("t", 0.5).ok());
    ASSERT_TRUE(ledger->Charge("t", 0.25).ok());
  }
  const std::string wal = dir + "/ledger.wal";
  auto bytes = io::ReadFileToString(wal);
  ASSERT_TRUE(bytes.ok());
  std::string damaged = *bytes;
  damaged[damaged.size() / 2] ^= 0x01;  // flip one bit mid-log
  ASSERT_TRUE(io::WriteFileDurable(wal, damaged).ok());

  auto recovered = BudgetLedger::Open(dir);
  ASSERT_FALSE(recovered.ok());
  EXPECT_TRUE(recovered.status().IsDataLoss())
      << recovered.status().ToString();
  EXPECT_NE(recovered.status().message().find(wal), std::string::npos)
      << recovered.status().message();
  EXPECT_NE(recovered.status().message().find("at byte"), std::string::npos)
      << recovered.status().message();
  // Refusal means no repair: the damaged file is untouched.
  EXPECT_EQ(*io::ReadFileToString(wal), damaged);
}

TEST_F(LedgerTest, CheckpointCompactsAndPreservesState) {
  const std::string dir = Dir("ckpt");
  {
    BudgetLedger::Options options;
    options.checkpoint_every = 0;  // manual
    auto ledger = BudgetLedger::Open(dir, options);
    ASSERT_TRUE(ledger.ok());
    ASSERT_TRUE(ledger->Grant("a", 2.0).ok());
    ASSERT_TRUE(ledger->Charge("a", 0.5).ok());
    ASSERT_TRUE(ledger->Grant("b", 1.0).ok());
    EXPECT_EQ(ledger->records_since_checkpoint(), 3u);
    ASSERT_TRUE(ledger->Checkpoint().ok());
    EXPECT_EQ(ledger->records_since_checkpoint(), 0u);
    // The WAL is retired; the checkpoint holds the whole state.
    EXPECT_EQ(fs::file_size(dir + "/ledger.wal"), 0u);
    ASSERT_TRUE(ledger->Charge("b", 0.25).ok());  // lands in the fresh WAL
    EXPECT_EQ(ledger->records_since_checkpoint(), 1u);
  }
  auto reopened = BudgetLedger::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->Budget("a")->granted, 2.0);
  EXPECT_EQ(reopened->Budget("a")->spent, 0.5);
  EXPECT_EQ(reopened->Budget("b")->granted, 1.0);
  EXPECT_EQ(reopened->Budget("b")->spent, 0.25);
  EXPECT_EQ(reopened->last_seq(), 4u);  // sequence survives compaction
}

TEST_F(LedgerTest, AutoCheckpointTriggersAtThreshold) {
  const std::string dir = Dir("autockpt");
  BudgetLedger::Options options;
  options.checkpoint_every = 4;
  auto ledger = BudgetLedger::Open(dir, options);
  ASSERT_TRUE(ledger.ok());
  ASSERT_TRUE(ledger->Grant("t", 100.0).ok());
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(ledger->Charge("t", 0.25).ok());
  }
  // 8 records total: compaction fired at the 4th; 8 % 4 == 0 fired again.
  EXPECT_EQ(ledger->records_since_checkpoint(), 0u);
  EXPECT_TRUE(fs::exists(dir + "/ledger.ckpt"));
  auto reopened = BudgetLedger::Open(dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->Budget("t")->spent, 1.75);
}

TEST_F(LedgerTest, CorruptCheckpointIsDataLoss) {
  const std::string dir = Dir("badckpt");
  {
    auto ledger = BudgetLedger::Open(dir);
    ASSERT_TRUE(ledger.ok());
    ASSERT_TRUE(ledger->Grant("t", 1.0).ok());
    ASSERT_TRUE(ledger->Checkpoint().ok());
  }
  const std::string ckpt = dir + "/ledger.ckpt";
  auto bytes = io::ReadFileToString(ckpt);
  ASSERT_TRUE(bytes.ok());
  std::string damaged = *bytes;
  damaged[damaged.find("tenant: ")] ^= 0x01;
  ASSERT_TRUE(io::WriteFileDurable(ckpt, damaged).ok());
  auto recovered = BudgetLedger::Open(dir);
  ASSERT_FALSE(recovered.ok());
  EXPECT_TRUE(recovered.status().IsDataLoss())
      << recovered.status().ToString();
  EXPECT_NE(recovered.status().message().find(ckpt), std::string::npos);
}

/// Charges split across 1, 2, and 8 threads commit in sequence order and
/// sum to the identical spent ε at every thread count (dyadic values, so
/// floating-point addition cannot smear the comparison).
TEST_F(LedgerTest, ConcurrentChargesAreThreadCountIndependent) {
  constexpr int kCharges = 64;
  double reference_spent = -1.0;
  for (int threads : {1, 2, 8}) {
    const std::string dir = Dir("mt" + std::to_string(threads));
    auto opened = BudgetLedger::Open(dir);
    ASSERT_TRUE(opened.ok());
    BudgetLedger ledger = std::move(*opened);
    ASSERT_TRUE(ledger.Grant("t", 64.0).ok());
    std::vector<std::thread> workers;
    const int per_thread = kCharges / threads;
    for (int w = 0; w < threads; ++w) {
      workers.emplace_back([&ledger, per_thread] {
        for (int i = 0; i < per_thread; ++i) {
          ASSERT_TRUE(ledger.Charge("t", 0.25).ok());
        }
      });
    }
    for (auto& worker : workers) worker.join();
    auto budget = ledger.Budget("t");
    ASSERT_TRUE(budget.ok());
    EXPECT_EQ(budget->spent, 16.0) << threads << " threads";
    EXPECT_EQ(ledger.last_seq(), static_cast<uint64_t>(kCharges) + 1);
    if (reference_spent < 0) reference_spent = budget->spent;
    EXPECT_EQ(budget->spent, reference_spent) << threads << " threads";
    // Replay agrees with the live image at every thread count.
    auto reopened = BudgetLedger::Open(dir);
    ASSERT_TRUE(reopened.ok());
    EXPECT_EQ(reopened->Budget("t")->spent, reference_spent);
  }
}

/// Concurrent overdraft: 8 threads race 16 charges of 0.25 against a
/// budget of 2.0 — exactly 8 must be admitted, never 9, at any
/// interleaving, because check-and-spend is atomic.
TEST_F(LedgerTest, ConcurrentChargesNeverJointlyOverdraft) {
  const std::string dir = Dir("race");
  auto opened = BudgetLedger::Open(dir);
  ASSERT_TRUE(opened.ok());
  BudgetLedger ledger = std::move(*opened);
  ASSERT_TRUE(ledger.Grant("t", 2.0).ok());
  std::atomic<int> admitted{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 8; ++w) {
    workers.emplace_back([&ledger, &admitted] {
      for (int i = 0; i < 2; ++i) {
        Status st = ledger.Charge("t", 0.25);
        if (st.ok()) {
          admitted.fetch_add(1);
        } else {
          ASSERT_TRUE(st.IsResourceExhausted()) << st.ToString();
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(admitted.load(), 8);
  EXPECT_EQ(ledger.Budget("t")->spent, 2.0);
  auto reopened = BudgetLedger::Open(dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->Budget("t")->spent, 2.0);
}

TEST_F(LedgerTest, SnapshotListsAllTenantsSorted) {
  auto ledger = BudgetLedger::Open(Dir("snapshot"));
  ASSERT_TRUE(ledger.ok());
  ASSERT_TRUE(ledger->Grant("zeta", 1.0).ok());
  ASSERT_TRUE(ledger->Grant("alpha", 2.0).ok());
  auto snapshot = ledger->Snapshot();
  ASSERT_TRUE(snapshot.ok());
  ASSERT_EQ(snapshot->size(), 2u);
  EXPECT_EQ(snapshot->begin()->first, "alpha");
}

}  // namespace
}  // namespace privateclean
