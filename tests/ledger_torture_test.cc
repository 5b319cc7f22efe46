// Ledger crash-consistency torture: every ledger failpoint site is
// killed one at a time — and in randomized combinations — against the
// grant/charge/checkpoint/recover cycle. The monotonicity contract
// under any commit-path kill: after recovery, spent budget is never
// LESS than the sum of acknowledged charges, and exceeds it by at most
// the one commit that was in flight when the kill landed. Crashes,
// silent under-counting, and untyped errors are the only failures.

#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/io_util.h"
#include "common/random.h"
#include "privacy/ledger.h"

namespace privateclean {
namespace {

namespace fs = std::filesystem;

/// The closed set of codes a ledger operation may fail with.
bool IsTypedLedgerError(const Status& st) {
  return st.IsIOError() || st.IsDataLoss() || st.IsFailedPrecondition() ||
         st.IsNotFound() || st.IsResourceExhausted();
}

/// The commit-path sites: a kill here may lose the in-flight record but
/// never an acknowledged one, so the monotonicity bound applies.
const std::vector<std::string>& CommitPathSites() {
  static const std::vector<std::string> sites = {
      "ledger.wal.append", "ledger.wal.short",   "ledger.wal.fsync",
      "ledger.ckpt.write", "ledger.ckpt.rename", "ledger.recover.open",
  };
  return sites;
}

class LedgerTortureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::DeactivateAll();
    base_ = ::testing::TempDir() + "ledger_torture_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(base_);
    fs::create_directories(base_);
  }
  void TearDown() override {
    failpoint::DeactivateAll();
    fs::remove_all(base_);
  }

  std::string Dir(const std::string& name) { return base_ + "/" + name; }

  std::string base_;
};

/// Opens with every fault off; recovery of a healthy or torn-by-fault
/// ledger must always succeed.
BudgetLedger MustOpen(const std::string& dir) {
  auto opened = BudgetLedger::Open(dir);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return std::move(*opened);
}

TEST_F(LedgerTortureTest, KillAtEveryCommitSiteKeepsSpentMonotonic) {
  for (const std::string& site : CommitPathSites()) {
    SCOPED_TRACE(site);
    const std::string dir = Dir(site);
    BudgetLedger::Options options;
    options.checkpoint_every = 0;
    {
      auto opened = BudgetLedger::Open(dir, options);
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      BudgetLedger ledger = std::move(*opened);
      ASSERT_TRUE(ledger.Grant("t", 100.0).ok());

      double acknowledged = 0.0;  // charges that returned OK, fault-free
      double in_flight = 0.0;     // the at-most-one record a kill strands
      bool wounded = false;
      for (int i = 0; i < 6 && !wounded; ++i) {
        const bool arm = (i == 3);
        if (arm) {
          failpoint::Fault fault = failpoint::DefaultFault(site);
          fault.remaining = 1;
          ASSERT_TRUE(failpoint::Activate(site, fault).ok());
        }
        const uint64_t hits_before = failpoint::Hits(site);
        Status st = ledger.Charge("t", 0.25);
        const bool fired = failpoint::Hits(site) > hits_before && arm;
        if (st.ok()) {
          // An op during which the armed fault fired is treated as
          // in-flight even if it reported OK (a lying device may still
          // have persisted or dropped it — both are within the bound).
          if (fired) {
            in_flight += 0.25;
          } else {
            acknowledged += 0.25;
          }
        } else {
          ASSERT_TRUE(IsTypedLedgerError(st)) << st.ToString();
          in_flight += 0.25;
          wounded = ledger.wounded();
        }
        failpoint::Deactivate(site);
      }
      ASSERT_GT(in_flight + acknowledged, 0.0);

      // Checkpoint under fire must never lose state either; a failure
      // here is typed and leaves the ledger healthy (nothing new was
      // acknowledged on the compaction path).
      if (!wounded) {
        failpoint::Fault fault = failpoint::DefaultFault(site);
        fault.remaining = 1;
        ASSERT_TRUE(failpoint::Activate(site, fault).ok());
        Status ckpt = ledger.Checkpoint();
        failpoint::Deactivate(site);
        if (!ckpt.ok()) {
          ASSERT_TRUE(IsTypedLedgerError(ckpt));
        }
      }

      // Recovery: the kill may cost the in-flight record, never an
      // acknowledged one.
      auto recovered = BudgetLedger::Open(dir);
      ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
      auto budget = recovered->Budget("t");
      ASSERT_TRUE(budget.ok()) << budget.status().ToString();
      EXPECT_GE(budget->spent, acknowledged)
          << "recovery under-counted acknowledged spend";
      EXPECT_LE(budget->spent, acknowledged + in_flight + 1e-12)
          << "recovery over-counted beyond the in-flight record";
      EXPECT_EQ(budget->granted, 100.0);
      // The recovered ledger is fully serviceable.
      EXPECT_TRUE(recovered->Charge("t", 0.25).ok());
    }
  }
}

TEST_F(LedgerTortureTest, KillDuringRecoveryThenRecoveringAgainConverges) {
  const std::string dir = Dir("reentry");
  {
    BudgetLedger ledger = MustOpen(dir);
    ASSERT_TRUE(ledger.Grant("t", 8.0).ok());
    ASSERT_TRUE(ledger.Charge("t", 0.5).ok());
    // Tear the tail for real: a short append that the length
    // cross-check catches, wounding the ledger and leaving a torn
    // frame on disk.
    failpoint::Fault fault = failpoint::DefaultFault("ledger.wal.short");
    fault.remaining = 1;
    ASSERT_TRUE(failpoint::Activate("ledger.wal.short", fault).ok());
    Status st = ledger.Charge("t", 0.25);
    failpoint::Deactivate("ledger.wal.short");
    ASSERT_FALSE(st.ok());
    ASSERT_TRUE(ledger.wounded());
    // Wounded means fail-stop: every later op demands a reopen.
    ASSERT_TRUE(ledger.Charge("t", 0.25).IsFailedPrecondition());
    ASSERT_TRUE(ledger.Budget("t").status().IsFailedPrecondition());
  }

  // First recovery attempt dies at the recovery entry point — a crash
  // DURING recovery, before any repair.
  failpoint::Fault fault = failpoint::DefaultFault("ledger.recover.open");
  fault.remaining = 1;
  ASSERT_TRUE(failpoint::Activate("ledger.recover.open", fault).ok());
  auto crashed = BudgetLedger::Open(dir);
  failpoint::Deactivate("ledger.recover.open");
  ASSERT_FALSE(crashed.ok());
  ASSERT_TRUE(IsTypedLedgerError(crashed.status()));

  // Second recovery repairs the tear; third finds nothing to do. Both
  // land on the identical state AND identical WAL bytes.
  BudgetLedger second = MustOpen(dir);
  auto after_second = io::ReadFileToString(dir + "/ledger.wal");
  ASSERT_TRUE(after_second.ok());
  auto budget2 = second.Budget("t");
  ASSERT_TRUE(budget2.ok());
  EXPECT_EQ(budget2->granted, 8.0);
  EXPECT_EQ(budget2->spent, 0.5);  // the torn 0.25 was never acknowledged

  BudgetLedger third = MustOpen(dir);
  auto budget3 = third.Budget("t");
  ASSERT_TRUE(budget3.ok());
  EXPECT_EQ(budget3->granted, budget2->granted);
  EXPECT_EQ(budget3->spent, budget2->spent);
  EXPECT_EQ(*io::ReadFileToString(dir + "/ledger.wal"), *after_second);
}

TEST_F(LedgerTortureTest, SimulatedTornDiskRecoversIdempotently) {
  const std::string dir = Dir("torn_disk");
  {
    BudgetLedger ledger = MustOpen(dir);
    ASSERT_TRUE(ledger.Grant("t", 8.0).ok());
    for (int i = 0; i < 4; ++i) ASSERT_TRUE(ledger.Charge("t", 0.25).ok());
  }
  // The torn-recovery data fault serves recovery a half-length WAL
  // image, exactly what a disk that lost its tail would.
  failpoint::Fault fault = failpoint::DefaultFault("ledger.recover.torn");
  fault.remaining = 1;
  ASSERT_TRUE(failpoint::Activate("ledger.recover.torn", fault).ok());
  auto first = BudgetLedger::Open(dir);
  failpoint::Deactivate("ledger.recover.torn");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto budget1 = first->Budget("t");
  ASSERT_TRUE(budget1.ok());

  // Repair materialized the tear on disk, so recovering again — with
  // the disk now healthy — converges on the same state instead of
  // resurrecting records the first recovery already dropped.
  auto second = BudgetLedger::Open(dir);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  auto budget2 = second->Budget("t");
  ASSERT_TRUE(budget2.ok());
  EXPECT_EQ(budget2->granted, budget1->granted);
  EXPECT_EQ(budget2->spent, budget1->spent);
}

TEST_F(LedgerTortureTest, SimulatedBitRotIsDataLossNotSilentTruncation) {
  const std::string dir = Dir("bitrot");
  double full_spent = 0.0;
  {
    BudgetLedger ledger = MustOpen(dir);
    ASSERT_TRUE(ledger.Grant("t", 8.0).ok());
    for (int i = 0; i < 4; ++i) ASSERT_TRUE(ledger.Charge("t", 0.25).ok());
    full_spent = ledger.Budget("t")->spent;
  }
  failpoint::Fault fault = failpoint::DefaultFault("ledger.recover.bitflip");
  fault.remaining = 1;
  ASSERT_TRUE(failpoint::Activate("ledger.recover.bitflip", fault).ok());
  auto flipped = BudgetLedger::Open(dir);
  failpoint::Deactivate("ledger.recover.bitflip");
  ASSERT_FALSE(flipped.ok());
  EXPECT_TRUE(flipped.status().IsDataLoss()) << flipped.status().ToString();
  EXPECT_NE(flipped.status().message().find("at byte"), std::string::npos)
      << flipped.status().message();
  // Refusing to repair means the intact file still recovers in full.
  BudgetLedger healthy = MustOpen(dir);
  EXPECT_EQ(healthy.Budget("t")->spent, full_spent);
}

/// Randomized multi-site fuzz over the commit-path sites: arbitrary
/// interleavings of grants, charges, checkpoints, reopens, and armed
/// kills must keep every op typed and the recovered spend inside the
/// [acknowledged, acknowledged + in-flight] band.
TEST_F(LedgerTortureTest, RandomizedMultiSiteFuzzKeepsMonotonicity) {
  Rng rng(20260808);
  const auto& sites = CommitPathSites();
  for (int round = 0; round < 24; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::string dir = Dir("fuzz" + std::to_string(round));
    BudgetLedger::Options options;
    options.checkpoint_every = rng.Bernoulli(0.5) ? 3 : 0;
    std::optional<BudgetLedger> ledger;
    {
      auto opened = BudgetLedger::Open(dir, options);
      ASSERT_TRUE(opened.ok());
      ledger.emplace(std::move(*opened));
      ASSERT_TRUE(ledger->Grant("t", 1000.0).ok());
    }
    double acknowledged = 0.0;
    double in_flight = 0.0;

    const int ops = 12 + static_cast<int>(rng.UniformInt(12));
    for (int i = 0; i < ops; ++i) {
      // Arm a random subset (usually one, sometimes two) of the sites.
      std::vector<std::string> armed;
      if (rng.Bernoulli(0.4)) {
        size_t pick = rng.UniformInt(sites.size());
        armed.push_back(sites[pick]);
        if (rng.Bernoulli(0.25)) {
          armed.push_back(sites[rng.UniformInt(sites.size())]);
        }
        for (const std::string& site : armed) {
          failpoint::Fault fault = failpoint::DefaultFault(site);
          fault.remaining = 1;
          ASSERT_TRUE(failpoint::Activate(site, fault).ok());
        }
      }
      const int action = static_cast<int>(rng.UniformInt(10));
      if (action < 6) {
        uint64_t hits = 0;
        for (const std::string& site : armed) hits += failpoint::Hits(site);
        Status st = ledger->Charge("t", 0.25);
        uint64_t hits_after = 0;
        for (const std::string& site : armed) {
          hits_after += failpoint::Hits(site);
        }
        const bool fired = hits_after > hits;
        if (st.ok() && !fired) {
          acknowledged += 0.25;
        } else if (st.ok()) {
          in_flight += 0.25;
        } else {
          ASSERT_TRUE(IsTypedLedgerError(st)) << st.ToString();
          if (!st.IsFailedPrecondition()) in_flight += 0.25;
        }
      } else if (action < 8) {
        Status st = ledger->Checkpoint();
        if (!st.ok()) {
          ASSERT_TRUE(IsTypedLedgerError(st)) << st.ToString();
        }
      } else {
        failpoint::DeactivateAll();
        auto reopened = BudgetLedger::Open(dir, options);
        ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
        ledger.emplace(std::move(*reopened));
      }
      failpoint::DeactivateAll();
      if (ledger->wounded()) {
        auto reopened = BudgetLedger::Open(dir, options);
        ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
        ledger.emplace(std::move(*reopened));
      }
    }

    failpoint::DeactivateAll();
    auto final_open = BudgetLedger::Open(dir, options);
    ASSERT_TRUE(final_open.ok()) << final_open.status().ToString();
    auto budget = final_open->Budget("t");
    ASSERT_TRUE(budget.ok());
    EXPECT_GE(budget->spent, acknowledged - 1e-12)
        << "fuzz round under-counted acknowledged spend";
    EXPECT_LE(budget->spent, acknowledged + in_flight + 1e-12)
        << "fuzz round over-counted beyond in-flight records";
  }
}

}  // namespace
}  // namespace privateclean
