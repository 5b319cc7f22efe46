#ifndef PRIVATECLEAN_PRIVACY_LEDGER_H_
#define PRIVATECLEAN_PRIVACY_LEDGER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/result.h"
#include "common/status.h"

namespace privateclean {

/// One tenant's ε allowance: how much has been granted (initial grants
/// plus gradual-release top-ups) and how much queries have spent.
struct TenantBudget {
  double granted = 0.0;
  double spent = 0.0;
  double remaining() const { return granted - spent; }
};

/// Crash-safe per-tenant ε-budget ledger.
///
/// The ledger is the durable source of truth for privacy accounting: a
/// query's ε cost must be charged here — and be on disk — before the
/// query executes, so a crash can never forget a spend that a tenant
/// was already served an answer for.
///
/// ## On-disk format
///
/// Two files inside the ledger directory:
///
///   ledger.wal   append-only log of CRC32C-framed records. One frame is
///                `<crc32c-hex8> <payload-len> <payload>\n` where the CRC
///                covers exactly the payload bytes, and the payload is
///                `<seq> <op> <epsilon-bits-hex16> <tenant>` (op one of
///                grant/relax/charge; the ε is stored as the hex of its
///                IEEE-754 bit pattern so replay is bit-exact).
///   ledger.ckpt  a compacted snapshot: `%PCLEAN-LEDGER` magic, the last
///                sequence number it covers, one line per tenant, and a
///                self-checksum trailer. Written to a temp sibling and
///                published by atomic rename, like a release MANIFEST.
///
/// ## Commit protocol (group commit)
///
/// Mutations append a frame and return only after an fsync barrier has
/// made it durable. Concurrent mutations batch: whichever thread finds
/// no commit in flight becomes the leader, drains the whole queue with
/// one append and ONE fsync, and wakes the followers. Commit order is
/// sequence order, so the WAL bytes are a serialization of the applied
/// records. After the fsync the leader cross-checks the WAL length
/// against the expected offset, so even a silently short append (a
/// lying device) fails the commit instead of acknowledging a spend the
/// disk never took.
///
/// A failed commit *wounds* the ledger: the in-memory image may disagree
/// with disk, so every later operation returns FailedPrecondition until
/// the caller reopens (recovery re-derives truth from disk). This is the
/// fail-stop stance of the monotonicity invariant: after any crash or
/// wound, recovered spend is never LESS than what was acknowledged, and
/// exceeds it by at most the records in the one commit that was in
/// flight.
///
/// ## Recovery
///
/// Open() loads the checkpoint (if any), then replays WAL frames with
/// seq greater than the checkpoint's. A frame that runs past EOF is a
/// torn tail: recovery truncates the file back to the last whole frame
/// and continues — re-crashing during recovery and recovering again
/// yields the identical state, because truncation is idempotent. A
/// damaged frame with bytes beyond it (bit flip mid-log) is NOT a tear a
/// crash could produce in an append-only file, so recovery refuses with
/// DataLoss naming the file and byte offset rather than silently
/// dropping acknowledged spend.
///
/// Failpoint sites: ledger.wal.append, ledger.wal.short,
/// ledger.wal.fsync, ledger.ckpt.write, ledger.ckpt.rename,
/// ledger.recover.open, ledger.recover.torn, ledger.recover.bitflip.
///
/// Thread-safe; all methods may be called concurrently.
class BudgetLedger {
 public:
  struct Options {
    /// Compact the WAL into a fresh checkpoint after this many records
    /// accumulate past the last one. 0 disables automatic compaction
    /// (Checkpoint() can still be called explicitly).
    uint64_t checkpoint_every = 1024;
  };

  /// Opens (creating if absent) the ledger in `dir`, running recovery:
  /// checkpoint load, WAL replay, torn-tail repair. Typed failures:
  ///   DataLoss — mid-log corruption, naming the file and byte offset;
  ///   IOError  — the directory or files could not be read/repaired.
  static Result<BudgetLedger> Open(const std::string& dir,
                                   const Options& options);
  static Result<BudgetLedger> Open(const std::string& dir);

  /// Durably adds `epsilon` to `tenant`'s granted budget. `Relax` is the
  /// gradual-release alias: semantically identical on the ledger, but
  /// recorded with its own op so the WAL documents *why* the allowance
  /// grew (initial grant vs. a later loosening of the privacy stance).
  Status Grant(const std::string& tenant, double epsilon);
  Status Relax(const std::string& tenant, double epsilon);

  /// Durably charges `epsilon` against `tenant`'s remaining budget. The
  /// check-and-spend is atomic: concurrent charges cannot jointly
  /// overdraft. Typed failures:
  ///   ResourceExhausted  — the charge exceeds the remaining budget; the
  ///                        message names the tenant, spent, and
  ///                        remaining ε. Nothing is written.
  ///   FailedPrecondition — the ledger is wounded and must be reopened.
  Status Charge(const std::string& tenant, double epsilon);

  /// The tenant's current budget; NotFound if no grant ever named them.
  Result<TenantBudget> Budget(const std::string& tenant) const;

  /// Budget() with the NotFound case folded to an all-zero budget — the
  /// natural reading for display paths, where a tenant the ledger has
  /// never seen simply has nothing granted and nothing spent. Intended
  /// for reporting right after a successful mutation (a wounded ledger
  /// returns the in-memory view, which may be ahead of what committed).
  TenantBudget BudgetOrZero(const std::string& tenant) const;

  /// All tenants, sorted by name.
  Result<std::map<std::string, TenantBudget>> Snapshot() const;

  /// Compacts the WAL into a fresh checkpoint: pending commits are
  /// flushed, the snapshot is written to a temp file and published by
  /// atomic rename, then the WAL is truncated to empty. A failure
  /// anywhere leaves the previous checkpoint + WAL pair intact (the
  /// ledger is NOT wounded — nothing was acknowledged on this path).
  Status Checkpoint();

  /// Sequence number of the last record assigned (0 = none yet).
  uint64_t last_seq() const;

  /// Records appended since the last checkpoint (drives auto-compaction;
  /// exposed for tests).
  uint64_t records_since_checkpoint() const;

  /// True once a commit failure has wounded the ledger (all mutations
  /// refuse until reopened).
  bool wounded() const;

  /// The ledger directory this instance serves.
  const std::string& dir() const;

  BudgetLedger(BudgetLedger&&) noexcept;
  BudgetLedger& operator=(BudgetLedger&&) noexcept;
  ~BudgetLedger();

  /// Implementation state (defined in ledger.cc).
  struct Rep;

 private:
  explicit BudgetLedger(std::unique_ptr<Rep> rep);
  std::unique_ptr<Rep> rep_;
};

}  // namespace privateclean

#endif  // PRIVATECLEAN_PRIVACY_LEDGER_H_
