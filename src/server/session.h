#ifndef PRIVATECLEAN_SERVER_SESSION_H_
#define PRIVATECLEAN_SERVER_SESSION_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/thread_pool.h"
#include "core/private_table.h"
#include "privacy/ledger.h"
#include "server/protocol.h"

namespace privateclean {
namespace server {

/// One release opened for serving: the analyst-side PrivateTable plus
/// the identity a session binds to. Immutable once constructed — the
/// server never cleans or mutates a shared table, and Server::Start runs
/// PrivateTable::WarmCaches before any session can bind: it builds the
/// provenance graph of every discrete attribute, the moments (μ_p, σ_p²)
/// of every numeric column and the per-value exact sums of every
/// (string discrete attribute, numeric column) pair, which SUM/AVG would
/// otherwise compute on first use. Concurrent read-only queries on the one
/// instance therefore only read the table's caches and never race on
/// filling them; the cache entries live until the table does (only
/// Clean() drops them).
struct OpenedRelease {
  std::string dir;
  PrivateTable table;
  /// The MANIFEST `relation:` name the release answers to.
  std::string relation;

  OpenedRelease(std::string dir, PrivateTable table, std::string relation)
      : dir(std::move(dir)),
        table(std::move(table)),
        relation(std::move(relation)) {}
};

/// Where a session is in its lifecycle.
enum class SessionState {
  /// Connected; the first frame must be HELLO.
  kAwaitHello,
  /// Tenant and release bound; QUERY frames are served.
  kReady,
  /// Drain requested: queued requests are still answered, no new frames
  /// are read, and a GOODBYE follows the last answer.
  kDraining,
  /// Socket closed; the session is inert.
  kClosed,
};

/// Everything a session borrows from its server. All pointers outlive
/// the session (the server tears sessions down before any of them).
struct SessionContext {
  /// Strand scheduling: session work runs as tasks on this pool, at most
  /// one in flight per session, so responses never interleave and a
  /// 1-thread pool serializes all sessions (the benchmark baseline).
  ThreadPool* pool = nullptr;
  /// Budget ledger, or nullptr when the server runs without admission.
  BudgetLedger* ledger = nullptr;
  /// Releases the server opened, keyed by bind name (directory basename).
  const std::map<std::string, std::shared_ptr<const OpenedRelease>>*
      releases = nullptr;
  /// Bind name a HELLO with an empty release resolves to.
  std::string default_release;
  /// Per-query execution threading (QueryOptions::exec). Results are
  /// independent of this; it never affects response bytes.
  ExecutionOptions query_exec;
  /// Close sessions that sit idle (no frame, nothing queued or running)
  /// longer than this. <= 0 disables the timeout.
  int idle_timeout_ms = 0;
  /// Bounded request queue per session: a pipelining client that gets
  /// this far ahead blocks in the socket (reader backpressure) instead
  /// of growing server memory.
  size_t queue_depth = 8;
  /// Invoked exactly once when the session has fully closed (socket shut,
  /// last strand task done). May be invoked from a pool thread.
  std::function<void()> on_closed;
  /// Server-wide counter of answered QUERY frames.
  std::atomic<uint64_t>* queries_served = nullptr;
};

/// One analyst connection: a reader thread that frames the socket and a
/// strand of pool tasks that runs the HELLO → QUERY* → BYE state
/// machine. The reader only parses frames and enqueues; every state
/// transition, query execution, and response write happens on the
/// strand, so per-session processing is strictly ordered even on a
/// many-threaded pool.
///
/// Error containment: a query-level failure (bad SQL, unknown attribute,
/// overdraft) is answered with a typed ERROR frame and the session keeps
/// serving; a framing failure (torn or corrupt frame) is answered with
/// its typed DataLoss and the session closes, because a stream that lost
/// framing cannot be re-synchronized. Neither touches sibling sessions.
class Session {
 public:
  Session(int fd, uint64_t id, SessionContext context);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Spawns the reader thread. Call exactly once.
  void Start();

  /// Graceful drain: stop reading, answer what is queued, say GOODBYE.
  /// Idempotent; returns immediately (completion signals via on_closed).
  void BeginDrain();

  /// Hard stop: shuts the socket both ways so reader and peer unblock
  /// immediately. Queued requests are dropped unanswered.
  void Abort();

  uint64_t id() const { return id_; }
  SessionState state() const;
  /// True once on_closed has fired (or been claimed by the firing
  /// party). After this the session schedules no further pool work.
  bool closed() const;

 private:
  /// Reader → strand handoff items. Control items carry the reason the
  /// reader stopped; kFrame carries a verified frame.
  enum class ItemKind { kFrame, kTimeout, kCorrupt, kEof, kReadError, kDrain };
  struct Item {
    ItemKind kind = ItemKind::kFrame;
    Frame frame;
    Status status;
  };

  void ReaderLoop();
  void Enqueue(Item item);
  void SchedulePumpLocked();
  /// One strand task: handle a single item, then reschedule if more are
  /// queued (fairness: a busy session cannot monopolize a pool worker).
  void Pump();
  void Handle(Item item);
  void HandleFrame(Frame frame);
  Status HandleHello(const Frame& frame);
  Status HandleQuery(const Frame& frame);
  /// Sends a typed ERROR frame; write failures close the session.
  void SendError(const Status& status);
  void SendGoodbye(const std::string& reason);
  void Send(const Frame& frame);
  void Close();
  /// The session is finished when the socket is closed, the queue is
  /// empty, no strand task is in flight, and the reader thread has
  /// exited — only then can no party schedule further pool work, which
  /// is what makes it safe for the server to destroy the session after
  /// on_closed. Exactly one caller claims the transition, in the SAME
  /// critical section that flipped the last FinishedLocked condition
  /// (an unlocked gap would let another thread claim, fire on_closed,
  /// and free the session under the first thread), and only that
  /// caller invokes on_closed (outside mu_).
  bool FinishedLocked() const;
  /// Claims the finish if FinishedLocked(); returns the callback the
  /// claimer must invoke after releasing mu_ (null when not finished,
  /// already claimed, or no callback is set). Call with mu_ held.
  std::function<void()> ClaimFinishLocked();

  const uint64_t id_;
  SessionContext context_;
  int fd_;

  mutable std::mutex mu_;
  std::condition_variable space_cv_;  // reader waits here when queue full
  std::deque<Item> queue_;
  bool pump_scheduled_ = false;
  bool draining_ = false;
  bool aborted_ = false;
  bool reader_exited_ = false;
  bool finish_claimed_ = false;
  SessionState state_ = SessionState::kAwaitHello;

  // Strand-only state (touched exclusively inside Handle*).
  std::string tenant_;
  std::shared_ptr<const OpenedRelease> release_;
  bool write_failed_ = false;

  std::thread reader_;
};

}  // namespace server
}  // namespace privateclean

#endif  // PRIVATECLEAN_SERVER_SESSION_H_
