#ifndef PRIVATECLEAN_SERVER_SESSION_H_
#define PRIVATECLEAN_SERVER_SESSION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

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
/// provenance graph and the row index of every discrete attribute, the
/// moments (μ_p, σ_p²) of every numeric column and the per-value exact
/// sums of every (discrete attribute, numeric column) pair, which
/// queries would otherwise compute on first use. Concurrent read-only queries on the one
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

/// Where a session is in its lifecycle. Whether a HELLO has bound it is
/// strand-only state (Session::release_), not a state here.
enum class SessionState {
  /// Frames are read and answered.
  kOpen,
  /// Drain requested: the complete frames already buffered are still
  /// answered, nothing more is read, and a GOODBYE follows.
  kDraining,
  /// Socket shut; the session answers nothing more.
  kClosed,
};

using SessionClock = std::chrono::steady_clock;

/// Arms `fd` in the epoll set `epoll_fd` for one readiness event
/// (EPOLLIN | EPOLLONESHOT) carrying `tag`; `op` is EPOLL_CTL_ADD or
/// EPOLL_CTL_MOD. False when epoll_ctl fails.
bool ArmOneShot(int epoll_fd, int op, int fd, void* tag);

/// Everything a session borrows from its server. All pointers outlive
/// the session (the server destroys sessions before any of them).
struct SessionContext {
  /// Strand scheduling: session work runs as tasks on this pool, at most
  /// one in flight per session, so responses never interleave and a
  /// 1-thread pool serializes all sessions (the benchmark baseline).
  ThreadPool* pool = nullptr;
  /// The server's epoll set, in which the session's socket is armed
  /// one-shot with the Session as its tag.
  int epoll_fd = -1;
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
  /// Close the session when its last complete frame was handled longer
  /// ago than this while no task of it was in flight. <= 0 disables.
  int idle_timeout_ms = 0;
  /// Server-wide counter of answered QUERY frames.
  std::atomic<uint64_t>* queries_served = nullptr;
};

/// One analyst connection: a strand of pool tasks that reads the socket
/// and runs the HELLO → QUERY* → BYE state machine. The server's reactor
/// thread waits on the socket; when it is readable the reactor schedules
/// the strand task, which
///   - reads what the socket holds (never blocking) while no complete
///     frame is buffered, so a session holds at most one frame plus one
///     read chunk, and a client that pipelines further blocks in its
///     socket;
///   - handles one complete frame;
///   - reschedules itself while bytes remain buffered (one frame per
///     task: a busy session cannot starve its siblings on a small pool;
///     the next task answers a complete frame or reads on for the rest
///     of a partial one), and otherwise re-arms the socket as its last
///     act.
/// So at most one task per session is in flight, per-session processing
/// is strictly ordered even on a many-threaded pool, and every state
/// transition, query execution and response write happens on the strand.
///
/// A session is finished when it is closed and no task is in flight.
/// Closing shuts the socket, so its re-armed fd reports readiness at
/// once, and the reactor destroys the session on that event (OnReady
/// returns true). The reactor is the only thread that destroys sessions.
///
/// Error containment: a query-level failure (bad SQL, unknown attribute,
/// overdraft) is answered with a typed ERROR frame and the session keeps
/// serving; a framing failure (torn or corrupt frame) is answered with
/// its typed DataLoss and the session closes, because a stream that lost
/// framing cannot be re-synchronized. Neither touches sibling sessions.
class Session {
 public:
  Session(int fd, uint64_t id, SessionContext context);
  /// Closes the socket. The reactor removes it from the epoll set first.
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  uint64_t id() const { return id_; }
  int fd() const { return fd_; }

  /// Reactor thread: the socket reported readiness, which spent its
  /// one-shot arm. Schedules the strand task unless one is in flight
  /// (that task re-arms the socket when it ends). Returns true when the
  /// session is finished and the caller must destroy it.
  bool OnReady();

  /// Reactor thread: when the idle deadline (the last complete frame
  /// plus the idle timeout) has passed and no task is in flight,
  /// schedules the task that says GOODBYE and closes. Returns when to
  /// look again: the deadline, a bound while a task is in flight past
  /// it, or SessionClock::time_point::max().
  SessionClock::time_point CheckIdle(SessionClock::time_point now);

  /// Graceful drain: answer the complete frames already buffered, read
  /// nothing more, say GOODBYE. Idempotent; returns immediately. Shuts
  /// the read side, which wakes an idle session's socket.
  void BeginDrain();

  /// Hard stop: shuts the socket both ways, so a blocked write and the
  /// peer unblock at once. Buffered frames are dropped unanswered.
  /// Idempotent.
  void Close();

 private:
  /// One strand task: Step, then reschedule or re-arm.
  void Run();
  /// idle_since_ plus the idle timeout; max() when there is none.
  SessionClock::time_point IdleDeadlineLocked() const;
  /// Reads and handles at most one frame. True when a complete frame
  /// was handled.
  bool Step();
  void HandleFrame(Frame frame);
  Status HandleHello(const Frame& frame);
  Status HandleQuery(const Frame& frame);
  /// Sends a typed ERROR frame; write failures close the session.
  void SendError(const Status& status);
  void SendGoodbye(const std::string& reason);
  void Send(const Frame& frame);

  const uint64_t id_;
  SessionContext context_;
  const int fd_;

  mutable std::mutex mu_;
  /// A strand task is scheduled or running.
  bool running_ = false;
  bool timed_out_ = false;
  SessionState state_ = SessionState::kOpen;
  /// When the last complete frame was handled (or the session accepted).
  SessionClock::time_point idle_since_;

  // Strand-only state (touched exclusively by the task in flight).
  FrameReader reader_;
  std::string tenant_;
  std::shared_ptr<const OpenedRelease> release_;
  bool write_failed_ = false;
};

}  // namespace server
}  // namespace privateclean

#endif  // PRIVATECLEAN_SERVER_SESSION_H_
