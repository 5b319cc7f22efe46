#ifndef PRIVATECLEAN_SERVER_SERVER_H_
#define PRIVATECLEAN_SERVER_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "server/session.h"

namespace privateclean {
namespace server {

/// Configuration of one `pclean serve` daemon.
struct ServerOptions {
  /// Unix-domain socket path the server listens on.
  std::string socket_path;
  /// Release directories to serve, each opened read-only once at
  /// startup and bound under its directory basename; a HELLO with an
  /// empty release gets the first one. Sessions binding the same release
  /// share its one table.
  std::vector<std::string> release_dirs;
  /// Budget-ledger directory; empty runs the server without admission
  /// control (anonymous sessions only).
  std::string ledger_dir;
  /// Worker threads for session scheduling. Every session is a strand
  /// on this pool (at most one task in flight), so 1 thread serializes
  /// all sessions — the soak benchmark's serial baseline — while N
  /// threads serve up to N sessions concurrently. 0 = one per hardware
  /// thread. Never affects response bytes.
  int pool_threads = 0;
  /// Per-query execution threading (QueryOptions::exec inside a session
  /// task). Also never affects response bytes.
  ExecutionOptions query_exec;
  /// Close a session whose last complete frame was handled longer ago
  /// than this while no task of it was in flight; bytes of an
  /// unfinished frame do not count. <= 0 disables.
  int idle_timeout_ms = 0;
};

/// The `pclean serve` daemon: accepts analyst connections on a
/// Unix-domain socket and multiplexes their sessions over one shared
/// thread pool against shared read-only releases.
///
/// Threads: one reactor thread plus the pool, however many sessions are
/// open. The reactor waits in epoll on the listening socket and every
/// session socket, each armed one-shot: it accepts connections, and for
/// a readable session schedules that session's strand task on the pool
/// (Session), which re-arms the socket when it is done. An idle session
/// costs one fd and one read buffer.
///
/// Lifecycle: Start() binds, listens, opens every release and (if
/// configured) the ledger, then starts the reactor. Drain() is the
/// graceful shutdown: stop accepting, let every live session answer the
/// complete frames it has buffered, say GOODBYE, wait (at most 10 s),
/// hard-stop the stragglers, then stop the reactor and unlink the
/// socket. The destructor hard-stops anything Drain() did not get to.
///
/// Teardown: a session is finished when it is closed and no task of it
/// is in flight, and only the reactor destroys sessions (on the
/// readiness event of the closed socket), so no epoll event can name a
/// freed session. Teardown waits until the reactor has destroyed every
/// session, joins it, and only then destroys the pool.
class Server {
 public:
  /// Binds and starts serving. Typed failures: InvalidArgument (bad
  /// options, duplicate release basenames, oversize socket path),
  /// FailedPrecondition (another live server owns the socket), IOError
  /// (socket syscalls), plus whatever opening a release or the ledger
  /// returns. A dead socket file left by a crashed server is replaced;
  /// the probe/unlink/bind takeover is serialized across concurrently
  /// starting servers by an flock on `<socket_path>.lock` (the lock
  /// file stays behind — unlinking it would reopen the race).
  /// Failpoint `server.accept` injects accept-time failures; the
  /// reactor treats them as transient (that connection is dropped), and
  /// backs off 100 ms on fd/buffer-exhaustion accept errors (EMFILE and
  /// friends) rather than spin on a listener that stays readable.
  static Result<Server> Start(const ServerOptions& options);

  ~Server();
  Server(Server&&) noexcept;
  Server& operator=(Server&&) noexcept;
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  const std::string& socket_path() const;

  /// Graceful drain (idempotent). Failpoint `server.drain` injects a
  /// typed failure before any teardown; the destructor still hard-stops
  /// cleanly afterwards.
  Status Drain();

  /// Counters for tests and the drain log.
  uint64_t sessions_accepted() const;
  size_t sessions_live() const;
  uint64_t queries_served() const;

 private:
  struct Impl;
  explicit Server(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace server
}  // namespace privateclean

#endif  // PRIVATECLEAN_SERVER_SERVER_H_
