#include "server/server.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/file.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "core/release.h"
#include "privacy/ledger.h"

namespace privateclean {
namespace server {

namespace {

/// Accept-loop poll granularity: how often the acceptor reaps closed
/// sessions and re-checks the stop flag.
constexpr int kAcceptTickMs = 100;

/// The bind name of a release directory: its basename, trailing
/// slashes stripped.
std::string BindName(const std::string& dir) {
  std::string path = dir;
  while (path.size() > 1 && path.back() == '/') path.pop_back();
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// The failpoint macro returns a Status from its enclosing function, so
/// the accept site gets one of its own.
Status AcceptGate(const std::string& socket_path) {
  PCLEAN_FAILPOINT("server.accept", socket_path);
  return Status::OK();
}

Status FillSocketAddress(const std::string& path, sockaddr_un* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr->sun_path)) {
    return Status::InvalidArgument(
        "socket path '" + path + "' exceeds the " +
        std::to_string(sizeof(addr->sun_path) - 1) +
        "-byte limit of Unix-domain addresses");
  }
  std::memcpy(addr->sun_path, path.data(), path.size());
  return Status::OK();
}

}  // namespace

struct Server::Impl {
  ~Impl() { TearDown(/*graceful=*/false); }

  ServerOptions options;
  std::optional<BudgetLedger> ledger;
  std::map<std::string, std::shared_ptr<const OpenedRelease>> releases;
  std::string default_release;
  std::unique_ptr<ThreadPool> pool;
  int listen_fd = -1;
  /// True once we own the socket-path binding; TearDown only unlinks
  /// then (a failed Start must not delete a live sibling's socket).
  bool bound = false;
  std::thread acceptor;
  std::atomic<uint64_t> queries_served{0};
  bool torn_down = false;  // owner-thread only

  mutable std::mutex mu;
  std::condition_variable closed_cv;
  std::map<uint64_t, std::unique_ptr<Session>> sessions;
  std::vector<uint64_t> reapable;
  uint64_t next_id = 1;
  uint64_t accepted = 0;
  size_t live = 0;  // sessions whose on_closed has not fired yet
  bool stop_accepting = false;

  void AcceptLoop();
  void AcceptOne(int fd);
  void OnSessionClosed(uint64_t id);
  void Reap();
  void StopAccepting();
  void TearDown(bool graceful);
};

void Server::Impl::AcceptLoop() {
  for (;;) {
    Reap();
    {
      std::lock_guard<std::mutex> lock(mu);
      if (stop_accepting) return;
    }
    struct pollfd pfd;
    pfd.fd = listen_fd;
    pfd.events = POLLIN;
    int ready = ::poll(&pfd, 1, kAcceptTickMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      // Listener unusable; Drain/TearDown still cleans up.
      std::fprintf(stderr,
                   "pclean serve: poll on '%s' failed (%s); no further "
                   "sessions will be accepted\n",
                   options.socket_path.c_str(), std::strerror(errno));
      return;
    }
    if (ready == 0) continue;
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Resource exhaustion under load is transient: that connection
        // attempt is lost, but the listener must live on — exiting here
        // would leave a live-looking server that accepts nobody.
        std::this_thread::sleep_for(std::chrono::milliseconds(kAcceptTickMs));
        continue;
      }
      std::fprintf(stderr,
                   "pclean serve: accept on '%s' failed (%s); no further "
                   "sessions will be accepted\n",
                   options.socket_path.c_str(), std::strerror(errno));
      return;
    }
    // An injected accept failure models fd exhaustion or a dying
    // listener: that one connection is dropped, the loop lives on.
    if (!AcceptGate(options.socket_path).ok()) {
      ::close(fd);
      continue;
    }
    AcceptOne(fd);
  }
}

void Server::Impl::AcceptOne(int fd) {
  SessionContext ctx;
  ctx.pool = pool.get();
  ctx.ledger = ledger ? &*ledger : nullptr;
  ctx.releases = &releases;
  ctx.default_release = default_release;
  ctx.query_exec = options.query_exec;
  ctx.idle_timeout_ms = options.idle_timeout_ms;
  ctx.queue_depth = options.queue_depth;
  ctx.queries_served = &queries_served;
  uint64_t id;
  {
    std::lock_guard<std::mutex> lock(mu);
    if (stop_accepting) {
      ::close(fd);
      return;
    }
    id = next_id++;
    ++accepted;
    ++live;
  }
  ctx.on_closed = [this, id] { OnSessionClosed(id); };
  auto session = std::make_unique<Session>(fd, id, std::move(ctx));
  Session* raw = session.get();
  {
    std::lock_guard<std::mutex> lock(mu);
    sessions.emplace(id, std::move(session));
  }
  // Start after the map insert: until Start() the session has no
  // threads, so on_closed cannot fire on an id the map lacks.
  raw->Start();
}

void Server::Impl::OnSessionClosed(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu);
  reapable.push_back(id);
  --live;
  closed_cv.notify_all();
}

void Server::Impl::Reap() {
  std::vector<std::unique_ptr<Session>> dead;
  {
    std::lock_guard<std::mutex> lock(mu);
    for (uint64_t id : reapable) {
      auto it = sessions.find(id);
      if (it == sessions.end()) continue;
      dead.push_back(std::move(it->second));
      sessions.erase(it);
    }
    reapable.clear();
  }
  // Destruction outside mu: ~Session joins the (already exited) reader
  // thread and closes the fd, neither of which needs the server lock.
  dead.clear();
}

void Server::Impl::StopAccepting() {
  {
    std::lock_guard<std::mutex> lock(mu);
    stop_accepting = true;
  }
  if (acceptor.joinable()) acceptor.join();
}

void Server::Impl::TearDown(bool graceful) {
  if (torn_down) return;
  StopAccepting();
  // The acceptor is joined: nobody inserts sessions or reaps
  // concurrently from here on.
  std::vector<Session*> open_sessions;
  {
    std::lock_guard<std::mutex> lock(mu);
    for (auto& [id, session] : sessions) {
      if (!session->closed()) open_sessions.push_back(session.get());
    }
  }
  if (graceful) {
    for (Session* session : open_sessions) session->BeginDrain();
    std::unique_lock<std::mutex> lock(mu);
    closed_cv.wait_for(lock, std::chrono::milliseconds(
                                 options.drain_grace_ms < 0
                                     ? 0
                                     : options.drain_grace_ms),
                       [&] { return live == 0; });
  }
  // Hard-stop the stragglers (all of them, when not graceful). Abort
  // guarantees progress — queues are dropped and sockets shut — so the
  // unbounded wait below terminates.
  for (Session* session : open_sessions) session->Abort();
  {
    std::unique_lock<std::mutex> lock(mu);
    closed_cv.wait(lock, [&] { return live == 0; });
  }
  Reap();
  {
    std::lock_guard<std::mutex> lock(mu);
    sessions.clear();
  }
  // Every session closed before this point, so no strand task remains
  // and the pool drains instantly.
  pool.reset();
  if (listen_fd >= 0) {
    ::close(listen_fd);
    listen_fd = -1;
  }
  if (bound) ::unlink(options.socket_path.c_str());
  torn_down = true;
}

Result<Server> Server::Start(const ServerOptions& options) {
  if (options.socket_path.empty()) {
    return Status::InvalidArgument("serve needs a socket path");
  }
  if (options.release_dirs.empty()) {
    return Status::InvalidArgument(
        "serve needs at least one release directory");
  }
  sockaddr_un addr;
  PCLEAN_RETURN_NOT_OK(FillSocketAddress(options.socket_path, &addr));

  auto impl = std::make_unique<Impl>();
  impl->options = options;
  for (const std::string& dir : options.release_dirs) {
    std::string name = BindName(dir);
    if (name.empty()) {
      return Status::InvalidArgument("release directory '" + dir +
                                     "' has no usable basename");
    }
    if (impl->releases.count(name) > 0) {
      return Status::InvalidArgument(
          "two release directories share the bind name '" + name +
          "': sessions could not tell them apart in HELLO");
    }
    PCLEAN_ASSIGN_OR_RETURN(PrivateTable table,
                            OpenRelease(dir, options.query_exec));
    // PrivateTable fills its caches lazily under no lock, so every entry
    // a read-only query can reach is built here, before any session can
    // bind the shared table.
    PCLEAN_RETURN_NOT_OK(table.WarmCaches(options.query_exec));
    std::string relation = table.metadata().relation_name;
    impl->releases.emplace(
        std::move(name), std::make_shared<const OpenedRelease>(
                             dir, std::move(table), std::move(relation)));
  }
  impl->default_release = BindName(options.release_dirs.front());
  if (!options.ledger_dir.empty()) {
    PCLEAN_ASSIGN_OR_RETURN(BudgetLedger ledger,
                            BudgetLedger::Open(options.ledger_dir));
    impl->ledger.emplace(std::move(ledger));
  }

  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError("socket failed: " +
                           std::string(std::strerror(errno)));
  }
  impl->listen_fd = fd;  // Impl's TearDown closes it on any exit below

  // Two servers starting concurrently can both hit EADDRINUSE on a
  // stale socket, both find the liveness probe dead, and both
  // unlink+bind — the second silently deleting the first's fresh
  // socket. An flock on a sibling lock file serializes the whole
  // bind → probe → takeover → listen sequence (the probe is only
  // conclusive once the winner has listened). The lock file itself is
  // never unlinked: removing it would reopen the same race.
  struct LockFile {
    int fd = -1;
    ~LockFile() {
      if (fd >= 0) ::close(fd);  // close releases the flock
    }
  } bind_lock;
  bind_lock.fd = ::open((options.socket_path + ".lock").c_str(),
                        O_CREAT | O_RDWR | O_CLOEXEC, 0600);
  if (bind_lock.fd < 0) {
    return Status::IOError("open '" + options.socket_path +
                           ".lock' failed: " + std::strerror(errno));
  }
  if (::flock(bind_lock.fd, LOCK_EX) != 0) {
    return Status::IOError("flock '" + options.socket_path +
                           ".lock' failed: " + std::strerror(errno));
  }

  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    if (errno != EADDRINUSE) {
      return Status::IOError("bind '" + options.socket_path +
                             "' failed: " + std::strerror(errno));
    }
    // The path exists. Probe it: a live server accepts the connection
    // (refuse to usurp it); a dead one left a stale file (replace it).
    int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (probe < 0) {
      return Status::IOError("socket failed: " +
                             std::string(std::strerror(errno)));
    }
    int connected =
        ::connect(probe, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    ::close(probe);
    if (connected == 0) {
      return Status::FailedPrecondition("another server is live on '" +
                                        options.socket_path + "'");
    }
    if (::unlink(options.socket_path.c_str()) != 0 && errno != ENOENT) {
      return Status::IOError("unlink stale socket '" + options.socket_path +
                             "' failed: " + std::strerror(errno));
    }
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      return Status::IOError("bind '" + options.socket_path +
                             "' failed: " + std::strerror(errno));
    }
  }
  impl->bound = true;
  if (::listen(fd, 64) != 0) {
    return Status::IOError("listen on '" + options.socket_path +
                           "' failed: " + std::strerror(errno));
  }

  ExecutionOptions pool_exec;
  pool_exec.num_threads =
      options.pool_threads > 0 ? static_cast<size_t>(options.pool_threads)
                               : 0;
  impl->pool = std::make_unique<ThreadPool>(pool_exec.EffectiveThreads());
  impl->acceptor = std::thread([raw = impl.get()] { raw->AcceptLoop(); });
  return Server(std::move(impl));
}

Server::Server(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
Server::~Server() = default;
Server::Server(Server&&) noexcept = default;
Server& Server::operator=(Server&&) noexcept = default;

const std::string& Server::socket_path() const {
  return impl_->options.socket_path;
}

Status Server::Drain() {
  if (impl_ == nullptr) return Status::OK();
  PCLEAN_FAILPOINT("server.drain", impl_->options.socket_path);
  impl_->TearDown(/*graceful=*/true);
  return Status::OK();
}

uint64_t Server::sessions_accepted() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->accepted;
}

size_t Server::sessions_live() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->live;
}

uint64_t Server::queries_served() const {
  return impl_->queries_served.load(std::memory_order_relaxed);
}

}  // namespace server
}  // namespace privateclean
