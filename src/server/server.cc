#include "server/server.h"

#include <errno.h>
#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/file.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>

#include <algorithm>
#include <atomic>
#include <climits>
#include <condition_variable>
#include <cstdlib>
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

/// How long the reactor stops accepting after fd or buffer exhaustion
/// (EMFILE and friends), when the listener would stay readable.
constexpr auto kAcceptBackoff = std::chrono::milliseconds(100);

/// How long Drain() waits for sessions to answer what they have buffered
/// before hard-stopping the stragglers.
constexpr auto kDrainGrace = std::chrono::seconds(10);

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

/// epoll_wait's timeout until `deadline`: -1 (none) for max().
int TimeoutMs(SessionClock::time_point now, SessionClock::time_point deadline) {
  if (deadline == SessionClock::time_point::max()) return -1;
  const auto ms =
      std::chrono::ceil<std::chrono::milliseconds>(deadline - now).count();
  return static_cast<int>(std::clamp<int64_t>(ms, 0, INT_MAX));
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
  int epoll_fd = -1;
  /// eventfd that wakes the reactor out of epoll_wait to stop it.
  int wake_fd = -1;
  /// True once we own the socket-path binding; TearDown only unlinks
  /// then (a failed Start must not delete a live sibling's socket).
  bool bound = false;
  std::thread reactor;
  std::atomic<uint64_t> queries_served{0};
  bool torn_down = false;  // owner-thread only

  mutable std::mutex mu;
  std::condition_variable closed_cv;
  /// Live sessions. Only the reactor inserts and erases (under mu), so it
  /// reads the map without mu.
  std::map<uint64_t, std::unique_ptr<Session>> sessions;
  uint64_t next_id = 1;
  uint64_t accepted = 0;
  bool stop_accepting = false;
  bool stop = false;

  void ReactorLoop();
  /// Accepts one connection and says when to re-arm the listener: at
  /// once (time_point::min()), after kAcceptBackoff on fd or buffer
  /// exhaustion, or never (time_point::max()) after an unexpected error.
  SessionClock::time_point Accept();
  void Destroy(Session* session);
  void TearDown(bool graceful);
};

void Server::Impl::ReactorLoop() {
  epoll_event events[64];
  auto resume_accept = SessionClock::time_point::max();
  for (;;) {
    const auto now = SessionClock::now();
    if (now >= resume_accept) {
      resume_accept = SessionClock::time_point::max();
      ArmOneShot(epoll_fd, EPOLL_CTL_MOD, listen_fd, &listen_fd);
    }
    auto deadline = resume_accept;
    if (options.idle_timeout_ms > 0) {
      for (auto& [id, session] : sessions) {
        deadline = std::min(deadline, session->CheckIdle(now));
      }
    }
    const int n = ::epoll_wait(epoll_fd, events, 64, TimeoutMs(now, deadline));
    if (n < 0) {
      if (errno == EINTR) continue;
      // Every session's teardown runs through this loop, so it cannot
      // stop short: an epoll set that fails to wait is a bug.
      std::fprintf(stderr, "pclean serve: epoll_wait on '%s' failed (%s)\n",
                   options.socket_path.c_str(), std::strerror(errno));
      std::abort();
    }
    for (int i = 0; i < n; ++i) {
      void* tag = events[i].data.ptr;
      if (tag == &wake_fd) {
        uint64_t count;
        (void)!::read(wake_fd, &count, sizeof count);
        std::lock_guard<std::mutex> lock(mu);
        if (stop) return;
      } else if (tag == &listen_fd) {
        resume_accept = Accept();
      } else {
        Session* session = static_cast<Session*>(tag);
        if (session->OnReady()) Destroy(session);
      }
    }
  }
}

SessionClock::time_point Server::Impl::Accept() {
  constexpr auto kAtOnce = SessionClock::time_point::min();
  int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
  if (fd < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
        errno == ECONNABORTED) {
      return kAtOnce;
    }
    if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
        errno == ENOMEM) {
      // Resource exhaustion under load is transient: that connection
      // waits in the backlog, which keeps the listener readable, so back
      // off instead of spinning — but never give up, which would leave
      // a live-looking server that accepts nobody.
      return SessionClock::now() + kAcceptBackoff;
    }
    std::fprintf(stderr,
                 "pclean serve: accept on '%s' failed (%s); no further "
                 "sessions will be accepted\n",
                 options.socket_path.c_str(), std::strerror(errno));
    return SessionClock::time_point::max();
  }
  // An injected accept failure models fd exhaustion or a dying
  // listener: that one connection is dropped, the listener lives on.
  if (!AcceptGate(options.socket_path).ok()) {
    ::close(fd);
    return kAtOnce;
  }
  SessionContext ctx;
  ctx.pool = pool.get();
  ctx.epoll_fd = epoll_fd;
  ctx.ledger = ledger ? &*ledger : nullptr;
  ctx.releases = &releases;
  ctx.default_release = default_release;
  ctx.query_exec = options.query_exec;
  ctx.idle_timeout_ms = options.idle_timeout_ms;
  ctx.queries_served = &queries_served;
  std::lock_guard<std::mutex> lock(mu);
  if (stop_accepting) {
    ::close(fd);
    return kAtOnce;
  }
  auto session = std::make_unique<Session>(fd, next_id, std::move(ctx));
  // On failure the session's destructor closes the connection.
  if (ArmOneShot(epoll_fd, EPOLL_CTL_ADD, fd, session.get())) {
    ++accepted;
    sessions.emplace(next_id++, std::move(session));
  }
  return kAtOnce;
}

void Server::Impl::Destroy(Session* session) {
  // Out of the epoll set before the fd closes, so no later event can
  // name the freed session.
  ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, session->fd(), nullptr);
  std::unique_ptr<Session> dead;
  {
    std::lock_guard<std::mutex> lock(mu);
    auto it = sessions.find(session->id());
    dead = std::move(it->second);
    sessions.erase(it);
  }
  closed_cv.notify_all();
}

void Server::Impl::TearDown(bool graceful) {
  if (torn_down) return;
  torn_down = true;
  if (reactor.joinable()) {
    std::unique_lock<std::mutex> lock(mu);
    stop_accepting = true;
    // The reactor destroys each session once it has closed and its last
    // task has ended; BeginDrain and Close shut the socket, whose
    // readiness wakes the reactor.
    if (graceful) {
      for (auto& [id, session] : sessions) session->BeginDrain();
      closed_cv.wait_for(lock, kDrainGrace, [&] { return sessions.empty(); });
    }
    for (auto& [id, session] : sessions) session->Close();
    closed_cv.wait(lock, [&] { return sessions.empty(); });
    stop = true;
    lock.unlock();
    const uint64_t one = 1;
    (void)!::write(wake_fd, &one, sizeof one);
    reactor.join();
  }
  // No session is left, so no strand task remains and the pool drains
  // at once.
  pool.reset();
  for (int* fd : {&epoll_fd, &wake_fd, &listen_fd}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
  if (bound) ::unlink(options.socket_path.c_str());
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

  // Non-blocking: the reactor accepts only when the listener is readable,
  // and a connection that vanishes first must not block it in accept.
  int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
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
  impl->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  impl->wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  epoll_event wake{};
  wake.events = EPOLLIN;
  wake.data.ptr = &impl->wake_fd;
  if (impl->epoll_fd < 0 || impl->wake_fd < 0 ||
      ::epoll_ctl(impl->epoll_fd, EPOLL_CTL_ADD, impl->wake_fd, &wake) != 0 ||
      !ArmOneShot(impl->epoll_fd, EPOLL_CTL_ADD, fd, &impl->listen_fd)) {
    return Status::IOError("epoll set-up for '" + options.socket_path +
                           "' failed: " + std::strerror(errno));
  }
  impl->reactor = std::thread([raw = impl.get()] { raw->ReactorLoop(); });
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
  return impl_->sessions.size();
}

uint64_t Server::queries_served() const {
  return impl_->queries_served.load(std::memory_order_relaxed);
}

}  // namespace server
}  // namespace privateclean
