#include "server/session.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <sstream>
#include <utility>

#include "core/admission.h"

namespace privateclean {
namespace server {

bool ArmOneShot(int epoll_fd, int op, int fd, void* tag) {
  epoll_event event{};
  event.events = EPOLLIN | EPOLLONESHOT;
  event.data.ptr = tag;
  return ::epoll_ctl(epoll_fd, op, fd, &event) == 0;
}

Session::Session(int fd, uint64_t id, SessionContext context)
    : id_(id),
      context_(std::move(context)),
      fd_(fd),
      idle_since_(SessionClock::now()),
      reader_(fd) {}

Session::~Session() {
  // The socket is shut for reading, so nothing new arrives. Discard what
  // the peer sent that was never read: closing with unread bytes would
  // reset the connection, and the peer would see ECONNRESET after its
  // GOODBYE instead of a clean EOF.
  char sink[4096];
  while (::recv(fd_, sink, sizeof sink, MSG_DONTWAIT) > 0) {
  }
  ::close(fd_);
}

bool Session::OnReady() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return false;
  if (state_ == SessionState::kClosed) return true;
  running_ = true;
  context_.pool->Schedule([this] { Run(); });
  return false;
}

SessionClock::time_point Session::IdleDeadlineLocked() const {
  if (context_.idle_timeout_ms <= 0) return SessionClock::time_point::max();
  return idle_since_ + std::chrono::milliseconds(context_.idle_timeout_ms);
}

SessionClock::time_point Session::CheckIdle(SessionClock::time_point now) {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == SessionState::kClosed || timed_out_) {
    return SessionClock::time_point::max();
  }
  const SessionClock::time_point deadline = IdleDeadlineLocked();
  if (now < deadline) return deadline;
  // Past the deadline with a task in flight, that task decides (Run):
  // it times the session out if it ends without a complete frame, and
  // restarts the clock, no earlier than `now`, if it ends with one.
  if (running_) return now + (deadline - idle_since_);  // now + timeout
  timed_out_ = true;
  running_ = true;
  context_.pool->Schedule([this] { Run(); });
  return SessionClock::time_point::max();
}

void Session::BeginDrain() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ != SessionState::kOpen) return;
  state_ = SessionState::kDraining;
  // After SHUT_RD the socket reports readable: an idle session's task
  // runs, finds no complete frame, and says GOODBYE.
  ::shutdown(fd_, SHUT_RD);
}

void Session::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == SessionState::kClosed) return;
  state_ = SessionState::kClosed;
  ::shutdown(fd_, SHUT_RDWR);
}

void Session::Run() {
  const bool handled = Step();
  std::lock_guard<std::mutex> lock(mu_);
  const SessionClock::time_point now = SessionClock::now();
  if (handled) idle_since_ = now;
  if (state_ != SessionState::kClosed) {
    // Bytes of an unfinished frame are no activity: a task that ends
    // without a complete frame past the idle deadline times the session
    // out itself, so a client dripping bytes cannot outlive the timeout.
    if (!handled && IdleDeadlineLocked() <= now) timed_out_ = true;
    // One frame per task: a busy session yields its worker between
    // frames, so it cannot starve its siblings on a small pool.
    if (timed_out_ || (handled && reader_.buffered())) {
      context_.pool->Schedule([this] { Run(); });
      return;
    }
  }
  running_ = false;
  // The last act, under mu_: once the socket is armed, the reactor may
  // schedule the next task or, if the session is closed (its shut
  // socket is readable at once), destroy it as soon as mu_ is free.
  ArmOneShot(context_.epoll_fd, EPOLL_CTL_MOD, fd_, this);
}

bool Session::Step() {
  SessionState state;
  bool timed_out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    state = state_;
    timed_out = timed_out_;
  }
  if (state == SessionState::kClosed) return false;
  const bool may_read = state == SessionState::kOpen && !timed_out;
  Result<std::optional<Frame>> next = reader_.Next();
  while (may_read && next.ok() && !next->has_value()) {
    Result<size_t> n = reader_.Fill(/*timeout_ms=*/0);
    if (!n.ok()) {
      // Nothing more to read yet: wait for the socket again.
      if (FrameReader::IsReadTimeout(n.status())) return false;
      Close();
      return false;
    }
    if (*n == 0) {
      Status eof = reader_.AtEof();
      if (!eof.ok()) SendError(eof);
      Close();
      return false;
    }
    next = reader_.Next();
  }
  if (!next.ok()) {
    // A stream that lost framing cannot be re-synchronized: surface the
    // typed DataLoss, then close.
    SendError(next.status());
    Close();
    return false;
  }
  if (!next->has_value()) {
    SendGoodbye(timed_out ? "idle timeout" : "server draining");
    Close();
    return false;
  }
  HandleFrame(std::move(**next));
  return true;
}

void Session::HandleFrame(Frame frame) {
  switch (frame.type) {
    // Bound-ness is tracked by release_ (strand-only state), not by
    // SessionState: a draining session is still bound, and its buffered
    // queries are answered by contract (session.h).
    case FrameType::kHello: {
      if (release_ != nullptr) {
        SendError(Status::FailedPrecondition(
            "session is already bound: HELLO must be the first and only "
            "binding frame"));
        return;
      }
      Status status = HandleHello(frame);
      if (!status.ok()) SendError(status);
      return;
    }
    case FrameType::kQuery: {
      if (release_ == nullptr) {
        SendError(Status::FailedPrecondition(
            "QUERY before a successful HELLO: bind a tenant and release "
            "first"));
        return;
      }
      Status status = HandleQuery(frame);
      if (!status.ok()) SendError(status);
      return;
    }
    case FrameType::kBye:
      SendGoodbye("bye");
      Close();
      return;
    default:
      // Server-to-client frame types arriving from a client are a
      // protocol violation, not a query-level error: close.
      SendError(Status::InvalidArgument(
          std::string("unexpected client frame '") +
          FrameTypeToken(frame.type) + "'"));
      Close();
      return;
  }
}

Status Session::HandleHello(const Frame& frame) {
  PCLEAN_ASSIGN_OR_RETURN(HelloRequest hello, ParseHello(frame.payload));
  // Mirror the CLI's pairing rule (`--ledger` with `--tenant`): a
  // ledger-backed server admits no anonymous analyst, and a ledger-less
  // server cannot honestly charge a named one.
  if (context_.ledger != nullptr && hello.tenant.empty()) {
    return Status::InvalidArgument(
        "this server charges queries against a budget ledger: HELLO must "
        "name a tenant");
  }
  if (context_.ledger == nullptr && !hello.tenant.empty()) {
    return Status::InvalidArgument(
        "tenant '" + hello.tenant +
        "' named, but the server has no ledger: start `pclean serve` with "
        "--ledger to charge queries");
  }
  const std::string& name =
      hello.release.empty() ? context_.default_release : hello.release;
  auto it = context_.releases->find(name);
  if (it == context_.releases->end()) {
    return Status::NotFound("release '" + name + "' is not served here");
  }
  tenant_ = hello.tenant;
  release_ = it->second;
  WelcomeInfo info;
  info.relation = release_->relation;
  info.rows = release_->table.size();
  Send(Frame{FrameType::kWelcome, RenderWelcome(info)});
  return Status::OK();
}

Status Session::HandleQuery(const Frame& frame) {
  PCLEAN_ASSIGN_OR_RETURN(QueryRequest request,
                          ParseQueryRequest(frame.payload));
  QueryOptions options;
  options.confidence = request.confidence;
  options.exec = context_.query_exec;
  // Charge-before-execute when the server has a ledger: the ε price is
  // durable in the WAL before any estimator runs. Concurrent sessions of
  // one tenant serialize on the ledger's atomic check-and-spend, so they
  // can never jointly overdraft. An overdraft surfaces as the typed
  // ResourceExhausted. A failure sends ERROR, never a partial RESULT.
  std::ostringstream text;
  PCLEAN_RETURN_NOT_OK(AnswerSqlQuery(release_->table, request.sql,
                                      request.direct, options,
                                      context_.ledger, tenant_, text));
  Send(Frame{FrameType::kResult, text.str()});
  if (context_.queries_served != nullptr) {
    context_.queries_served->fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

void Session::SendError(const Status& status) {
  Send(Frame{FrameType::kError, RenderStatusPayload(status)});
}

void Session::SendGoodbye(const std::string& reason) {
  Send(Frame{FrameType::kGoodbye, reason});
}

void Session::Send(const Frame& frame) {
  if (write_failed_) return;
  Status status = WriteFrame(fd_, frame);
  if (status.ok()) return;
  if (status.IsResourceExhausted() && frame.type != FrameType::kError) {
    // The frame (e.g. a huge GROUP BY RESULT) exceeds the wire cap, but
    // the connection itself is healthy: answer with the typed error and
    // keep serving. (ERROR frames are exempt to bound the recursion;
    // they are always far under the cap.)
    SendError(status);
    return;
  }
  // The peer is gone (or the write path is under fault injection):
  // nothing more can usefully be said on this socket.
  write_failed_ = true;
  Close();
}

}  // namespace server
}  // namespace privateclean
