#include "server/protocol.h"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>

#include "common/failpoint.h"
#include "common/io_util.h"
#include "common/string_util.h"

namespace privateclean {
namespace server {

namespace {

constexpr char kMagic[] = "%PCLN";

const struct {
  FrameType type;
  const char* token;
} kFrameTokens[] = {
    {FrameType::kHello, "HELLO"},     {FrameType::kWelcome, "WELCOME"},
    {FrameType::kQuery, "QUERY"},     {FrameType::kResult, "RESULT"},
    {FrameType::kError, "ERROR"},     {FrameType::kBye, "BYE"},
    {FrameType::kGoodbye, "GOODBYE"},
};

bool FrameTypeFromToken(std::string_view token, FrameType* type) {
  for (const auto& entry : kFrameTokens) {
    if (token == entry.token) {
      *type = entry.type;
      return true;
    }
  }
  return false;
}

const char* kTimeoutMessage = "read timed out waiting for a frame";

Status TornFrame(const std::string& why) {
  return Status::DataLoss("torn or corrupt frame: " + why);
}

/// Splits a `key=value` line; empty value is fine, missing '=' is not.
bool KeyValue(std::string_view line, std::string_view key,
              std::string* value) {
  if (line.size() < key.size() + 1 || line.substr(0, key.size()) != key ||
      line[key.size()] != '=') {
    return false;
  }
  *value = std::string(line.substr(key.size() + 1));
  return true;
}

}  // namespace

const char* FrameTypeToken(FrameType type) {
  for (const auto& entry : kFrameTokens) {
    if (entry.type == type) return entry.token;
  }
  return "ERROR";
}

std::string EncodeFrame(const Frame& frame) {
  std::string out = kMagic;
  out += ' ';
  out += FrameTypeToken(frame.type);
  out += ' ';
  out += std::to_string(frame.payload.size());
  out += ' ';
  out += io::Crc32cToHex(io::Crc32c(frame.payload));
  out += '\n';
  out += frame.payload;
  return out;
}

Status WriteFrame(int fd, const Frame& frame) {
  if (frame.payload.size() > kMaxPayloadBytes) {
    // The peer's reader refuses oversize frames as DataLoss; catching
    // the overflow before any byte leaves turns "peer tears the session
    // down with a corrupt-frame diagnosis" into a typed, answerable
    // error on the writer's side.
    return Status::ResourceExhausted(
        "frame payload of " + std::to_string(frame.payload.size()) +
        " bytes exceeds the " + std::to_string(kMaxPayloadBytes) +
        "-byte frame limit");
  }
  std::string bytes = EncodeFrame(frame);
  // A short write here models a connection torn mid-frame: the tail never
  // reaches the peer, whose length/CRC check types it as DataLoss.
  PCLEAN_FAILPOINT_DATA("server.frame.write.short", &bytes);
  size_t sent = 0;
  while (sent < bytes.size()) {
    // MSG_NOSIGNAL: a vanished peer must surface as a typed IOError, not
    // a process-killing SIGPIPE.
    ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("frame write failed: " +
                             std::string(std::strerror(errno)));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

bool FrameReader::IsReadTimeout(const Status& status) {
  return status.IsOutOfRange() &&
         status.message().find(kTimeoutMessage) != std::string::npos;
}

Result<size_t> FrameReader::Fill(int timeout_ms) {
  char chunk[4096];
  for (;;) {
    if (timeout_ms != 0) {
      struct pollfd pfd;
      pfd.fd = fd_;
      pfd.events = POLLIN;
      int ready = ::poll(&pfd, 1, timeout_ms);
      if (ready < 0) {
        if (errno == EINTR) continue;
        return Status::IOError("poll failed: " +
                               std::string(std::strerror(errno)));
      }
      if (ready == 0) return Status::OutOfRange(kTimeoutMessage);
    }
    ssize_t n = ::recv(fd_, chunk, sizeof chunk, MSG_DONTWAIT);
    if (n >= 0) {
      buffer_.append(chunk, static_cast<size_t>(n));
      return static_cast<size_t>(n);
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (timeout_ms == 0) return Status::OutOfRange(kTimeoutMessage);
      continue;  // a spurious wake-up: wait again
    }
    return Status::IOError("frame read failed: " +
                           std::string(std::strerror(errno)));
  }
}

Status FrameReader::AtEof() const {
  if (buffer_.empty()) return Status::OK();
  return TornFrame(buffer_.find('\n') == std::string::npos
                       ? "connection closed mid-header"
                       : "connection closed mid-payload");
}

Result<std::optional<Frame>> FrameReader::Next() {
  // Header: everything up to the first '\n', bounded.
  const size_t newline = buffer_.find('\n');
  if (newline == std::string::npos) {
    if (buffer_.size() > kMaxHeaderBytes) {
      return TornFrame("header exceeds " + std::to_string(kMaxHeaderBytes) +
                       " bytes without a newline");
    }
    return std::optional<Frame>();
  }
  std::string header = buffer_.substr(0, newline);
  std::vector<std::string> parts = Split(header, ' ');
  if (parts.size() != 4 || parts[0] != kMagic) {
    return TornFrame("bad header '" + header + "'");
  }
  Frame frame;
  if (!FrameTypeFromToken(parts[1], &frame.type)) {
    return TornFrame("unknown frame type '" + parts[1] + "'");
  }
  auto len = ParseInt64(parts[2]);
  if (!len.ok() || *len < 0 ||
      static_cast<size_t>(*len) > kMaxPayloadBytes) {
    return TornFrame("bad payload length '" + parts[2] + "'");
  }
  auto expected_crc = io::Crc32cFromHex(parts[3]);
  if (!expected_crc.ok()) {
    return TornFrame("bad payload checksum '" + parts[3] + "'");
  }
  const size_t payload_len = static_cast<size_t>(*len);
  if (buffer_.size() < newline + 1 + payload_len) return std::optional<Frame>();
  frame.payload = buffer_.substr(newline + 1, payload_len);
  buffer_.erase(0, newline + 1 + payload_len);
  // A fault here models bytes damaged in flight: the length/CRC checks
  // below must catch both a dropped tail and a flipped bit.
  PCLEAN_FAILPOINT_DATA("server.frame.read.short", &frame.payload);
  PCLEAN_FAILPOINT_DATA("server.frame.read.bitflip", &frame.payload);
  if (frame.payload.size() != payload_len) {
    return TornFrame("payload short: " + std::to_string(frame.payload.size()) +
                     " of " + std::to_string(payload_len) + " bytes");
  }
  if (io::Crc32c(frame.payload) != *expected_crc) {
    return TornFrame("payload checksum mismatch");
  }
  return std::optional<Frame>(std::move(frame));
}

Result<std::optional<Frame>> FrameReader::Read(int timeout_ms) {
  for (;;) {
    PCLEAN_ASSIGN_OR_RETURN(std::optional<Frame> frame, Next());
    if (frame.has_value()) return frame;
    PCLEAN_ASSIGN_OR_RETURN(size_t n, Fill(timeout_ms));
    if (n == 0) {
      PCLEAN_RETURN_NOT_OK(AtEof());
      return std::optional<Frame>();  // clean close
    }
  }
}

std::string RenderStatusPayload(const Status& status) {
  std::string out = StatusCodeToString(status.code());
  out += '\n';
  out += status.message();
  return out;
}

Status ParseStatusPayload(const std::string& payload) {
  size_t newline = payload.find('\n');
  if (newline == std::string::npos) {
    return Status::Internal("unparseable error payload: " + payload);
  }
  std::string name = payload.substr(0, newline);
  std::string message = payload.substr(newline + 1);
  // The closed StatusCode set: match the stable rendered names.
  for (int code = 0; code <= static_cast<int>(StatusCode::kResourceExhausted);
       ++code) {
    StatusCode candidate = static_cast<StatusCode>(code);
    if (name == StatusCodeToString(candidate)) {
      return Status::WithCode(candidate, std::move(message));
    }
  }
  return Status::Internal("unknown status code '" + name + "': " + message);
}

std::string RenderHello(const HelloRequest& hello) {
  return "tenant=" + hello.tenant + "\nrelease=" + hello.release + "\n";
}

Result<HelloRequest> ParseHello(const std::string& payload) {
  std::vector<std::string> lines = Split(payload, '\n');
  if (lines.size() != 3 || !lines[2].empty()) {
    return Status::InvalidArgument("malformed HELLO payload");
  }
  HelloRequest hello;
  if (!KeyValue(lines[0], "tenant", &hello.tenant) ||
      !KeyValue(lines[1], "release", &hello.release)) {
    return Status::InvalidArgument("malformed HELLO payload");
  }
  return hello;
}

std::string RenderWelcome(const WelcomeInfo& info) {
  return "relation=" + info.relation + "\nrows=" + std::to_string(info.rows) +
         "\n";
}

Result<WelcomeInfo> ParseWelcome(const std::string& payload) {
  std::vector<std::string> lines = Split(payload, '\n');
  std::string rows;
  WelcomeInfo info;
  if (lines.size() != 3 || !lines[2].empty() ||
      !KeyValue(lines[0], "relation", &info.relation) ||
      !KeyValue(lines[1], "rows", &rows)) {
    return Status::InvalidArgument("malformed WELCOME payload");
  }
  PCLEAN_ASSIGN_OR_RETURN(int64_t n, ParseInt64(rows));
  if (n < 0) return Status::InvalidArgument("malformed WELCOME payload");
  info.rows = static_cast<uint64_t>(n);
  return info;
}

std::string RenderQueryRequest(const QueryRequest& request) {
  std::string out = "direct=";
  out += request.direct ? '1' : '0';
  out += " confidence=";
  out += DoubleBitsHex(request.confidence);
  out += '\n';
  out += request.sql;
  return out;
}

Result<QueryRequest> ParseQueryRequest(const std::string& payload) {
  size_t newline = payload.find('\n');
  if (newline == std::string::npos) {
    return Status::InvalidArgument("malformed QUERY payload: no option line");
  }
  std::string_view options(payload.data(), newline);
  QueryRequest request;
  std::string direct;
  std::string confidence;
  std::vector<std::string> parts = Split(options, ' ');
  if (parts.size() != 2 || !KeyValue(parts[0], "direct", &direct) ||
      !KeyValue(parts[1], "confidence", &confidence) ||
      (direct != "0" && direct != "1") ||
      !DoubleFromBitsHex(confidence, &request.confidence)) {
    return Status::InvalidArgument("malformed QUERY payload option line '" +
                                   std::string(options) + "'");
  }
  request.direct = direct == "1";
  request.sql = payload.substr(newline + 1);
  return request;
}

}  // namespace server
}  // namespace privateclean
