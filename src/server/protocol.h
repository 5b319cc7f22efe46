#ifndef PRIVATECLEAN_SERVER_PROTOCOL_H_
#define PRIVATECLEAN_SERVER_PROTOCOL_H_

#include <cstddef>
#include <optional>
#include <string>

#include "common/result.h"
#include "common/status.h"

namespace privateclean {
namespace server {

/// Wire protocol of `pclean serve`: line-oriented, length-framed,
/// CRC-checked messages over a Unix-domain stream socket.
///
/// One frame is a single header line followed by exactly `len` payload
/// bytes:
///
///   %PCLN <TYPE> <len> <crc32c-hex8>\n<payload>
///
/// where `TYPE` is one of the tokens below, `len` is the payload byte
/// count in decimal, and the CRC32C (the release-MANIFEST checksum,
/// common/io_util.h) covers exactly the payload bytes. The header is
/// ASCII and bounded (kMaxHeaderBytes), so a reader can frame the stream
/// without trusting the peer; the CRC turns a torn or bit-flipped frame
/// into a typed DataLoss instead of a silently-wrong request or answer.
///
/// Conversation (client speaks first):
///
///   HELLO    client -> server   tenant/release binding (RenderHello)
///   WELCOME  server -> client   binding accepted (relation name, rows)
///   QUERY    client -> server   one SQL request (RenderQueryRequest)
///   RESULT   server -> client   rendered result text, byte-identical to
///                               what `pclean query` prints for the same
///                               SQL over the same release
///   ERROR    server -> client   a typed Status (RenderStatusPayload);
///                               the session stays open for query-level
///                               errors and closes after framing errors
///   BYE      client -> server   polite close
///   GOODBYE  server -> client   close notice (drain, idle timeout, BYE)
///
/// Every error that crosses the wire reuses the Status taxonomy
/// (common/status.h): the ERROR payload is `<code-name>\n<message>` and
/// ParseStatusPayload reconstructs the same typed Status on the client,
/// so `ResourceExhausted` from admission control or `DataLoss` from a
/// corrupt release round-trips intact.
///
/// Failpoint sites (common/failpoint.h): `server.frame.read.short` and
/// `server.frame.read.bitflip` mutate a received payload before its
/// length/CRC check (modeling a torn or corrupted connection), and
/// `server.frame.write.short` drops the tail of an outgoing frame so the
/// peer's checksum catches it.

/// Frame type tokens.
enum class FrameType {
  kHello,
  kWelcome,
  kQuery,
  kResult,
  kError,
  kBye,
  kGoodbye,
};

/// Stable wire token for a frame type ("HELLO", "RESULT", ...).
const char* FrameTypeToken(FrameType type);

/// One protocol frame.
struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;
};

/// Frames larger than this are refused on both sides of the wire: the
/// reader types them DataLoss before any payload read (a corrupt length
/// field cannot make it allocate or wait for gigabytes), and WriteFrame
/// types them ResourceExhausted before any byte leaves (an oversize
/// RESULT must surface as an answerable error, not as the peer
/// mis-diagnosing a torn frame).
inline constexpr size_t kMaxPayloadBytes = 1 << 20;

/// Upper bound on the header line ("%PCLN GOODBYE 1048576 ffffffff\n").
inline constexpr size_t kMaxHeaderBytes = 64;

/// Serializes a frame (header line + payload).
std::string EncodeFrame(const Frame& frame);

/// Writes one frame to `fd`, looping over partial writes. Failpoint
/// `server.frame.write.short` truncates the encoded bytes first. Typed
/// IOError when the peer is gone (EPIPE/ECONNRESET; SIGPIPE suppressed);
/// typed ResourceExhausted — with nothing sent — when the payload
/// exceeds kMaxPayloadBytes.
Status WriteFrame(int fd, const Frame& frame);

/// Buffered frame reader over a stream socket: one parser (Next) over a
/// buffer that a blocking Read fills for the client and that the
/// server's strand task fills without blocking (Fill(0)).
///
/// Read() and Next() return:
///   a Frame          — one complete, CRC-verified frame;
///   std::nullopt     — Read: the peer closed cleanly at a frame
///                      boundary; Next: no complete frame is buffered;
///   DataLoss         — torn/corrupt frame (bad magic, oversize length,
///                      EOF mid-frame, CRC mismatch). The stream cannot
///                      be re-synchronized after this;
///   IOError          — the read itself failed;
///   OutOfRange       — no bytes arrived within `timeout_ms`
///                      (IsReadTimeout distinguishes it).
class FrameReader {
 public:
  explicit FrameReader(int fd) : fd_(fd) {}

  /// Next(), filling the buffer while it holds no complete frame.
  /// `timeout_ms < 0` blocks indefinitely. The timeout applies to each
  /// wait for bytes; mid-frame waits use the same bound, so a stalled
  /// peer cannot wedge the reader forever.
  Result<std::optional<Frame>> Read(int timeout_ms = -1);

  /// Parses one frame out of the buffer without reading. A header is
  /// checked as soon as its line is buffered, the payload once all of it
  /// is.
  Result<std::optional<Frame>> Next();

  /// Appends one chunk of what the socket holds, waiting up to
  /// `timeout_ms` for it (< 0: forever; 0: not at all). Returns the byte
  /// count, 0 at EOF, or the typed timeout / IOError.
  Result<size_t> Fill(int timeout_ms);

  /// At EOF: OK when the stream ended at a frame boundary, else the
  /// DataLoss of the frame it cut short.
  Status AtEof() const;

  /// True while the buffer holds bytes not yet returned as a frame.
  bool buffered() const { return !buffer_.empty(); }

  /// True for the typed status Read() and Fill() return when the
  /// timeout lapsed with no bytes.
  static bool IsReadTimeout(const Status& status);

 private:
  int fd_;
  std::string buffer_;
};

/// --- Typed payload codecs ---------------------------------------------

/// ERROR payload: `<code-name>\n<message>`. The code name is the stable
/// StatusCodeToString rendering; parsing an unknown name yields an
/// Internal status carrying the raw payload rather than dropping it.
std::string RenderStatusPayload(const Status& status);
Status ParseStatusPayload(const std::string& payload);

/// HELLO payload: `tenant=<name>\nrelease=<name>\n` (either line may be
/// empty: an empty tenant is an anonymous session, an empty release
/// binds the server's default release). Names must not contain newlines.
struct HelloRequest {
  std::string tenant;
  std::string release;
};
std::string RenderHello(const HelloRequest& hello);
Result<HelloRequest> ParseHello(const std::string& payload);

/// WELCOME payload: `relation=<name>\nrows=<n>\n`.
struct WelcomeInfo {
  std::string relation;
  uint64_t rows = 0;
};
std::string RenderWelcome(const WelcomeInfo& info);
Result<WelcomeInfo> ParseWelcome(const std::string& payload);

/// QUERY payload: `direct=<0|1> confidence=<ieee754-bits-hex16>\n<sql>`.
/// The confidence travels as the hex of its bit pattern (the ledger-WAL
/// idiom) so the served result is bit-identical to a local `pclean
/// query` at the same confidence.
struct QueryRequest {
  std::string sql;
  bool direct = false;
  double confidence = 0.95;
};
std::string RenderQueryRequest(const QueryRequest& request);
Result<QueryRequest> ParseQueryRequest(const std::string& payload);

}  // namespace server
}  // namespace privateclean

#endif  // PRIVATECLEAN_SERVER_PROTOCOL_H_
