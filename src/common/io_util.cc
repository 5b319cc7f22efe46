#include "common/io_util.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>

#include "common/failpoint.h"
#include "common/random.h"

namespace privateclean {
namespace io {

namespace {

/// Slicing-by-8 tables for the reflected Castagnoli polynomial:
/// table[0] is the byte-at-a-time table, and table[k][b] is the CRC of
/// byte b followed by k zero bytes, so eight lookups advance 8 bytes.
using Crc32cTables = std::array<std::array<uint32_t, 256>, 8>;

const Crc32cTables& Tables() {
  static const Crc32cTables* tables = [] {
    auto* t = new Crc32cTables();
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0u);
      }
      (*t)[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (size_t k = 1; k < 8; ++k) {
        const uint32_t prev = (*t)[k - 1][i];
        (*t)[k][i] = (prev >> 8) ^ (*t)[0][prev & 0xFF];
      }
    }
    return t;
  }();
  return *tables;
}

/// Little-endian u32 at `p`, assembled bytewise so the kernel is the
/// same on every host.
uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

std::string ErrnoMessage() {
  return std::strerror(errno);
}

/// RAII file descriptor so every early return closes the file.
struct Fd {
  int fd = -1;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
};

}  // namespace

uint32_t Crc32cExtend(uint32_t crc, std::string_view data) {
  const Crc32cTables& t = Tables();
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  crc = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLe32(p) ^ crc;
    const uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

uint32_t Crc32c(std::string_view data) { return Crc32cExtend(0, data); }

std::string Crc32cToHex(uint32_t crc) {
  char buf[9];
  std::snprintf(buf, sizeof(buf), "%08x", crc);
  return buf;
}

Result<uint32_t> Crc32cFromHex(std::string_view hex) {
  if (hex.size() != 8) {
    return Status::InvalidArgument("CRC32C hex must be 8 digits, got '" +
                                   std::string(hex) + "'");
  }
  uint32_t value = 0;
  for (char c : hex) {
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<uint32_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      value |= static_cast<uint32_t>(c - 'A' + 10);
    } else {
      return Status::InvalidArgument("bad CRC32C hex digit in '" +
                                     std::string(hex) + "'");
    }
  }
  return value;
}

Result<std::string> ReadFileToString(const std::string& path) {
  PCLEAN_FAILPOINT("io.read.open", path);
  Fd f;
  f.fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (f.fd < 0) {
    if (errno == ENOENT || errno == ENOTDIR) {
      return Status::NotFound("'" + path + "' not found");
    }
    return Status::IOError("cannot open '" + path +
                           "' for reading: " + ErrnoMessage());
  }
  PCLEAN_FAILPOINT("io.read.transient", path);
  std::string data;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(f.fd, buf, sizeof(buf));
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("failed reading '" + path + "' at byte " +
                             std::to_string(data.size()) + ": " +
                             ErrnoMessage());
    }
    data.append(buf, static_cast<size_t>(n));
  }
  PCLEAN_FAILPOINT_DATA("io.read.bitflip", &data);
  PCLEAN_FAILPOINT_DATA("io.read.truncate", &data);
  return data;
}

Result<std::string> ReadFileWithRetry(const std::string& path,
                                      const RetryOptions& retry) {
  Status last;
  Rng jitter(retry.jitter_seed == 0 ? 1 : retry.jitter_seed);
  int cap_ms = retry.initial_backoff_ms;
  int slept_ms = 0;
  int attempts = 0;
  for (int attempt = 1;; ++attempt) {
    auto result = ReadFileToString(path);
    attempts = attempt;
    // Only IOError is plausibly transient; everything else (incl. the
    // value itself) is final.
    if (result.ok() || !result.status().IsIOError()) return result;
    last = result.status();
    if (attempt >= retry.max_attempts) break;
    // Full jitter: sleep uniform in [0, cap], never past the total
    // budget. A spent budget ends the retry loop early — waiting longer
    // than the budget cannot be cheaper than failing over.
    int remaining_ms = retry.max_total_backoff_ms - slept_ms;
    if (remaining_ms <= 0) break;
    int sleep_ms = std::min(cap_ms, remaining_ms);
    if (retry.jitter_seed != 0 && sleep_ms > 0) {
      sleep_ms = static_cast<int>(
          jitter.UniformInt(static_cast<uint64_t>(sleep_ms) + 1));
    }
    slept_ms += sleep_ms;
    if (retry.sleep_fn) {
      retry.sleep_fn(sleep_ms);
    } else if (sleep_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    }
    if (cap_ms <= (1 << 30)) cap_ms *= 2;
  }
  return Status::IOError(last.message() + " (after " +
                         std::to_string(attempts) + " attempts)");
}

Status WriteFileDurable(const std::string& path, std::string_view data) {
  PCLEAN_FAILPOINT("io.write.open", path);
  Fd f;
  f.fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                0644);
  if (f.fd < 0) {
    return Status::IOError("cannot open '" + path +
                           "' for writing: " + ErrnoMessage());
  }

  std::string_view payload = data;
#if defined(PCLEAN_FAILPOINTS_ENABLED)
  // A short write silently drops the tail — the caller sees OK and only
  // a checksum on read can catch it. Copy so the fault cannot leak back
  // into the caller's buffer.
  std::string mutated(data);
  PCLEAN_FAILPOINT_DATA("io.write.short", &mutated);
  payload = mutated;
  // ENOSPC-style failure: persist a partial prefix, then report the
  // error, leaving a torn file behind for the reader to detect.
  {
    Status enospc = failpoint::Hit("io.write.enospc", path);
    if (!enospc.ok()) {
      std::string_view prefix = payload.substr(0, payload.size() / 2);
      while (!prefix.empty()) {
        ssize_t n = ::write(f.fd, prefix.data(), prefix.size());
        if (n <= 0) break;
        prefix.remove_prefix(static_cast<size_t>(n));
      }
      return enospc;
    }
  }
#endif

  std::string_view rest = payload;
  while (!rest.empty()) {
    ssize_t n = ::write(f.fd, rest.data(), rest.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("failed writing '" + path + "' at byte " +
                             std::to_string(payload.size() - rest.size()) +
                             ": " + ErrnoMessage());
    }
    rest.remove_prefix(static_cast<size_t>(n));
  }
  PCLEAN_FAILPOINT("io.write.fsync", path);
  if (::fsync(f.fd) != 0) {
    return Status::IOError("fsync failed for '" + path +
                           "': " + ErrnoMessage());
  }
  return Status::OK();
}

Status AppendFile(const std::string& path, std::string_view data) {
  Fd f;
  f.fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
                0644);
  if (f.fd < 0) {
    return Status::IOError("cannot open '" + path +
                           "' for appending: " + ErrnoMessage());
  }
  std::string_view rest = data;
  while (!rest.empty()) {
    ssize_t n = ::write(f.fd, rest.data(), rest.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("failed appending to '" + path + "' at byte " +
                             std::to_string(data.size() - rest.size()) +
                             ": " + ErrnoMessage());
    }
    rest.remove_prefix(static_cast<size_t>(n));
  }
  return Status::OK();
}

Status FsyncFile(const std::string& path) {
  Fd f;
  f.fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (f.fd < 0) {
    return Status::IOError("cannot open '" + path +
                           "' for fsync: " + ErrnoMessage());
  }
  if (::fsync(f.fd) != 0) {
    return Status::IOError("fsync failed for '" + path +
                           "': " + ErrnoMessage());
  }
  return Status::OK();
}

Status FsyncDir(const std::string& path) {
  PCLEAN_FAILPOINT("io.fsync.dir", path);
  Fd f;
  f.fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (f.fd < 0) {
    return Status::IOError("cannot open directory '" + path +
                           "' for fsync: " + ErrnoMessage());
  }
  if (::fsync(f.fd) != 0) {
    return Status::IOError("fsync failed for directory '" + path +
                           "': " + ErrnoMessage());
  }
  return Status::OK();
}

}  // namespace io
}  // namespace privateclean
