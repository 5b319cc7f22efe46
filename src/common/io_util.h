#ifndef PRIVATECLEAN_COMMON_IO_UTIL_H_
#define PRIVATECLEAN_COMMON_IO_UTIL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/result.h"

namespace privateclean {
namespace io {

/// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected), the checksum
/// of release payloads, WAL frames and wire frames. Portable
/// slicing-by-8 table kernel (eight lookups per 8 input bytes), with no
/// CPU dispatch.
uint32_t Crc32c(std::string_view data);
/// Incremental form: extends `crc` (a previous Crc32c result) with more
/// bytes, so a file can be checksummed in chunks.
uint32_t Crc32cExtend(uint32_t crc, std::string_view data);

/// Formats a CRC as fixed-width lowercase hex (8 digits) and parses it
/// back; the MANIFEST stores checksums in this form.
std::string Crc32cToHex(uint32_t crc);
Result<uint32_t> Crc32cFromHex(std::string_view hex);

/// Reads a whole file. Typed failures:
///   NotFound — the file does not exist;
///   IOError  — the open/read failed (possibly transiently);
/// Failpoint sites: io.read.open, io.read.transient, io.read.bitflip,
/// io.read.truncate.
Result<std::string> ReadFileToString(const std::string& path);

/// Bounded retry with exponential backoff around ReadFileToString.
/// Only IOError is retried — NotFound and DataLoss are permanent, and a
/// checksum mismatch is detected by the caller, not here.
///
/// Backoff uses *full jitter* (AWS-style): each sleep is drawn uniformly
/// from [0, cap], where the cap doubles per attempt from
/// `initial_backoff_ms`. Jitter decorrelates retry storms when many
/// readers (release opens, WAL recovery replays) hit the same transient
/// fault together. Total sleep across all attempts is additionally
/// bounded by `max_total_backoff_ms`: once the budget is spent, the next
/// failure is final even if attempts remain.
struct RetryOptions {
  int max_attempts = 4;
  /// First backoff cap; doubles per attempt (1, 2, 4 ms caps by default,
  /// so a fully failing read costs < 10 ms even un-jittered).
  int initial_backoff_ms = 1;
  /// Hard ceiling on the summed sleep across every retry of one call.
  int max_total_backoff_ms = 100;
  /// Seed of the jitter stream; a fixed seed makes the sleep sequence
  /// deterministic. 0 disables jitter (sleeps the full cap each time).
  uint64_t jitter_seed = 0x9E3779B97F4A7C15ULL;
  /// Test hook: invoked instead of sleeping when set, with the sleep
  /// duration in ms. Lets a unit test count and measure sleeps without
  /// wall-clock delay.
  std::function<void(int)> sleep_fn;
};
Result<std::string> ReadFileWithRetry(const std::string& path,
                                      const RetryOptions& retry = {});

/// Writes a whole file and fsyncs it before returning OK, so a
/// subsequent directory rename publishes fully-persisted bytes.
/// Failpoint sites: io.write.open, io.write.short, io.write.enospc,
/// io.write.fsync.
Status WriteFileDurable(const std::string& path, std::string_view data);

/// Appends bytes to `path` (creating it if absent) WITHOUT fsync. The
/// write-ahead-log building block: a group commit appends many frames,
/// then makes the batch durable with one FsyncFile. Callers that need
/// fault injection wrap the call in their own failpoint sites (see
/// privacy/ledger.cc); this function itself is deliberately uninstrumented
/// so ledger faults and release faults stay independently addressable.
Status AppendFile(const std::string& path, std::string_view data);

/// Fsyncs a regular file by path (open + fsync + close): the durability
/// barrier of a group commit batch appended with AppendFile.
Status FsyncFile(const std::string& path);

/// Fsyncs a directory so entries created/renamed inside it are durable.
/// Failpoint site: io.fsync.dir.
Status FsyncDir(const std::string& path);

}  // namespace io
}  // namespace privateclean

#endif  // PRIVATECLEAN_COMMON_IO_UTIL_H_
