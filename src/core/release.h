#ifndef PRIVATECLEAN_CORE_RELEASE_H_
#define PRIVATECLEAN_CORE_RELEASE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/private_table.h"
#include "privacy/grr.h"

namespace privateclean {

/// Serialization of a private release — the actual provider→analyst
/// handoff (layout in DESIGN.md §8). A format-v3 release directory holds:
///
///   MANIFEST        magic, version, relation size S, mechanism, relation
///                   name, one `column:` line per attribute (kind, type,
///                   parameter p or b and sensitivity as IEEE-754 bit
///                   hex, domain size N, dictionary entries, name), one
///                   `file:` line per payload with its length and
///                   CRC32C, and a self-checksum
///   column_<i>.bin  attribute i's rows: a validity bitmap, then S
///                   little-endian values — string codes at the narrowest
///                   width holding the dictionary (u8/u16/u32), int64 and
///                   double values at 8 bytes
///   domain_<i>.bin  discrete attribute i's dictionary (string only: the
///                   column's entries in code order, then domain values
///                   the column lacks) and its randomization-time domain
///                   as an N-row payload
///
/// Everything in the release is a public parameter of the mechanism —
/// shipping it alongside V does not weaken ε-local differential privacy
/// — and it is exactly what the analyst-side estimators need (p_i, b_i,
/// the dirty domains fixing N, and S).
///
/// Durability contract. WriteRelease renders every file in memory,
/// writes them into a temporary sibling directory with write+fsync,
/// fsyncs it, and only then renames it over the target (backing up and
/// restoring an existing release if the swap fails part-way). Opening a
/// release is read → CRC → validate → bind: each file is read once and
/// checked against its MANIFEST length and CRC32C before decoding, then
/// every decoded field is validated. Failures are typed:
///
///   NotFound           no release at that path (no MANIFEST, or a torn
///                      swap left nothing behind)
///   DataLoss           checksum/length mismatch, a listed file missing
///                      or a payload unlisted, or decoded bytes that fail
///                      validation — always naming the file
///   IOError            possibly-transient read failure (retried with
///                      bounded backoff before being returned)
///   FailedPrecondition a format version or mechanism family this reader
///                      does not know
///   AlreadyExists      the target exists and is not a replaceable
///                      release directory

/// The release format version this build writes and reads.
inline constexpr int kReleaseFormatVersion = 3;

/// Writes the release into `dir` atomically: on return the target is
/// either the complete new release or (on error) its previous content.
/// An existing release directory (or empty directory) at `dir` is
/// replaced by atomic swap; anything else there fails with
/// AlreadyExists. `exec` shards the payload encoding; the bytes written
/// depend only on the relation and metadata, never on the thread count.
Status WriteRelease(const Table& private_relation,
                    const PrivateRelationMetadata& metadata,
                    const std::string& dir, const ExecutionOptions& exec = {});

/// Convenience overload for a fresh GRR output.
Status WriteRelease(const GrrOutput& grr, const std::string& dir,
                    const ExecutionOptions& exec = {});

/// A loaded release: the private relation and its mechanism metadata.
struct LoadedRelease {
  Table relation;
  PrivateRelationMetadata metadata;
};

/// Reads a release directory back: every file is checked against the
/// MANIFEST, then bound into a fully decoded Table. `exec` shards the
/// payload decoding; the Table is identical at every thread count.
Result<LoadedRelease> ReadRelease(const std::string& dir,
                                  const ExecutionOptions& exec = {});

/// Reconstructs an analyst-side PrivateTable from a loaded release. The
/// relation must be the *uncleaned* private relation as released (the
/// provenance snapshot anchors to it); apply cleaners afterwards via
/// PrivateTable::Clean as usual.
Result<PrivateTable> OpenRelease(const std::string& dir,
                                 const ExecutionOptions& exec = {});

/// Outcome of checking one payload file against the MANIFEST.
struct ReleaseFileCheck {
  std::string file;    ///< name relative to the release directory
  uint64_t bytes = 0;  ///< size recorded in the MANIFEST
  Status status;       ///< OK, or typed DataLoss/NotFound/IOError
};

/// Result of `VerifyRelease`.
struct ReleaseVerification {
  uint64_t rows = 0;  ///< relation size recorded in the MANIFEST
  std::vector<ReleaseFileCheck> files;
  /// OK iff every file check passed and the verified bytes decode;
  /// otherwise the first failure, with its file named in the message.
  Status status;
};

/// Integrity check behind `pclean verify`: reads and checksums every
/// file once, reporting each, then decodes the verified bytes exactly as
/// ReadRelease does. Returns an error Result when there is no manifest
/// to check against (NotFound / DataLoss / FailedPrecondition);
/// otherwise per-file outcomes plus an overall status.
Result<ReleaseVerification> VerifyRelease(const std::string& dir);

}  // namespace privateclean

#endif  // PRIVATECLEAN_CORE_RELEASE_H_
