#ifndef PRIVATECLEAN_COMMON_FAILPOINT_H_
#define PRIVATECLEAN_COMMON_FAILPOINT_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"

namespace privateclean {
namespace failpoint {

/// Fault injection for durability testing (RocksDB fail_point style).
///
/// Every fallible step of release/CSV I/O — plus the query/provenance
/// read path (release open, predicate scan, lazy provenance-graph
/// build) — evaluates a *named site* via
/// the `PCLEAN_FAILPOINT*` macros below. A site is inert until a test
/// (or the `PCLEAN_FAILPOINTS` environment variable) activates it with a
/// `Fault`; an active site either injects a typed error Status at that
/// step or mutates the byte buffer flowing through it (short write, bit
/// flip, truncation). The full site catalogue is fixed at compile time
/// (`Sites()`), so a torture test can enumerate and exercise every
/// injection point.
///
/// When the CMake option `PCLEAN_FAILPOINTS` is OFF (the default for
/// Release builds) the macros compile to nothing and the instrumented
/// code paths carry zero overhead; the registry functions still link so
/// tests can detect the configuration via `CompiledIn()`.
///
/// Environment activation: `PCLEAN_FAILPOINTS=site[=action][:count],...`
/// where action is one of `error` (IOError, the default), `enospc`,
/// `notfound`, `exists`, `short-write`, `bit-flip`, `truncate`, and
/// `count` bounds how many hits fire before the site auto-deactivates.
/// Example: `PCLEAN_FAILPOINTS=io.read.transient=error:2` makes the
/// first two reads fail and lets the retry loop succeed on the third.

/// What an activated site does when its code path is reached.
struct Fault {
  enum class Kind {
    /// Return `Status::WithCode(code, ...)` from the site.
    kError,
    /// Write path: silently drop the buffer's tail before it reaches the
    /// file, simulating a short write the device did not report.
    kShortWrite,
    /// Read path: flip one bit of the bytes read.
    kBitFlip,
    /// Read path: drop the tail of the bytes read (truncated file).
    kTruncate,
  };

  Kind kind = Kind::kError;
  /// Code of the injected Status (kError sites).
  StatusCode code = StatusCode::kIOError;
  /// Human-readable cause included in the injected Status message.
  std::string message = "injected fault";
  /// Number of hits that fire before the site deactivates itself;
  /// -1 fires on every hit until `Deactivate`.
  int remaining = -1;
  /// Byte position for data faults (cut point for kShortWrite/kTruncate,
  /// byte whose lowest bit flips for kBitFlip). SIZE_MAX = buffer middle.
  size_t offset = static_cast<size_t>(-1);
};

/// True when the macros are compiled in (CMake PCLEAN_FAILPOINTS=ON).
bool CompiledIn();

/// Activates `site` with `fault`. InvalidArgument for names outside the
/// catalogue, so typos in tests and env specs fail loudly.
Status Activate(const std::string& site, Fault fault);

/// Deactivates one site / all sites. Hit counters are unaffected.
void Deactivate(const std::string& site);
void DeactivateAll();

/// The compile-time catalogue of every injection site, in a stable order.
const std::vector<std::string>& Sites();

/// The fault a bare `site` (no `=action`) env entry activates — kError
/// for status sites, the matching data fault for buffer sites.
Fault DefaultFault(const std::string& site);

/// Times `site` was reached (active or not) since the last `ResetHits`.
/// Counted only when compiled in; the torture test uses this to prove
/// every catalogued site actually sits on the exercised I/O paths.
uint64_t Hits(const std::string& site);
void ResetHits();

/// Parses and applies a `site[=action][:count]` spec list (the
/// `PCLEAN_FAILPOINTS` grammar). Entries separated by ',' or ';'.
Status ActivateFromSpec(const std::string& spec);

/// Implementation hooks for the macros — not for direct use.
/// `Hit` returns the injected error if `site` is active with a kError
/// fault; `detail` names the file or directory involved.
Status Hit(const char* site, const std::string& detail);
/// Applies an active data fault to `*data` in place; no-op otherwise.
void HitData(const char* site, std::string* data);

}  // namespace failpoint
}  // namespace privateclean

#if defined(PCLEAN_FAILPOINTS_ENABLED)
/// Evaluates a status site: returns the injected Status from the
/// enclosing function when the site is active.
#define PCLEAN_FAILPOINT(site, detail)                             \
  do {                                                             \
    ::privateclean::Status _pclean_fp =                            \
        ::privateclean::failpoint::Hit((site), (detail));          \
    if (!_pclean_fp.ok()) return _pclean_fp;                       \
  } while (false)
/// Evaluates a data site: mutates `*(buf)` when the site is active.
#define PCLEAN_FAILPOINT_DATA(site, buf) \
  ::privateclean::failpoint::HitData((site), (buf))
#else
// Compiled out: the arguments are named but never evaluated (sizeof is
// unevaluated), so a parameter used only by a site is not unused.
#define PCLEAN_FAILPOINT(site, detail) \
  do {                                 \
    (void)sizeof(site);                \
    (void)sizeof(detail);              \
  } while (false)
#define PCLEAN_FAILPOINT_DATA(site, buf) \
  do {                                   \
    (void)sizeof(site);                  \
    (void)sizeof(buf);                   \
  } while (false)
#endif

#endif  // PRIVATECLEAN_COMMON_FAILPOINT_H_
