#include "privacy/ledger.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string_view>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/io_util.h"
#include "common/string_util.h"

namespace privateclean {

namespace {

constexpr char kWalName[] = "ledger.wal";
constexpr char kCkptName[] = "ledger.ckpt";
constexpr char kCkptMagic[] = "%PCLEAN-LEDGER";

/// Concurrent charges tolerate this much float drift before a budget
/// counts as overdrawn; dyadic ε values (the common case) never need it.
constexpr double kBudgetSlack = 1e-9;

enum class Op { kGrant, kRelax, kCharge };

const char* OpName(Op op) {
  switch (op) {
    case Op::kGrant:
      return "grant";
    case Op::kRelax:
      return "relax";
    case Op::kCharge:
      return "charge";
  }
  return "?";
}

bool OpFromName(std::string_view name, Op* op) {
  if (name == "grant") {
    *op = Op::kGrant;
  } else if (name == "relax") {
    *op = Op::kRelax;
  } else if (name == "charge") {
    *op = Op::kCharge;
  } else {
    return false;
  }
  return true;
}

std::string FormatEps(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

bool IsHexDigit(char c) {
  return IsDigit(c) || (c >= 'a' && c <= 'f');
}

bool ParseU64(std::string_view text, uint64_t* value) {
  if (text.empty() || text.size() > 19) return false;
  uint64_t v = 0;
  for (char c : text) {
    if (!IsDigit(c)) return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *value = v;
  return true;
}

struct WalRecord {
  uint64_t seq = 0;
  Op op = Op::kGrant;
  double epsilon = 0.0;
  std::string tenant;
};

/// One WAL frame: `<crc32c-hex8> <payload-len> <payload>\n`.
std::string EncodeFrame(uint64_t seq, Op op, double epsilon,
                        const std::string& tenant) {
  std::string payload = std::to_string(seq);
  payload += ' ';
  payload += OpName(op);
  payload += ' ';
  payload += DoubleBitsHex(epsilon);
  payload += ' ';
  payload += tenant;
  std::string frame = io::Crc32cToHex(io::Crc32c(payload));
  frame += ' ';
  frame += std::to_string(payload.size());
  frame += ' ';
  frame += payload;
  frame += '\n';
  return frame;
}

bool ParsePayload(std::string_view payload, WalRecord* rec) {
  size_t sp1 = payload.find(' ');
  if (sp1 == std::string_view::npos) return false;
  size_t sp2 = payload.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) return false;
  size_t sp3 = payload.find(' ', sp2 + 1);
  if (sp3 == std::string_view::npos) return false;
  if (!ParseU64(payload.substr(0, sp1), &rec->seq)) return false;
  if (!OpFromName(payload.substr(sp1 + 1, sp2 - sp1 - 1), &rec->op)) {
    return false;
  }
  if (!DoubleFromBitsHex(payload.substr(sp2 + 1, sp3 - sp2 - 1),
                         &rec->epsilon)) {
    return false;
  }
  rec->tenant = std::string(payload.substr(sp3 + 1));
  return !rec->tenant.empty();
}

/// Walks the WAL image frame by frame. A frame the image ends inside is
/// a torn tail: `*valid_prefix` is set to its start and parsing stops
/// cleanly (the caller truncates the file there). A frame that is fully
/// present but damaged cannot be the work of a crash — an append-only
/// file tears only by losing its tail, never by changing bytes — so it
/// is DataLoss naming the file and byte offset.
Status ParseWalFrames(const std::string& path, const std::string& bytes,
                      std::vector<WalRecord>* records,
                      size_t* valid_prefix) {
  *valid_prefix = bytes.size();
  size_t off = 0;
  while (off < bytes.size()) {
    const size_t start = off;
    auto corrupt = [&](const std::string& what) {
      return Status::DataLoss(
          "'" + path + "': " + what + " at byte " + std::to_string(start) +
          " — mid-log corruption, not a torn tail; refusing to drop "
          "acknowledged records");
    };
    const size_t remaining = bytes.size() - start;
    // Header: 8 CRC hex digits, space, decimal payload length, space.
    if (remaining < 9) {
      *valid_prefix = start;
      break;
    }
    for (size_t i = 0; i < 8; ++i) {
      if (!IsHexDigit(bytes[start + i])) return corrupt("bad frame CRC field");
    }
    if (bytes[start + 8] != ' ') return corrupt("bad frame header");
    size_t j = start + 9;
    while (j < bytes.size() && IsDigit(bytes[j]) && j - start < 29) ++j;
    if (j == bytes.size()) {
      *valid_prefix = start;  // header cut mid-length: torn
      break;
    }
    if (j == start + 9 || bytes[j] != ' ') {
      return corrupt("bad frame length field");
    }
    uint64_t payload_len = 0;
    if (!ParseU64(std::string_view(bytes).substr(start + 9, j - start - 9),
                  &payload_len)) {
      return corrupt("bad frame length field");
    }
    const size_t payload_start = j + 1;
    if (bytes.size() - payload_start < payload_len + 1) {
      *valid_prefix = start;  // frame runs past EOF: torn
      break;
    }
    std::string_view payload =
        std::string_view(bytes).substr(payload_start, payload_len);
    if (bytes[payload_start + payload_len] != '\n') {
      return corrupt("missing frame terminator");
    }
    auto crc = io::Crc32cFromHex(
        std::string_view(bytes).substr(start, 8));
    if (!crc.ok() || *crc != io::Crc32c(payload)) {
      return corrupt("frame checksum mismatch");
    }
    WalRecord rec;
    if (!ParsePayload(payload, &rec)) return corrupt("bad frame payload");
    records->push_back(std::move(rec));
    off = payload_start + payload_len + 1;
  }
  return Status::OK();
}

std::string RenderCheckpoint(
    uint64_t last_seq, const std::map<std::string, TenantBudget>& tenants) {
  std::string text = kCkptMagic;
  text += "\nversion: 1\nlast_seq: ";
  text += std::to_string(last_seq);
  text += '\n';
  for (const auto& [name, budget] : tenants) {
    text += "tenant: ";
    text += DoubleBitsHex(budget.granted);
    text += ' ';
    text += DoubleBitsHex(budget.spent);
    text += ' ';
    text += name;
    text += '\n';
  }
  text += "ckpt_crc: " + io::Crc32cToHex(io::Crc32c(text)) + "\n";
  return text;
}

Status ParseCheckpoint(const std::string& path, const std::string& text,
                       std::map<std::string, TenantBudget>* tenants,
                       uint64_t* last_seq) {
  auto bad = [&](const std::string& what) {
    return Status::DataLoss("'" + path + "': " + what);
  };
  size_t crc_pos = text.rfind("ckpt_crc: ");
  if (crc_pos == std::string::npos ||
      (crc_pos != 0 && text[crc_pos - 1] != '\n')) {
    return bad("checkpoint missing its ckpt_crc trailer");
  }
  std::string_view trailer = std::string_view(text).substr(crc_pos + 10);
  if (trailer.size() < 9 || trailer[8] != '\n') {
    return bad("malformed ckpt_crc trailer");
  }
  auto want = io::Crc32cFromHex(trailer.substr(0, 8));
  if (!want.ok()) return bad("malformed ckpt_crc trailer");
  if (*want != io::Crc32c(std::string_view(text).substr(0, crc_pos))) {
    return bad("checkpoint checksum mismatch");
  }

  std::string_view body = std::string_view(text).substr(0, crc_pos);
  bool saw_magic = false, saw_version = false, saw_seq = false;
  size_t pos = 0;
  while (pos < body.size()) {
    size_t eol = body.find('\n', pos);
    if (eol == std::string_view::npos) return bad("unterminated line");
    std::string_view line = body.substr(pos, eol - pos);
    pos = eol + 1;
    if (!saw_magic) {
      if (line != kCkptMagic) return bad("missing checkpoint magic");
      saw_magic = true;
    } else if (line.rfind("version: ", 0) == 0) {
      if (line.substr(9) != "1") {
        return bad("unsupported checkpoint version '" +
                   std::string(line.substr(9)) + "'");
      }
      saw_version = true;
    } else if (line.rfind("last_seq: ", 0) == 0) {
      if (!ParseU64(line.substr(10), last_seq)) {
        return bad("bad last_seq line");
      }
      saw_seq = true;
    } else if (line.rfind("tenant: ", 0) == 0) {
      std::string_view rest = line.substr(8);
      if (rest.size() < 16 + 1 + 16 + 1 + 1 || rest[16] != ' ' ||
          rest[33] != ' ') {
        return bad("bad tenant line");
      }
      TenantBudget budget;
      if (!DoubleFromBitsHex(rest.substr(0, 16), &budget.granted) ||
          !DoubleFromBitsHex(rest.substr(17, 16), &budget.spent)) {
        return bad("bad tenant line");
      }
      std::string name(rest.substr(34));
      if (name.empty() || tenants->count(name) != 0) {
        return bad("bad tenant line");
      }
      (*tenants)[name] = budget;
    } else {
      return bad("unrecognized checkpoint line '" + std::string(line) + "'");
    }
  }
  if (!saw_magic || !saw_version || !saw_seq) {
    return bad("incomplete checkpoint header");
  }
  return Status::OK();
}

std::string ErrnoMessage() { return std::strerror(errno); }

}  // namespace

struct BudgetLedger::Rep {
  std::string dir;
  std::string wal_path;
  std::string ckpt_path;
  Options options;

  mutable std::mutex mu;
  std::condition_variable cv;
  std::map<std::string, TenantBudget> tenants;
  /// Sequence the next record will take (records 1..next_seq-1 exist).
  uint64_t next_seq = 1;
  /// Highest sequence known durable on disk.
  uint64_t durable_seq = 0;
  /// Sequence covered by ledger.ckpt (replay skips frames at or below).
  uint64_t ckpt_last_seq = 0;
  /// Frames in the WAL past the checkpoint (drives auto-compaction).
  uint64_t wal_records = 0;
  /// Expected byte length of ledger.wal — cross-checked after every
  /// commit so a silently short append wounds instead of acknowledging.
  uint64_t wal_size = 0;
  /// Exclusive-IO token shared by commits and checkpointing.
  bool commit_in_progress = false;
  bool wounded = false;
  Status wound_status;
  /// Pending frames in sequence order, drained by the commit leader.
  std::vector<std::pair<uint64_t, std::string>> queue;
};

namespace {

Status WoundedError(const BudgetLedger::Rep& r) {
  return Status::FailedPrecondition(
      "ledger '" + r.dir +
      "' needs recovery after a failed commit (reopen it): " +
      r.wound_status.message());
}

/// The leader's IO: append the batch, fsync the barrier, cross-check the
/// on-disk length. Runs without the lock held.
Status AppendBatchToWal(BudgetLedger::Rep& r, std::string batch,
                        uint64_t expected_size) {
  PCLEAN_FAILPOINT("ledger.wal.append", r.wal_path);
  PCLEAN_FAILPOINT_DATA("ledger.wal.short", &batch);
  PCLEAN_RETURN_NOT_OK(io::AppendFile(r.wal_path, batch));
  PCLEAN_FAILPOINT("ledger.wal.fsync", r.wal_path);
  PCLEAN_RETURN_NOT_OK(io::FsyncFile(r.wal_path));
  struct stat sb;
  if (::stat(r.wal_path.c_str(), &sb) != 0) {
    return Status::IOError("cannot stat WAL '" + r.wal_path +
                           "': " + ErrnoMessage());
  }
  if (static_cast<uint64_t>(sb.st_size) != expected_size) {
    return Status::IOError(
        "short append to '" + r.wal_path + "': expected " +
        std::to_string(expected_size) + " bytes, found " +
        std::to_string(sb.st_size));
  }
  return Status::OK();
}

/// Blocks until record `my_seq` is durable. Whichever caller finds no
/// commit in flight leads: it drains the whole queue, appends + fsyncs
/// once, and wakes the rest. A failed commit wounds the ledger for
/// everyone.
Status CommitLocked(BudgetLedger::Rep& r, std::unique_lock<std::mutex>& lk,
                    uint64_t my_seq) {
  for (;;) {
    // The caller's record is already in the pipeline, so a wound here
    // means ITS durability is indeterminate: surface the underlying
    // commit error, not the FailedPrecondition that entry checks use
    // for operations rejected before anything was enqueued.
    if (r.wounded) return r.wound_status;
    if (r.durable_seq >= my_seq) return Status::OK();
    if (r.commit_in_progress || r.queue.empty()) {
      r.cv.wait(lk);
      continue;
    }
    r.commit_in_progress = true;
    const size_t take = r.queue.size();
    std::string batch;
    uint64_t batch_last = 0;
    for (const auto& [seq, frame] : r.queue) {
      batch += frame;
      batch_last = seq;
    }
    r.queue.clear();
    const uint64_t expected_size = r.wal_size + batch.size();
    lk.unlock();
    Status st = AppendBatchToWal(r, std::move(batch), expected_size);
    lk.lock();
    r.commit_in_progress = false;
    if (st.ok()) {
      r.wal_size = expected_size;
      r.wal_records += take;
      if (batch_last > r.durable_seq) r.durable_seq = batch_last;
    } else {
      r.wounded = true;
      r.wound_status = st;
    }
    r.cv.notify_all();
  }
}

/// Checkpoint IO: temp sibling, durable write, atomic rename, directory
/// fsync, then WAL retirement. Runs without the lock held. Any failure
/// leaves the previous checkpoint + WAL pair fully intact.
Status WriteCheckpointFiles(BudgetLedger::Rep& r, const std::string& text) {
  const std::string tmp = r.ckpt_path + ".tmp";
  auto discard_tmp = [&] { std::remove(tmp.c_str()); };
  Status st = failpoint::Hit("ledger.ckpt.write", tmp);
  if (st.ok()) st = io::WriteFileDurable(tmp, text);
  if (!st.ok()) {
    discard_tmp();
    return st;
  }
  st = failpoint::Hit("ledger.ckpt.rename", r.ckpt_path);
  if (st.ok() && std::rename(tmp.c_str(), r.ckpt_path.c_str()) != 0) {
    st = Status::IOError("cannot publish checkpoint '" + r.ckpt_path +
                         "': " + ErrnoMessage());
  }
  if (!st.ok()) {
    discard_tmp();
    return st;
  }
  PCLEAN_RETURN_NOT_OK(io::FsyncDir(r.dir));
  // Retire the compacted frames. A crash between the rename above and
  // this truncate is benign: replay skips frames the checkpoint covers.
  if (::truncate(r.wal_path.c_str(), 0) != 0) {
    if (errno == ENOENT) return Status::OK();
    return Status::IOError("cannot truncate WAL '" + r.wal_path +
                           "': " + ErrnoMessage());
  }
  return io::FsyncFile(r.wal_path);
}

Status CheckpointLocked(BudgetLedger::Rep& r,
                        std::unique_lock<std::mutex>& lk) {
  // Flush pending commits first, so the snapshot covers exactly the
  // durable prefix and nothing tentative.
  for (;;) {
    if (r.wounded) return WoundedError(r);
    if (!r.commit_in_progress && r.queue.empty()) break;
    if (r.commit_in_progress) {
      r.cv.wait(lk);
    } else {
      PCLEAN_RETURN_NOT_OK(CommitLocked(r, lk, r.queue.back().first));
    }
  }
  r.commit_in_progress = true;  // blocks commits while we compact
  const uint64_t snap_seq = r.next_seq - 1;
  std::string text = RenderCheckpoint(snap_seq, r.tenants);
  lk.unlock();
  Status st = WriteCheckpointFiles(r, text);
  lk.lock();
  r.commit_in_progress = false;
  if (st.ok()) {
    r.ckpt_last_seq = snap_seq;
    r.wal_records = 0;
    r.wal_size = 0;
  }
  r.cv.notify_all();
  return st;
}

}  // namespace

BudgetLedger::BudgetLedger(std::unique_ptr<Rep> rep) : rep_(std::move(rep)) {}
BudgetLedger::BudgetLedger(BudgetLedger&&) noexcept = default;
BudgetLedger& BudgetLedger::operator=(BudgetLedger&&) noexcept = default;
BudgetLedger::~BudgetLedger() = default;

Result<BudgetLedger> BudgetLedger::Open(const std::string& dir) {
  return Open(dir, Options());
}

Result<BudgetLedger> BudgetLedger::Open(const std::string& dir,
                                        const Options& options) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create ledger directory '" + dir +
                           "': " + ec.message());
  }
  auto rep = std::make_unique<Rep>();
  rep->dir = dir;
  rep->wal_path = dir + "/" + kWalName;
  rep->ckpt_path = dir + "/" + kCkptName;
  rep->options = options;

  PCLEAN_FAILPOINT("ledger.recover.open", dir);

  auto ckpt = io::ReadFileWithRetry(rep->ckpt_path);
  if (ckpt.ok()) {
    PCLEAN_RETURN_NOT_OK(ParseCheckpoint(rep->ckpt_path, *ckpt,
                                         &rep->tenants,
                                         &rep->ckpt_last_seq));
  } else if (!ckpt.status().IsNotFound()) {
    return ckpt.status();
  }
  rep->next_seq = rep->ckpt_last_seq + 1;

  auto wal = io::ReadFileWithRetry(rep->wal_path);
  if (wal.ok()) {
    std::string bytes = std::move(*wal);
    // The recovery data faults damage the recovered image exactly as a
    // torn or bit-rotted disk would, before any frame is parsed.
    PCLEAN_FAILPOINT_DATA("ledger.recover.torn", &bytes);
    PCLEAN_FAILPOINT_DATA("ledger.recover.bitflip", &bytes);
    std::vector<WalRecord> records;
    size_t valid_prefix = bytes.size();
    PCLEAN_RETURN_NOT_OK(
        ParseWalFrames(rep->wal_path, bytes, &records, &valid_prefix));
    uint64_t prev_seq = 0;
    for (const WalRecord& rec : records) {
      if (rec.seq <= prev_seq) {
        return Status::DataLoss("'" + rep->wal_path +
                                "': non-monotonic record sequence " +
                                std::to_string(rec.seq) + " after " +
                                std::to_string(prev_seq));
      }
      prev_seq = rec.seq;
      if (rec.seq <= rep->ckpt_last_seq) continue;
      TenantBudget& budget = rep->tenants[rec.tenant];
      if (rec.op == Op::kCharge) {
        budget.spent += rec.epsilon;
      } else {
        budget.granted += rec.epsilon;
      }
      ++rep->wal_records;
    }
    if (prev_seq >= rep->next_seq) rep->next_seq = prev_seq + 1;
    // Torn-tail repair happens on disk, not just in memory: truncating
    // back to the last whole frame is what makes a re-crash during
    // recovery converge — the second recovery sees the same prefix.
    struct stat sb;
    if (::stat(rep->wal_path.c_str(), &sb) != 0) {
      return Status::IOError("cannot stat WAL '" + rep->wal_path +
                             "': " + ErrnoMessage());
    }
    if (static_cast<uint64_t>(sb.st_size) != valid_prefix) {
      if (::truncate(rep->wal_path.c_str(),
                     static_cast<off_t>(valid_prefix)) != 0) {
        return Status::IOError("cannot repair torn WAL '" + rep->wal_path +
                               "': " + ErrnoMessage());
      }
      PCLEAN_RETURN_NOT_OK(io::FsyncFile(rep->wal_path));
    }
    rep->wal_size = valid_prefix;
  } else if (!wal.status().IsNotFound()) {
    return wal.status();
  }
  rep->durable_seq = rep->next_seq - 1;
  return BudgetLedger(std::move(rep));
}

namespace {

Status ValidateMutation(const std::string& tenant, double epsilon) {
  if (tenant.empty()) {
    return Status::InvalidArgument("tenant name must be non-empty");
  }
  if (tenant.find('\n') != std::string::npos) {
    return Status::InvalidArgument("tenant name must not contain newlines");
  }
  if (!std::isfinite(epsilon) || epsilon <= 0.0) {
    return Status::InvalidArgument("ε must be finite and positive, got " +
                                   FormatEps(epsilon));
  }
  return Status::OK();
}

}  // namespace

Status BudgetLedger::Grant(const std::string& tenant, double epsilon) {
  PCLEAN_RETURN_NOT_OK(ValidateMutation(tenant, epsilon));
  std::unique_lock<std::mutex> lk(rep_->mu);
  Rep& r = *rep_;
  if (r.wounded) return WoundedError(r);
  const uint64_t seq = r.next_seq++;
  r.tenants[tenant].granted += epsilon;
  r.queue.emplace_back(seq, EncodeFrame(seq, Op::kGrant, epsilon, tenant));
  PCLEAN_RETURN_NOT_OK(CommitLocked(r, lk, seq));
  if (r.options.checkpoint_every > 0 &&
      r.wal_records >= r.options.checkpoint_every) {
    // The record is durable either way; a compaction failure only means
    // the WAL stays longer than we'd like.
    (void)CheckpointLocked(r, lk);
  }
  return Status::OK();
}

Status BudgetLedger::Relax(const std::string& tenant, double epsilon) {
  PCLEAN_RETURN_NOT_OK(ValidateMutation(tenant, epsilon));
  std::unique_lock<std::mutex> lk(rep_->mu);
  Rep& r = *rep_;
  if (r.wounded) return WoundedError(r);
  const uint64_t seq = r.next_seq++;
  r.tenants[tenant].granted += epsilon;
  r.queue.emplace_back(seq, EncodeFrame(seq, Op::kRelax, epsilon, tenant));
  PCLEAN_RETURN_NOT_OK(CommitLocked(r, lk, seq));
  if (r.options.checkpoint_every > 0 &&
      r.wal_records >= r.options.checkpoint_every) {
    (void)CheckpointLocked(r, lk);
  }
  return Status::OK();
}

Status BudgetLedger::Charge(const std::string& tenant, double epsilon) {
  PCLEAN_RETURN_NOT_OK(ValidateMutation(tenant, epsilon));
  std::unique_lock<std::mutex> lk(rep_->mu);
  Rep& r = *rep_;
  if (r.wounded) return WoundedError(r);
  // Check-and-spend is atomic under the lock: the tentative spend below
  // is visible to concurrent charges, so two of them cannot jointly
  // overdraft while the leader is off fsyncing.
  TenantBudget current;  // zero allowance for a tenant never granted
  if (auto it = r.tenants.find(tenant); it != r.tenants.end()) {
    current = it->second;
  }
  if (current.spent + epsilon > current.granted + kBudgetSlack) {
    return Status::ResourceExhausted(
        "tenant '" + tenant + "': charge of ε=" + FormatEps(epsilon) +
        " exceeds remaining budget (granted ε=" +
        FormatEps(current.granted) + ", spent ε=" +
        FormatEps(current.spent) + ", remaining ε=" +
        FormatEps(current.remaining()) + ")");
  }
  const uint64_t seq = r.next_seq++;
  r.tenants[tenant].spent += epsilon;
  r.queue.emplace_back(seq, EncodeFrame(seq, Op::kCharge, epsilon, tenant));
  PCLEAN_RETURN_NOT_OK(CommitLocked(r, lk, seq));
  if (r.options.checkpoint_every > 0 &&
      r.wal_records >= r.options.checkpoint_every) {
    (void)CheckpointLocked(r, lk);
  }
  return Status::OK();
}

Result<TenantBudget> BudgetLedger::Budget(const std::string& tenant) const {
  std::lock_guard<std::mutex> lk(rep_->mu);
  const Rep& r = *rep_;
  if (r.wounded) return WoundedError(r);
  auto it = r.tenants.find(tenant);
  if (it == r.tenants.end()) {
    return Status::NotFound("tenant '" + tenant +
                            "' has no budget in ledger '" + r.dir + "'");
  }
  return it->second;
}

TenantBudget BudgetLedger::BudgetOrZero(const std::string& tenant) const {
  std::lock_guard<std::mutex> lk(rep_->mu);
  auto it = rep_->tenants.find(tenant);
  if (it == rep_->tenants.end()) return TenantBudget{};
  return it->second;
}

Result<std::map<std::string, TenantBudget>> BudgetLedger::Snapshot() const {
  std::lock_guard<std::mutex> lk(rep_->mu);
  const Rep& r = *rep_;
  if (r.wounded) return WoundedError(r);
  return r.tenants;
}

Status BudgetLedger::Checkpoint() {
  std::unique_lock<std::mutex> lk(rep_->mu);
  return CheckpointLocked(*rep_, lk);
}

uint64_t BudgetLedger::last_seq() const {
  std::lock_guard<std::mutex> lk(rep_->mu);
  return rep_->next_seq - 1;
}

uint64_t BudgetLedger::records_since_checkpoint() const {
  std::lock_guard<std::mutex> lk(rep_->mu);
  return rep_->wal_records;
}

bool BudgetLedger::wounded() const {
  std::lock_guard<std::mutex> lk(rep_->mu);
  return rep_->wounded;
}

const std::string& BudgetLedger::dir() const { return rep_->dir; }

}  // namespace privateclean
