#include "core/release.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/failpoint.h"
#include "common/io_util.h"
#include "common/string_util.h"

namespace privateclean {

namespace {

namespace fs = std::filesystem;

// Payloads hold the in-memory bytes of codes and values, which are the
// format's little-endian encoding only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "release payloads are little-endian");

constexpr char kManifestFile[] = "MANIFEST";
/// First line of every MANIFEST; anything else is not a release manifest.
constexpr char kManifestMagic[] = "%PCLEAN-RELEASE";

/// Fault-injection hook that leaves cleanup to the caller (the
/// PCLEAN_FAILPOINT macro returns directly, which would skip rollback).
Status HitSite(const char* site, const std::string& detail) {
#if defined(PCLEAN_FAILPOINTS_ENABLED)
  return failpoint::Hit(site, detail);
#else
  (void)site;
  (void)detail;
  return Status::OK();
#endif
}

std::string ColumnFileName(size_t index) {
  return "column_" + std::to_string(index) + ".bin";
}

std::string DomainFileName(size_t index) {
  return "domain_" + std::to_string(index) + ".bin";
}

/// Bytes per row: string codes take the narrowest width whose range
/// holds every code of an `entries`-entry dictionary; int64 and double
/// values take 8.
size_t RowWidth(ValueType type, size_t entries) {
  if (type != ValueType::kString) return 8;
  return entries <= 0x100 ? 1 : entries <= 0x10000 ? 2 : 4;
}

size_t BitmapBytes(size_t rows) { return (rows + 7) / 8; }

size_t PayloadBytes(size_t rows, size_t width) {
  return BitmapBytes(rows) + rows * width;
}

/// Runs `fn(begin_row, end_row)` over `rows` rows in non-empty shards
/// that start on a bitmap byte, so concurrent shards never share one.
/// The layout depends on `rows` alone.
Status ForEachRowShard(size_t rows, const ExecutionOptions& exec,
                       const std::function<Status(size_t, size_t)>& fn) {
  if (rows == 0) return Status::OK();
  return ParallelFor(BitmapBytes(rows), ShardCountForRows(rows), exec,
                     [&](size_t, size_t begin, size_t end) {
                       return fn(begin * 8, std::min(end * 8, rows));
                     });
}

template <typename Out, typename In>
void EncodeRows(const In* in, const uint8_t* valid, size_t begin, size_t end,
                uint8_t* out) {
  for (size_t r = begin; r < end; ++r) {
    if (!valid[r]) continue;
    const Out v = static_cast<Out>(in[r]);
    std::memcpy(out + r * sizeof(Out), &v, sizeof(Out));
  }
}

/// Appends `column`'s payload: the validity bitmap, then every row's
/// value at `width` bytes, zeros for NULL rows.
Status AppendPayload(const Column& column, size_t width,
                     const ExecutionOptions& exec, std::string* out) {
  const size_t rows = column.size();
  const size_t base = out->size();
  out->resize(base + PayloadBytes(rows, width));
  auto* bitmap = reinterpret_cast<uint8_t*>(out->data() + base);
  uint8_t* values = bitmap + BitmapBytes(rows);
  const uint8_t* valid = column.validity().data();
  return ForEachRowShard(rows, exec, [&](size_t begin, size_t end) {
    for (size_t r = begin; r < end; ++r) {
      bitmap[r / 8] |= static_cast<uint8_t>((valid[r] != 0) << (r % 8));
    }
    const uint32_t* codes = column.codes().data();
    if (column.type() == ValueType::kInt64) {
      EncodeRows<int64_t>(column.ints().data(), valid, begin, end, values);
    } else if (column.type() == ValueType::kDouble) {
      EncodeRows<double>(column.doubles().data(), valid, begin, end, values);
    } else if (width == 1) {
      EncodeRows<uint8_t>(codes, valid, begin, end, values);
    } else if (width == 2) {
      EncodeRows<uint16_t>(codes, valid, begin, end, values);
    } else {
      EncodeRows<uint32_t>(codes, valid, begin, end, values);
    }
    return Status::OK();
  });
}

/// Decodes codes of type `Code`; false when a valid row's code is not
/// below `entries`. NULL rows get kNullCode.
template <typename Code>
bool DecodeCodes(const uint8_t* in, const uint8_t* valid, size_t begin,
                 size_t end, uint32_t entries, uint32_t* codes) {
  bool in_range = true;
  for (size_t r = begin; r < end; ++r) {
    Code code;
    std::memcpy(&code, in + r * sizeof(Code), sizeof(Code));
    codes[r] = valid[r] ? code : kNullCode;
    in_range &= !valid[r] || code < entries;
  }
  return in_range;
}

/// Decodes a payload of `rows` rows at `width` bytes into the empty
/// `column`, whose dictionary already holds every entry a code may name.
Status DecodePayload(std::string_view bytes, size_t rows, size_t width,
                     const std::string& path, const ExecutionOptions& exec,
                     Column* column) {
  if (rows > bytes.size() || bytes.size() != PayloadBytes(rows, width)) {
    return Status::DataLoss("'" + path + "' holds " +
                            std::to_string(bytes.size()) +
                            " bytes, not a validity bitmap and " +
                            std::to_string(rows) + " values of " +
                            std::to_string(width) + " bytes");
  }
  const auto* bitmap = reinterpret_cast<const uint8_t*>(bytes.data());
  const uint8_t* values = bitmap + BitmapBytes(rows);
  const ValueType type = column->type();
  column->mutable_validity()->resize(rows);
  column->mutable_ints()->resize(type == ValueType::kInt64 ? rows : 0);
  column->mutable_doubles()->resize(type == ValueType::kDouble ? rows : 0);
  column->mutable_codes()->resize(type == ValueType::kString ? rows : 0);
  uint8_t* valid = column->mutable_validity()->data();
  uint32_t* codes = column->mutable_codes()->data();
  auto* eight = reinterpret_cast<uint8_t*>(
      type == ValueType::kInt64
          ? static_cast<void*>(column->mutable_ints()->data())
          : static_cast<void*>(column->mutable_doubles()->data()));
  const auto entries = static_cast<uint32_t>(column->dictionary().size());
  PCLEAN_RETURN_NOT_OK(ForEachRowShard(rows, exec, [&](size_t begin,
                                                       size_t end) {
    for (size_t r = begin; r < end; ++r) {
      valid[r] = (bitmap[r / 8] >> (r % 8)) & 1;
    }
    bool in_range = true;
    if (type != ValueType::kString) {
      // int64 and double values copy as bytes; NULL rows get zeros, the
      // placeholder of both.
      std::memcpy(eight + begin * 8, values + begin * 8, (end - begin) * 8);
      for (size_t r = begin; r < end; ++r) {
        if (!valid[r]) std::memset(eight + r * 8, 0, 8);
      }
    } else if (width == 1) {
      in_range = DecodeCodes<uint8_t>(values, valid, begin, end, entries, codes);
    } else if (width == 2) {
      in_range = DecodeCodes<uint16_t>(values, valid, begin, end, entries, codes);
    } else {
      in_range = DecodeCodes<uint32_t>(values, valid, begin, end, entries, codes);
    }
    for (size_t r = begin; r < end && !in_range; ++r) {
      if (valid[r] && codes[r] >= entries) {
        return Status::DataLoss("'" + path + "' row " + std::to_string(r) +
                                " holds code " + std::to_string(codes[r]) +
                                " but the dictionary has " +
                                std::to_string(entries) + " entries");
      }
    }
    return Status::OK();
  }));
  column->RecomputeNullCount();
  return Status::OK();
}

void AppendU32(std::string* out, size_t value) {
  const auto v = static_cast<uint32_t>(value);
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// Appends the dictionary section of a domain file: the entry count,
/// then each entry as its byte length and bytes.
void AppendDictionary(const StringDictionary& dict, std::string* out) {
  AppendU32(out, dict.size());
  for (std::string_view entry : dict.values()) {
    AppendU32(out, entry.size());
    out->append(entry);
  }
}

bool TakeU32(std::string_view* bytes, uint32_t* value) {
  if (bytes->size() < sizeof(*value)) return false;
  std::memcpy(value, bytes->data(), sizeof(*value));
  bytes->remove_prefix(sizeof(*value));
  return true;
}

/// Parses the dictionary section at the front of `*bytes` (the layout
/// AppendDictionary writes) and leaves the rest of the file in `*bytes`.
Status ParseDictionary(std::string_view* bytes, const std::string& path,
                       std::vector<std::string_view>* entries) {
  uint32_t count = 0;
  if (!TakeU32(bytes, &count) || count > bytes->size() / sizeof(count)) {
    return Status::DataLoss("'" + path +
                            "': dictionary entry count overruns the file");
  }
  entries->reserve(count);
  for (uint32_t j = 0; j < count; ++j) {
    uint32_t length = 0;
    if (!TakeU32(bytes, &length) || length > bytes->size()) {
      return Status::DataLoss("'" + path + "': dictionary entry " +
                              std::to_string(j) + " overruns the file");
    }
    entries->push_back(bytes->substr(0, length));
    bytes->remove_prefix(length);
  }
  return Status::OK();
}

/// An empty column of `type` whose dictionary holds `entries[0, count)`
/// in code order; an entry that repeats an earlier one is DataLoss.
Result<Column> ColumnWithDictionary(ValueType type,
                                    const std::vector<std::string_view>& entries,
                                    size_t count, const std::string& path) {
  PCLEAN_ASSIGN_OR_RETURN(Column column, Column::Make(type));
  for (size_t j = 0; j < count; ++j) {
    if (column.InternString(entries[j]) != j) {
      return Status::DataLoss("'" + path + "': dictionary entry " +
                              std::to_string(j) + " repeats an earlier entry");
    }
  }
  return column;
}

/// The domain as a column of its values. A string domain's dictionary
/// starts with `column`'s entries in code order, so equal strings share
/// a code, and appends the domain values the column never interned.
Result<Column> DomainColumn(const Field& field, const Column& column,
                            const Domain& domain) {
  PCLEAN_ASSIGN_OR_RETURN(Column out, Column::Make(field.type));
  for (std::string_view entry : column.dictionary().values()) {
    out.InternString(entry);
  }
  for (const Value& v : domain.values()) {
    Status appended = out.AppendValue(v);
    if (!appended.ok()) {
      return Status::InvalidArgument("domain of '" + field.name +
                                     "': " + appended.message());
    }
  }
  return out;
}

/// Strict parse of all of `text` as an unsigned decimal number.
bool ParseCount(std::string_view text, uint64_t* v) {
  auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), *v);
  return !text.empty() && ec == std::errc() && end == text.data() + text.size();
}

/// (file name, rendered bytes) of the whole release, held in memory so
/// validation failures never touch disk and the MANIFEST checksums
/// exactly what will be written.
using RenderedFiles = std::vector<std::pair<std::string, std::string>>;

/// One `column:` line: the attribute and its mechanism parameters.
struct ManifestColumn {
  Field field;
  double param = 0.0;        ///< p (discrete) or b (numeric)
  double sensitivity = 0.0;  ///< numeric only
  uint64_t domain_size = 0;  ///< discrete only: N
  uint64_t entries = 0;      ///< string only: the column's dictionary size
};

/// Renders every payload file of the release (everything except the
/// MANIFEST itself) and the `column:` lines that describe them. Pure
/// validation + serialization; no I/O.
Status RenderReleaseFiles(const Table& relation,
                          const PrivateRelationMetadata& metadata,
                          const ExecutionOptions& exec, RenderedFiles* files,
                          std::vector<ManifestColumn>* columns) {
  for (size_t i = 0; i < relation.num_columns(); ++i) {
    const Field& field = relation.schema().field(i);
    const Column& column = relation.column(i);
    ManifestColumn line{field};
    const Domain* domain = nullptr;
    if (field.kind == AttributeKind::kNumerical) {
      auto it = metadata.numeric.find(field.name);
      if (it == metadata.numeric.end()) {
        return Status::InvalidArgument(
            "metadata missing numerical attribute '" + field.name + "'");
      }
      line.param = it->second.b;
      line.sensitivity = it->second.sensitivity;
    } else {
      auto it = metadata.discrete.find(field.name);
      if (it == metadata.discrete.end()) {
        return Status::InvalidArgument(
            "metadata missing discrete attribute '" + field.name + "'");
      }
      line.param = it->second.p;
      domain = &it->second.domain;
      line.domain_size = domain->size();
      line.entries = column.dictionary().size();
    }
    files->emplace_back(ColumnFileName(i), std::string());
    PCLEAN_RETURN_NOT_OK(AppendPayload(column,
                                       RowWidth(field.type, line.entries),
                                       exec, &files->back().second));
    columns->push_back(line);
    if (domain == nullptr) continue;
    PCLEAN_ASSIGN_OR_RETURN(Column values,
                            DomainColumn(field, column, *domain));
    std::string bytes;
    if (field.type == ValueType::kString) {
      AppendDictionary(values.dictionary(), &bytes);
    }
    PCLEAN_RETURN_NOT_OK(AppendPayload(
        values, RowWidth(field.type, values.dictionary().size()), {}, &bytes));
    files->emplace_back(DomainFileName(i), std::move(bytes));
  }
  return Status::OK();
}

/// Names in the MANIFEST's relation/column lines are free text in a
/// line-oriented format, so line-breaking bytes are backslash-escaped
/// ("\n", "\r", "\\"); everything else (spaces, commas, quotes) passes
/// through untouched.
std::string EscapeManifestName(std::string_view name) {
  std::string out;
  for (char c : name) {
    if (c == '\n') {
      out += "\\n";
    } else if (c == '\r') {
      out += "\\r";
    } else {
      if (c == '\\') out += '\\';
      out += c;
    }
  }
  return out;
}

/// Inverts EscapeManifestName; false on a dangling or unknown escape.
bool UnescapeManifestName(std::string_view text, std::string* out) {
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\\') {
      *out += text[i];
    } else if (++i < text.size() && (text[i] == 'n' || text[i] == 'r' ||
                                     text[i] == '\\')) {
      *out += text[i] == 'n' ? '\n' : text[i] == 'r' ? '\r' : '\\';
    } else {
      return false;
    }
  }
  return true;
}

/// Renders the MANIFEST: magic, version, relation size, the mechanism
/// the relation was randomized under, the SQL relation name, one
/// `column:` line per attribute in schema order, one `file:` line per
/// payload file ("file: <crc32c> <bytes> <name>"), and a trailing
/// self-checksum over everything above it.
std::string RenderManifest(uint64_t rows, MechanismFamily mechanism,
                           const std::string& relation_name,
                           const std::vector<ManifestColumn>& columns,
                           const RenderedFiles& files) {
  std::string out = kManifestMagic;
  out += "\nversion: " + std::to_string(kReleaseFormatVersion);
  out += "\nrows: " + std::to_string(rows);
  out += "\nmechanism: " + std::string(MechanismName(mechanism));
  out += "\nrelation: " + EscapeManifestName(relation_name) + "\n";
  for (const ManifestColumn& c : columns) {
    // "column: <kind> <type> <param> <sensitivity> <domain> <entries>
    // <name>" — the name last, since it may hold spaces.
    out += "column: ";
    out += c.field.kind == AttributeKind::kDiscrete ? "discrete " : "numeric ";
    out += ValueTypeToString(c.field.type);
    out += ' ' + DoubleBitsHex(c.param) + ' ' + DoubleBitsHex(c.sensitivity);
    out += ' ' + std::to_string(c.domain_size) + ' ' +
           std::to_string(c.entries) + ' ';
    out += EscapeManifestName(c.field.name) + '\n';
  }
  for (const auto& [name, content] : files) {
    out += "file: " + io::Crc32cToHex(io::Crc32c(content)) + ' ' +
           std::to_string(content.size()) + ' ' + name + '\n';
  }
  // Self-checksum covers every byte above the trailer line.
  const uint32_t self_crc = io::Crc32c(out);
  out += "manifest_crc: " + io::Crc32cToHex(self_crc) + '\n';
  return out;
}

struct ManifestEntry {
  std::string name;
  uint64_t bytes = 0;
  uint32_t crc = 0;
};

struct Manifest {
  uint64_t rows = 0;
  MechanismFamily mechanism = MechanismFamily::kGrr;
  /// The SQL name this release answers to in FROM clauses.
  std::string relation_name;
  std::vector<ManifestColumn> columns;
  Schema schema;  ///< the columns' fields, validated
  std::vector<ManifestEntry> files;
};

/// Splits the first `n` space-separated fields off `body` into
/// `fields`; the remainder — which may itself hold spaces — becomes the
/// last element. False when fewer fields exist or the remainder is empty.
bool SplitFields(std::string_view body, size_t n,
                 std::vector<std::string_view>* fields) {
  fields->clear();
  for (size_t i = 0; i < n; ++i) {
    const size_t space = body.find(' ');
    if (space == std::string_view::npos) return false;
    fields->push_back(body.substr(0, space));
    body.remove_prefix(space + 1);
  }
  fields->push_back(body);
  return !body.empty();
}

/// Parses the body of a `column:` line; false on any malformed field.
bool ParseColumnLine(std::string_view body, ManifestColumn* column) {
  std::vector<std::string_view> f;
  if (!SplitFields(body, 6, &f) || (f[0] != "discrete" && f[0] != "numeric")) {
    return false;
  }
  column->field.kind = f[0] == "discrete" ? AttributeKind::kDiscrete
                                          : AttributeKind::kNumerical;
  column->field.type = ValueType::kNull;
  for (ValueType type :
       {ValueType::kInt64, ValueType::kDouble, ValueType::kString}) {
    if (f[1] == ValueTypeToString(type)) column->field.type = type;
  }
  return column->field.type != ValueType::kNull &&
         DoubleFromBitsHex(f[2], &column->param) &&
         DoubleFromBitsHex(f[3], &column->sensitivity) &&
         ParseCount(f[4], &column->domain_size) &&
         ParseCount(f[5], &column->entries) &&
         UnescapeManifestName(f[6], &column->field.name);
}

/// Parses and self-verifies the MANIFEST of the release in `dir`. Any
/// structural damage — including a failed self-checksum, a missing line,
/// or a file list that does not match the schema — is DataLoss naming
/// the file; a version this reader does not know is FailedPrecondition.
Result<Manifest> ParseManifest(const std::string& text, const std::string& dir) {
  const std::string path = dir + "/" + kManifestFile;
  const std::string magic_line = std::string(kManifestMagic) + "\n";
  if (text.compare(0, magic_line.size(), magic_line) != 0) {
    return Status::DataLoss("'" + path +
                            "' is not a release manifest (bad magic)");
  }
  // The self-checksum line must be the LAST line, so nothing after it
  // escapes coverage.
  const std::string trailer_key = "manifest_crc: ";
  size_t trailer = text.rfind("\n" + trailer_key);
  if (trailer == std::string::npos) {
    return Status::DataLoss("'" + path +
                            "': missing manifest_crc trailer line");
  }
  trailer += 1;  // start of the trailer line
  const size_t hex_begin = trailer + trailer_key.size();
  const size_t hex_end = text.find('\n', hex_begin);
  if (hex_end == std::string::npos || hex_end + 1 != text.size()) {
    return Status::DataLoss(
        "'" + path + "': manifest_crc trailer is not the final line");
  }
  auto stored = io::Crc32cFromHex(
      std::string_view(text).substr(hex_begin, hex_end - hex_begin));
  if (!stored.ok()) {
    return Status::DataLoss("'" + path + "': " + stored.status().message());
  }
  const uint32_t computed = io::Crc32c(std::string_view(text).substr(0, trailer));
  if (computed != stored.ValueOrDie()) {
    return Status::DataLoss(
        "'" + path + "': manifest checksum mismatch (stored " +
        io::Crc32cToHex(stored.ValueOrDie()) + ", computed " +
        io::Crc32cToHex(computed) + ") — the manifest itself is corrupt");
  }

  // Body lines between the magic and the trailer.
  Manifest manifest;
  bool saw_version = false, saw_rows = false, saw_mechanism = false,
       saw_relation = false;
  std::vector<std::string_view> fields;
  size_t pos = magic_line.size();
  size_t line_no = 2;  // 1-based; the magic was line 1
  while (pos < trailer) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos || eol > trailer) eol = trailer;
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    auto loc = [&] { return "'" + path + "' line " + std::to_string(line_no); };
    ++line_no;
    if (line.rfind("version: ", 0) == 0) {
      uint64_t v = 0;
      if (!ParseCount(std::string_view(line).substr(9), &v)) {
        return Status::DataLoss(loc() + ": malformed version");
      }
      if (v != kReleaseFormatVersion) {
        return Status::FailedPrecondition(
            "'" + path + "' declares release format version " +
            std::to_string(v) + "; this reader supports version " +
            std::to_string(kReleaseFormatVersion));
      }
      saw_version = true;
    } else if (line.rfind("rows: ", 0) == 0) {
      if (!ParseCount(std::string_view(line).substr(6), &manifest.rows)) {
        return Status::DataLoss(loc() + ": malformed row count");
      }
      saw_rows = true;
    } else if (line.rfind("mechanism: ", 0) == 0) {
      PCLEAN_FAILPOINT("release.mechanism.parse", path);
      // Exactly one token, the family name. An unknown name is a
      // capability gap of this reader (FailedPrecondition, like an
      // unknown format version); text after a known name is damage.
      const std::string body = line.substr(11);
      const std::string name = body.substr(0, body.find(' '));
      if (name.empty()) {
        return Status::DataLoss(loc() + ": malformed mechanism entry");
      }
      PCLEAN_ASSIGN_OR_RETURN(manifest.mechanism, ParseMechanismFamily(name));
      if (name.size() != body.size()) {
        return Status::DataLoss(loc() + ": unexpected text after mechanism '" +
                                name + "'");
      }
      saw_mechanism = true;
    } else if (line.rfind("relation: ", 0) == 0) {
      if (!UnescapeManifestName(std::string_view(line).substr(10),
                                &manifest.relation_name) ||
          manifest.relation_name.empty()) {
        return Status::DataLoss(loc() + ": malformed relation name");
      }
      saw_relation = true;
    } else if (line.rfind("column: ", 0) == 0) {
      ManifestColumn column;
      if (!ParseColumnLine(std::string_view(line).substr(8), &column)) {
        return Status::DataLoss(loc() + ": malformed column entry '" + line +
                                "'");
      }
      manifest.columns.push_back(std::move(column));
    } else if (line.rfind("file: ", 0) == 0) {
      // "file: <crc8hex> <bytes> <name>"
      ManifestEntry entry;
      if (!SplitFields(std::string_view(line).substr(6), 2, &fields) ||
          !ParseCount(fields[1], &entry.bytes)) {
        return Status::DataLoss(loc() + ": malformed file entry '" + line +
                                "'");
      }
      auto crc = io::Crc32cFromHex(fields[0]);
      if (!crc.ok()) {
        return Status::DataLoss(loc() + ": " + crc.status().message());
      }
      entry.crc = crc.ValueOrDie();
      entry.name = std::string(fields[2]);
      manifest.files.push_back(std::move(entry));
    } else {
      return Status::DataLoss(loc() + ": unrecognized manifest line '" + line +
                              "'");
    }
  }
  if (!saw_version || !saw_rows || !saw_mechanism || !saw_relation ||
      manifest.columns.empty()) {
    return Status::DataLoss("'" + path +
                            "': manifest is missing its version, rows, "
                            "mechanism, relation or column lines");
  }
  std::vector<Field> schema_fields;
  for (const ManifestColumn& column : manifest.columns) {
    schema_fields.push_back(column.field);
  }
  auto schema = Schema::Make(std::move(schema_fields));
  if (!schema.ok()) {
    return Status::DataLoss("'" + path + "': " + schema.status().message());
  }
  manifest.schema = std::move(schema).ValueOrDie();
  // The payload files follow from the schema. The MANIFEST must list
  // exactly those, in order, so no payload escapes its checksum.
  std::vector<std::string> expected;
  for (size_t i = 0; i < manifest.columns.size(); ++i) {
    expected.push_back(ColumnFileName(i));
    if (manifest.columns[i].field.kind == AttributeKind::kDiscrete) {
      expected.push_back(DomainFileName(i));
    }
  }
  for (size_t f = 0; f < expected.size(); ++f) {
    if (f >= manifest.files.size() || manifest.files[f].name != expected[f]) {
      return Status::DataLoss("'" + dir + "/" + expected[f] +
                              "' belongs to the release but the MANIFEST "
                              "does not list it in place");
    }
  }
  if (manifest.files.size() > expected.size()) {
    return Status::DataLoss("'" + path + "' lists '" +
                            manifest.files[expected.size()].name +
                            "', which is not part of the release");
  }
  return manifest;
}

/// Reads and parses the MANIFEST of `dir`; a directory without one holds
/// no release.
Result<Manifest> LoadManifest(const std::string& dir) {
  auto text = io::ReadFileWithRetry(dir + "/" + kManifestFile);
  if (!text.ok() && text.status().IsNotFound()) {
    return Status::NotFound("'" + dir + "' contains no release (no MANIFEST)");
  }
  if (!text.ok()) return text.status();
  return ParseManifest(text.ValueOrDie(), dir);
}

/// Reads one MANIFEST-listed file and verifies its length and CRC32C.
/// On success `*content` holds the verified bytes.
Status FetchAndCheck(const std::string& dir, const ManifestEntry& entry,
                     std::string* content) {
  const std::string path = dir + "/" + entry.name;
  auto read = io::ReadFileWithRetry(path);
  if (!read.ok()) {
    if (read.status().IsNotFound()) {
      return Status::DataLoss("'" + path +
                              "' is listed in the MANIFEST but missing");
    }
    return read.status();
  }
  std::string bytes = std::move(read).ValueOrDie();
  if (bytes.size() != entry.bytes) {
    return Status::DataLoss(
        "'" + path + "' is " + std::to_string(bytes.size()) +
        " bytes but the MANIFEST records " + std::to_string(entry.bytes) +
        " (content diverges at byte " +
        std::to_string(std::min<uint64_t>(bytes.size(), entry.bytes)) +
        "; truncated or torn write)");
  }
  const uint32_t crc = io::Crc32c(bytes);
  if (crc != entry.crc) {
    return Status::DataLoss("'" + path + "': checksum mismatch (stored " +
                            io::Crc32cToHex(entry.crc) + ", computed " +
                            io::Crc32cToHex(crc) + ") over " +
                            std::to_string(bytes.size()) +
                            " bytes — file content is corrupt");
  }
  *content = std::move(bytes);
  return Status::OK();
}

/// Binds verified release files (`files[f]` holds the bytes of the
/// MANIFEST's f-th entry) into a fully decoded release, validating every
/// field that came from disk.
Result<LoadedRelease> BindRelease(const Manifest& manifest,
                                  const std::vector<std::string>& files,
                                  const std::string& dir,
                                  const ExecutionOptions& exec) {
  LoadedRelease release;
  PrivateRelationMetadata& metadata = release.metadata;
  std::vector<Column> columns;
  size_t f = 0;
  for (const ManifestColumn& line : manifest.columns) {
    const Field& field = line.field;
    const std::string path = dir + "/" + manifest.files[f].name;
    std::string_view payload = files[f++];
    const bool discrete = field.kind == AttributeKind::kDiscrete;
    const std::string domain_path =
        discrete ? dir + "/" + manifest.files[f].name : path;
    std::string_view domain_file = discrete ? files[f++] : std::string_view();
    std::vector<std::string_view> entries;
    if (field.type == ValueType::kString) {
      PCLEAN_RETURN_NOT_OK(
          ParseDictionary(&domain_file, domain_path, &entries));
    }
    if (line.entries > entries.size()) {
      return Status::DataLoss("'" + domain_path + "' holds " +
                              std::to_string(entries.size()) +
                              " dictionary entries but the MANIFEST gives '" +
                              field.name + "' " + std::to_string(line.entries));
    }
    PCLEAN_ASSIGN_OR_RETURN(
        Column column,
        ColumnWithDictionary(field.type, entries, line.entries, domain_path));
    PCLEAN_RETURN_NOT_OK(DecodePayload(payload, manifest.rows,
                                       RowWidth(field.type, line.entries),
                                       path, exec, &column));
    columns.push_back(std::move(column));
    if (!discrete) {
      metadata.numeric.emplace(
          field.name, NumericAttributeMeta{line.param, line.sensitivity});
      continue;
    }
    // The domain decodes like a column of N rows over the whole
    // dictionary, the column's entries and the domain-only values.
    PCLEAN_ASSIGN_OR_RETURN(
        Column values,
        ColumnWithDictionary(field.type, entries, entries.size(), domain_path));
    PCLEAN_RETURN_NOT_OK(DecodePayload(domain_file, line.domain_size,
                                       RowWidth(field.type, entries.size()),
                                       domain_path, {}, &values));
    std::vector<Value> boxed;
    for (size_t j = 0; j < values.size(); ++j) boxed.push_back(values.ValueAt(j));
    Domain domain = Domain::FromValues(boxed);
    if (domain.size() != line.domain_size) {
      return Status::DataLoss("'" + domain_path + "': the domain of '" +
                              field.name + "' lists a value twice");
    }
    // Whether the param is feasible does not depend on N, and a
    // zero-row release has an empty domain, so check it at N >= 1.
    auto p_eff = ReplacementProbability(manifest.mechanism, line.param,
                                        std::max<size_t>(domain.size(), 1));
    if (!p_eff.ok()) {
      return Status::DataLoss("'" + dir + "/" + kManifestFile +
                              "': attribute '" + field.name + "': " +
                              p_eff.status().message());
    }
    metadata.discrete.emplace(
        field.name, DiscreteAttributeMeta{line.param, std::move(domain)});
  }
  PCLEAN_ASSIGN_OR_RETURN(release.relation,
                          Table::Make(manifest.schema, std::move(columns)));
  metadata.dataset_size = manifest.rows;
  metadata.mechanism = manifest.mechanism;
  metadata.relation_name = manifest.relation_name;
  return release;
}

/// Monotonic suffix so concurrent writers in one process never collide
/// on the same temporary/backup sibling.
std::string UniqueSuffix() {
  static std::atomic<uint64_t> counter{0};
  return std::to_string(static_cast<long>(::getpid())) + "." +
         std::to_string(counter.fetch_add(1));
}

/// Removes a directory tree unless disarmed — every early-error return
/// from the commit sequence cleans up its temporary directory.
struct RemoveOnFailure {
  std::string path;
  bool armed = true;
  ~RemoveOnFailure() {
    if (armed) {
      std::error_code ec;
      fs::remove_all(path, ec);
    }
  }
};

}  // namespace

Status WriteRelease(const Table& private_relation,
                    const PrivateRelationMetadata& metadata,
                    const std::string& dir, const ExecutionOptions& exec) {
  // Render the entire release in memory first: validation failures
  // (missing metadata, bad schema) touch nothing on disk.
  RenderedFiles files;
  std::vector<ManifestColumn> columns;
  PCLEAN_RETURN_NOT_OK(
      RenderReleaseFiles(private_relation, metadata, exec, &files, &columns));
  PCLEAN_FAILPOINT("release.mechanism.render", dir);
  // An unnamed relation publishes under "r", the paper's private view R.
  const std::string relation_name =
      metadata.relation_name.empty() ? "r" : metadata.relation_name;
  files.emplace_back(
      kManifestFile,
      RenderManifest(private_relation.num_rows(), metadata.mechanism,
                     relation_name, columns, files));

  const fs::path target(dir);
  const fs::path parent =
      target.parent_path().empty() ? fs::path(".") : target.parent_path();
  std::error_code ec;
  fs::create_directories(parent, ec);
  if (ec) {
    return Status::IOError("cannot create parent directory for '" + dir +
                           "': " + ec.message());
  }

  // Stage into a temporary sibling (same filesystem, so the commit
  // rename is atomic), then swap it in.
  const std::string suffix = UniqueSuffix();
  const std::string tmp = dir + ".tmp." + suffix;
  RemoveOnFailure tmp_guard{tmp};
  fs::create_directory(tmp, ec);
  if (ec) {
    return Status::IOError("cannot create staging directory '" + tmp +
                           "': " + ec.message());
  }
  for (const auto& [name, content] : files) {
    PCLEAN_RETURN_NOT_OK(io::WriteFileDurable(tmp + "/" + name, content));
  }
  PCLEAN_RETURN_NOT_OK(io::FsyncDir(tmp));

  // Commit. A fresh target is a single rename; an existing one is
  // backed up first so a failed swap restores it.
  const bool exists = fs::exists(target, ec);
  if (exists) {
    if (!fs::is_directory(target, ec)) {
      return Status::AlreadyExists("'" + dir +
                                   "' exists and is not a directory");
    }
    // Only a release (it has a MANIFEST) or an empty directory may be
    // replaced by the swap.
    if (!fs::exists(dir + "/" + kManifestFile, ec) && !fs::is_empty(dir, ec)) {
      return Status::AlreadyExists(
          "'" + dir +
          "' exists and is not a release directory (no MANIFEST); refusing "
          "to replace it");
    }
    const std::string backup = dir + ".old." + suffix;
    PCLEAN_RETURN_NOT_OK(HitSite("release.swap.backup", dir));
    fs::rename(target, backup, ec);
    if (ec) {
      return Status::IOError("cannot move existing release '" + dir +
                             "' aside: " + ec.message());
    }
    // Crash window: the target is momentarily absent. The torn-commit
    // failpoint stops here, exactly as a crash between the two renames
    // would — readers then see a typed NotFound, never a half release.
    Status torn = HitSite("release.commit.torn", dir);
    if (!torn.ok()) {
      tmp_guard.armed = false;
      return torn;
    }
    Status fault = HitSite("release.commit.rename", dir);
    ec.clear();
    if (fault.ok()) fs::rename(tmp, target, ec);
    if (!fault.ok() || ec) {
      // Roll the original release back into place (best effort — if
      // this rename also fails the backup still holds it intact).
      std::error_code rollback;
      fs::rename(backup, target, rollback);
      if (!fault.ok()) return fault;
      return Status::IOError("cannot commit release to '" + dir +
                             "': " + ec.message());
    }
    tmp_guard.armed = false;
    fs::remove_all(backup, ec);  // best effort; the release is committed
  } else {
    PCLEAN_RETURN_NOT_OK(HitSite("release.commit.rename", dir));
    fs::rename(tmp, target, ec);
    if (ec) {
      return Status::IOError("cannot commit release to '" + dir +
                             "': " + ec.message());
    }
    tmp_guard.armed = false;
  }
  // The renames are durable only once the parent directory is synced.
  return io::FsyncDir(parent.string());
}

Status WriteRelease(const GrrOutput& grr, const std::string& dir,
                    const ExecutionOptions& exec) {
  return WriteRelease(grr.table, grr.metadata, dir, exec);
}

Result<LoadedRelease> ReadRelease(const std::string& dir,
                                  const ExecutionOptions& exec) {
  PCLEAN_ASSIGN_OR_RETURN(Manifest manifest, LoadManifest(dir));
  // Read and checksum every listed file up front; decoding only ever
  // sees verified bytes.
  std::vector<std::string> files(manifest.files.size());
  for (size_t f = 0; f < files.size(); ++f) {
    PCLEAN_RETURN_NOT_OK(FetchAndCheck(dir, manifest.files[f], &files[f]));
  }
  return BindRelease(manifest, files, dir, exec);
}

Result<PrivateTable> OpenRelease(const std::string& dir,
                                 const ExecutionOptions& exec) {
  PCLEAN_ASSIGN_OR_RETURN(LoadedRelease release, ReadRelease(dir, exec));
  // Injection point between the verified read and the queryable table:
  // a fault here models the analyst-side open failing after the bytes
  // were already fetched intact.
  PCLEAN_FAILPOINT("release.open.relation", dir);
  return PrivateTable::FromPrivateRelation(std::move(release.relation),
                                           std::move(release.metadata));
}

Result<ReleaseVerification> VerifyRelease(const std::string& dir) {
  PCLEAN_ASSIGN_OR_RETURN(Manifest manifest, LoadManifest(dir));
  ReleaseVerification verification;
  verification.rows = manifest.rows;
  std::vector<std::string> files(manifest.files.size());
  for (size_t f = 0; f < files.size(); ++f) {
    const ManifestEntry& entry = manifest.files[f];
    ReleaseFileCheck check{entry.name, entry.bytes,
                           FetchAndCheck(dir, entry, &files[f])};
    if (verification.status.ok()) verification.status = check.status;
    verification.files.push_back(std::move(check));
  }
  // Checksums passing still leaves semantic damage (a writer bug or a
  // collision); decoding the verified bytes is the final gate.
  if (verification.status.ok()) {
    verification.status = BindRelease(manifest, files, dir, {}).status();
  }
  return verification;
}

}  // namespace privateclean
