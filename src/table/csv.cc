#include "table/csv.h"

#include <algorithm>
#include <cctype>
#include <deque>
#include <functional>
#include <string_view>

#include "common/io_util.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace privateclean {

namespace {

bool NeedsQuoting(std::string_view field, const CsvOptions& options) {
  // Real values that would read back as NULL must be quoted: quoted
  // fields are never NULL (see IsNullCell), which keeps the empty string
  // and a literal null marker distinguishable from actual nulls.
  if (field.empty() || field == options.null_literal) return true;
  // Leading/trailing whitespace must be quoted: the reader trims
  // unquoted fields.
  if (std::isspace(static_cast<unsigned char>(field.front())) ||
      std::isspace(static_cast<unsigned char>(field.back()))) {
    return true;
  }
  for (char c : field) {
    if (c == options.delimiter || c == '"' || c == '\n' || c == '\r') {
      return true;
    }
  }
  return false;
}

/// Appends a non-null field, quoting when necessary.
void AppendField(std::string* out, std::string_view field,
                 const CsvOptions& options) {
  if (!NeedsQuoting(field, options)) {
    out->append(field);
    return;
  }
  out->push_back('"');
  for (char c : field) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

/// Spreadsheet "CSV UTF-8" exports start with a UTF-8 byte-order mark.
/// Both parsers skip one at the very start, so it never becomes part of
/// the first header name; anywhere else it is data. It holds no '\n', so
/// line numbers are unaffected.
constexpr std::string_view kUtf8Bom = "\xEF\xBB\xBF";

size_t BodyStart(const std::string& text) {
  return StartsWith(text, kUtf8Bom) ? kUtf8Bom.size() : 0;
}

/// Source-location prefix for parse errors: "<context>:<line>: ".
std::string Loc(const CsvOptions& options, size_t line) {
  return (options.error_context.empty() ? "<csv>" : options.error_context) +
         ":" + std::to_string(line) + ": ";
}

/// The 1-based input line of the byte at `offset`: one plus every '\n'
/// before it, quoted ones included, so a record reports the line it
/// starts on. Only error paths ask, so the reader counts instead of
/// tracking lines.
size_t LineAt(const std::string& text, size_t offset) {
  return 1 + static_cast<size_t>(
                 std::count(text.begin(), text.begin() + offset, '\n'));
}

constexpr const char* kUnterminatedQuote =
    "unterminated quoted field at end of input (truncated file?)";

// --- Record framing ----------------------------------------------------------
//
// Every '"' byte flips the quote state: outside a quoted field it opens
// one, and inside it either closes the field or pairs with the next '"'
// as an escape (two flips). So a '\n' ends a record exactly when an even
// number of '"' bytes precede it in the body. Each byte chunk is scanned
// once, in parallel, filing its '\n' offsets by the parity of the chunk's
// own '"' count before them. A sequential O(chunks) pass then chains the
// chunks' parities from the body start, which is outside quotes, and each
// chunk contributes the '\n' list that matches its starting parity.
// Chunk boundaries may fall anywhere, inside escape pairs and CRLFs too.

/// Record boundaries of a CSV text. Record r spans [Begin(r), ends[r]):
/// ends[r] is the offset of its terminating '\n', or the text size for a
/// final record that has none.
struct CsvFrame {
  size_t start = 0;  ///< First body byte: 3 after a byte-order mark.
  std::vector<size_t> ends;

  size_t size() const { return ends.size(); }
  size_t Begin(size_t r) const { return r == 0 ? start : ends[r - 1] + 1; }
};

/// One chunk's '\n' offsets, filed by the parity of the chunk's '"'
/// bytes before each, and the parity of all of its '"' bytes.
struct ChunkScan {
  std::vector<size_t> newlines[2];
  size_t quote_parity = 0;
};

ChunkScan ScanChunk(const std::string& text, size_t begin, size_t end) {
  ChunkScan scan;
  size_t parity = 0;
  for (size_t i = begin; i < end; ++i) {
    const char c = text[i];
    if (c == '"') {
      parity ^= 1;
    } else if (c == '\n') {
      scan.newlines[parity].push_back(i);
    }
  }
  scan.quote_parity = parity;
  return scan;
}

/// Frames `text` into records. Fails with InvalidArgument for a delimiter
/// that would frame records itself, and with DataLoss when the input ends
/// inside a quoted field.
Result<CsvFrame> FrameRecords(const std::string& text,
                              const CsvOptions& options) {
  const char delimiter = options.delimiter;
  if (delimiter == '"' || delimiter == '\n' || delimiter == '\r') {
    return Status::InvalidArgument(
        "CSV delimiter cannot be '\"', '\\n' or '\\r'");
  }
  CsvFrame frame;
  frame.start = BodyStart(text);
  const size_t body = text.size() - frame.start;
  const size_t chunks = ChunkCountForBytes(body, options.split_chunk_bytes);
  const size_t chunk_shards = ShardCountForCoarseItems(chunks);
  std::vector<ChunkScan> scans(chunks);
  // Chunk bodies never fail, so neither loop's status is ever an error.
  Status scan_status = ParallelFor(
      chunks, chunk_shards, options.exec,
      [&](size_t, size_t begin, size_t end) -> Status {
        for (size_t c = begin; c < end; ++c) {
          const ShardRange bytes = ShardBounds(body, chunks, c);
          scans[c] = ScanChunk(text, frame.start + bytes.begin,
                               frame.start + bytes.end);
        }
        return Status::OK();
      });
  (void)scan_status;

  std::vector<const std::vector<size_t>*> chosen(chunks);
  std::vector<size_t> first_record(chunks);
  size_t in_quotes = 0;
  size_t records = 0;
  for (size_t c = 0; c < chunks; ++c) {
    chosen[c] = &scans[c].newlines[in_quotes];
    first_record[c] = records;
    records += chosen[c]->size();
    in_quotes ^= scans[c].quote_parity;
  }
  frame.ends.resize(records);
  Status fill_status = ParallelFor(
      chunks, chunk_shards, options.exec,
      [&](size_t, size_t begin, size_t end) -> Status {
        for (size_t c = begin; c < end; ++c) {
          std::copy(chosen[c]->begin(), chosen[c]->end(),
                    frame.ends.begin() + first_record[c]);
        }
        return Status::OK();
      });
  (void)fill_status;

  const size_t tail = frame.ends.empty() ? frame.start : frame.ends.back() + 1;
  if (in_quotes != 0) {
    return Status::DataLoss(Loc(options, LineAt(text, tail)) +
                            kUnterminatedQuote);
  }
  // The bytes after the last terminator form a final record unless they
  // are all '\r': an unquoted '\n' there would be a terminator, and a
  // quoted one needs a '"' before it.
  if (text.find_first_not_of('\r', tail) != std::string::npos) {
    frame.ends.push_back(text.size());
  }
  return frame;
}

// --- Fields ------------------------------------------------------------------

/// One field of a record as the reader sees it: quoted fields unescaped,
/// unquoted ones trimmed. A raw field with no '"' and no '\r' byte (almost
/// every field) is read in place: `text` views the input. Any other field
/// is unescaped into the splitter's buffer, and `text` views that until
/// the next Split.
struct CsvField {
  std::string_view text;
  bool quoted = false;
  bool in_place = true;
};

/// Splits records into fields. Reuses its field vector and unescape
/// buffer across records, so one splitter serves one shard.
class FieldSplitter {
 public:
  FieldSplitter(const std::string& text, char delimiter)
      : text_(text), delimiter_(delimiter) {}

  /// The fields of the record spanning [begin, end).
  const std::vector<CsvField>& Split(size_t begin, size_t end) {
    fields_.clear();
    buffer_.clear();
    // An unescaped field is never longer than its raw bytes, so this one
    // reservation keeps every view into the buffer valid for the record.
    if (buffer_.capacity() < end - begin) buffer_.reserve(end - begin);
    size_t i = begin;
    for (;;) {
      size_t j = i;
      while (j < end && text_[j] != delimiter_ && text_[j] != '"' &&
             text_[j] != '\r') {
        ++j;
      }
      if (j < end && text_[j] != delimiter_) {
        j = Unescape(i, end);
      } else {
        fields_.push_back(CsvField{
            TrimWhitespace(std::string_view(text_).substr(i, j - i))});
      }
      if (j == end) return fields_;
      i = j + 1;
    }
  }

 private:
  /// Reads the field starting at `begin` by the reference parser's rules
  /// into the buffer, and returns the offset of the delimiter that ends
  /// it, or `end`. The record starts and ends outside quotes, so the
  /// escape lookahead never needs a byte past `end`.
  size_t Unescape(size_t begin, size_t end) {
    const size_t from = buffer_.size();
    bool in_quotes = false;
    bool quoted = false;
    size_t i = begin;
    for (; i < end; ++i) {
      const char c = text_[i];
      if (in_quotes) {
        if (c != '"') {
          buffer_.push_back(c);
        } else if (i + 1 < end && text_[i + 1] == '"') {
          buffer_.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else if (c == '"') {
        in_quotes = quoted = true;
      } else if (c == delimiter_) {
        break;
      } else if (c != '\r') {  // Unquoted '\r' is swallowed.
        buffer_.push_back(c);
      }
    }
    const std::string_view text(buffer_.data() + from, buffer_.size() - from);
    fields_.push_back(
        CsvField{quoted ? text : TrimWhitespace(text), quoted, false});
    return i;
  }

  const std::string& text_;
  const char delimiter_;
  std::vector<CsvField> fields_;
  std::string buffer_;
};

/// A blank input line splits into one unquoted empty field: a NULL row
/// for a one-column relation, a line to skip otherwise.
bool IsBlankRecord(const std::vector<CsvField>& fields) {
  return fields.size() == 1 && !fields[0].quoted && fields[0].text.empty();
}

/// Quoted fields are never NULL; an unquoted empty field or the null
/// literal is.
bool IsNullCell(const CsvField& cell, const CsvOptions& options) {
  return !cell.quoted &&
         (cell.text.empty() || cell.text == options.null_literal);
}

// --- Typed column builders ---------------------------------------------------

/// A shard's dictionary for one string column: local codes in
/// first-appearance order. Keys view the input, or an owned copy of an
/// unescaped value (the splitter reuses its buffer). The index is a flat
/// open-addressing table of (hash, code) slots, probed linearly and kept
/// at most half full. A shard holds at most kRowsPerShard keys, so the
/// table stays far below 2^32 slots and the stored 32-bit hash re-places
/// a slot when the table grows.
class LocalDictionary {
 public:
  uint32_t Intern(const CsvField& cell) {
    if (2 * (entries_.size() + 1) > slots_.size()) Grow();
    const auto hash =
        static_cast<uint32_t>(std::hash<std::string_view>{}(cell.text));
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.code == kEmptySlot) {
        slot = Slot{hash, static_cast<uint32_t>(entries_.size())};
        entries_.push_back(cell.in_place ? cell.text
                                         : owned_.emplace_back(cell.text));
        return slot.code;
      }
      if (slot.hash == hash && entries_[slot.code] == cell.text) {
        return slot.code;
      }
    }
  }

  const std::vector<std::string_view>& entries() const { return entries_; }

 private:
  static constexpr uint32_t kEmptySlot = UINT32_MAX;
  struct Slot {
    uint32_t hash = 0;
    uint32_t code = kEmptySlot;
  };

  void Grow() {
    std::vector<Slot> old(std::max<size_t>(16, 2 * slots_.size()));
    old.swap(slots_);
    const size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.code == kEmptySlot) continue;
      size_t i = slot.hash & mask;
      while (slots_[i].code != kEmptySlot) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;  // Size 0 or a power of two.
  std::vector<std::string_view> entries_;
  std::deque<std::string> owned_;  // Elements never move.
};

/// One shard's cells of one column, in row order: validity plus int64
/// values, double values, or local dictionary codes (kNullCode for NULL).
/// NULL rows hold the column's placeholder (0, 0.0 or kNullCode).
struct ColumnBuilder {
  std::vector<uint8_t> valid;
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<uint32_t> codes;
  LocalDictionary dict;
};

/// One shard's kept rows, one builder per schema column.
struct ShardColumns {
  size_t rows = 0;
  std::vector<ColumnBuilder> columns;
};

/// Types one cell into `out`. Numeric parses are strict and fail with
/// InvalidArgument.
Status AppendCell(const CsvField& cell, ValueType type,
                  const CsvOptions& options, ColumnBuilder* out) {
  if (IsNullCell(cell, options)) {
    if (type == ValueType::kInt64) out->ints.push_back(0);
    if (type == ValueType::kDouble) out->doubles.push_back(0.0);
    if (type == ValueType::kString) out->codes.push_back(kNullCode);
    out->valid.push_back(0);
    return Status::OK();
  }
  switch (type) {
    case ValueType::kInt64: {
      PCLEAN_ASSIGN_OR_RETURN(int64_t v, ParseInt64(cell.text));
      out->ints.push_back(v);
      break;
    }
    case ValueType::kDouble: {
      PCLEAN_ASSIGN_OR_RETURN(double v, ParseDouble(cell.text));
      out->doubles.push_back(v);
      break;
    }
    case ValueType::kString:
      out->codes.push_back(out->dict.Intern(cell));
      break;
    case ValueType::kNull:
      return Status::Internal("field with null type");
  }
  out->valid.push_back(1);
  return Status::OK();
}

/// Binds the shards' builders into a table. Each string column interns
/// its shards' local entries in shard order, which reproduces the global
/// first-appearance order; then every shard's rows are written, in
/// parallel, at the shard's row offset (a prefix sum of kept rows).
Result<Table> BindColumns(const Schema& schema,
                          const std::vector<ShardColumns>& shards,
                          const ExecutionOptions& exec) {
  const size_t width = schema.num_fields();
  std::vector<size_t> offset(shards.size() + 1, 0);
  for (size_t s = 0; s < shards.size(); ++s) {
    offset[s + 1] = offset[s] + shards[s].rows;
  }
  const size_t rows = offset.back();
  std::vector<Column> columns;
  columns.reserve(width);
  // remap[c][s][local code] = column c's code for shard s's entry.
  std::vector<std::vector<std::vector<uint32_t>>> remap(width);
  for (size_t c = 0; c < width; ++c) {
    const ValueType type = schema.field(c).type;
    PCLEAN_ASSIGN_OR_RETURN(Column column, Column::Make(type));
    column.mutable_validity()->resize(rows);
    if (type == ValueType::kInt64) column.mutable_ints()->resize(rows);
    if (type == ValueType::kDouble) column.mutable_doubles()->resize(rows);
    if (type == ValueType::kString) {
      column.mutable_codes()->resize(rows);
      remap[c].resize(shards.size());
      for (size_t s = 0; s < shards.size(); ++s) {
        if (shards[s].rows == 0) continue;  // Possibly never ran.
        for (std::string_view entry : shards[s].columns[c].dict.entries()) {
          remap[c][s].push_back(column.InternString(entry));
        }
      }
    }
    columns.push_back(std::move(column));
  }
  // Shard bodies never fail; each writes its own disjoint row range.
  Status st = ParallelFor(
      shards.size(), shards.size(), exec,
      [&](size_t, size_t begin, size_t end) -> Status {
        for (size_t s = begin; s < end; ++s) {
          if (shards[s].rows == 0) continue;
          for (size_t c = 0; c < width; ++c) {
            const ColumnBuilder& in = shards[s].columns[c];
            Column& out = columns[c];
            std::copy(in.valid.begin(), in.valid.end(),
                      out.mutable_validity()->data() + offset[s]);
            switch (out.type()) {
              case ValueType::kInt64:
                std::copy(in.ints.begin(), in.ints.end(),
                          out.mutable_ints()->data() + offset[s]);
                break;
              case ValueType::kDouble:
                std::copy(in.doubles.begin(), in.doubles.end(),
                          out.mutable_doubles()->data() + offset[s]);
                break;
              default: {
                const std::vector<uint32_t>& global = remap[c][s];
                uint32_t* codes = out.mutable_codes()->data() + offset[s];
                for (size_t i = 0; i < in.codes.size(); ++i) {
                  codes[i] = in.codes[i] == kNullCode ? kNullCode
                                                      : global[in.codes[i]];
                }
              }
            }
          }
        }
        return Status::OK();
      });
  (void)st;
  for (Column& column : columns) column.RecomputeNullCount();
  return Table::Make(schema, std::move(columns));
}

/// What one column's cells admit so far, on the int64 ⊂ double ⊂ string
/// lattice. Shards merge by OR (any_value) and AND (all_*).
struct TypeFlags {
  bool any_value = false;
  bool all_int = true;
  bool all_double = true;

  bool IsString() const { return !all_int && !all_double; }
};

}  // namespace

Result<std::vector<CsvRawRecord>> SplitCsvRecordsReference(
    const std::string& text, const CsvOptions& options) {
  std::vector<CsvRawRecord> out;
  CsvRawRecord record;
  std::string field;
  bool in_quotes = false;
  bool field_was_quoted = false;
  bool any_content = false;
  size_t line = 1;

  auto end_field = [&]() {
    record.fields.push_back(CsvRawField{
        field_was_quoted ? field : std::string(TrimWhitespace(field)),
        field_was_quoted});
    field.clear();
    field_was_quoted = false;
  };
  auto end_record = [&]() {
    end_field();
    out.push_back(std::move(record));
    record = CsvRawRecord{};
    any_content = false;
  };

  for (size_t i = BodyStart(text); i < text.size(); ++i) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        if (c == '\n') ++line;
        field.push_back(c);
      }
      continue;
    }
    if (c == '"') {
      in_quotes = true;
      field_was_quoted = true;
      any_content = true;
    } else if (c == options.delimiter) {
      end_field();
      any_content = true;
    } else if (c == '\n') {
      // Every newline terminates a record; blank lines become records
      // with a single unquoted empty field (a NULL row for one-column
      // relations; schema-aware callers skip them otherwise).
      end_record();
      ++line;
      record.line = line;
    } else if (c == '\r') {
      // Swallow; '\n' terminates the record.
    } else {
      field.push_back(c);
      any_content = true;
    }
  }
  if (in_quotes) {
    return Status::DataLoss(Loc(options, record.line) + kUnterminatedQuote);
  }
  if (any_content || !field.empty() || !record.fields.empty()) {
    end_record();
  }
  return out;
}

Result<std::vector<CsvRawRecord>> SplitCsvRecords(const std::string& text,
                                                  const CsvOptions& options) {
  PCLEAN_ASSIGN_OR_RETURN(CsvFrame frame, FrameRecords(text, options));
  std::vector<CsvRawRecord> out(frame.size());
  FieldSplitter splitter(text, options.delimiter);
  size_t line = 1;
  size_t counted = 0;  // '\n' bytes before `counted` are in `line`.
  for (size_t r = 0; r < frame.size(); ++r) {
    const size_t begin = frame.Begin(r);
    line += static_cast<size_t>(
        std::count(text.begin() + counted, text.begin() + begin, '\n'));
    counted = begin;
    out[r].line = line;
    for (const CsvField& field : splitter.Split(begin, frame.ends[r])) {
      out[r].fields.push_back(
          CsvRawField{std::string(field.text), field.quoted});
    }
  }
  return out;
}

std::string TableToCsv(const Table& table, const CsvOptions& options) {
  std::string out;
  if (options.header) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out.push_back(options.delimiter);
      AppendField(&out, table.schema().field(c).name, options);
    }
    out.push_back('\n');
  }
  // Row rendering is sharded; concatenating the per-shard chunks in
  // shard index order yields the exact serial byte stream.
  const size_t rows = table.num_rows();
  const size_t shards = ShardCountForRows(rows);
  std::vector<std::string> chunks(shards);
  // Shard bodies never fail, so the status is always OK.
  Status st = ParallelFor(
      rows, shards, options.exec,
      [&](size_t shard, size_t begin, size_t end) -> Status {
        std::string& chunk = chunks[shard];
        for (size_t r = begin; r < end; ++r) {
          for (size_t c = 0; c < table.num_columns(); ++c) {
            if (c > 0) chunk.push_back(options.delimiter);
            const Column& col = table.column(c);
            if (col.IsNull(r)) {
              // NULL is encoded as the *unquoted* null literal; AppendField
              // would quote it, which marks a real value (quoted fields are
              // never NULL).
              chunk.append(options.null_literal);
            } else if (col.type() == ValueType::kString) {
              // Render straight from the dictionary bytes — no Value
              // boxing, no per-cell string copy.
              AppendField(&chunk, col.StringAt(r), options);
            } else {
              AppendField(&chunk, col.ValueAt(r).ToString(), options);
            }
          }
          chunk.push_back('\n');
        }
        return Status::OK();
      });
  (void)st;
  for (const std::string& chunk : chunks) out.append(chunk);
  return out;
}

Status WriteCsvFile(const Table& table, const std::string& path,
                    const CsvOptions& options) {
  return io::WriteFileDurable(path, TableToCsv(table, options));
}

Result<Table> CsvToTable(const std::string& text, const Schema& schema,
                         const CsvOptions& options) {
  PCLEAN_ASSIGN_OR_RETURN(CsvFrame frame, FrameRecords(text, options));
  const size_t width = schema.num_fields();
  size_t first_data = 0;
  if (options.header) {
    if (frame.size() == 0) {
      return Status::IOError(Loc(options, 1) + "CSV input missing header row");
    }
    FieldSplitter splitter(text, options.delimiter);
    const std::vector<CsvField>& header =
        splitter.Split(frame.Begin(0), frame.ends[0]);
    if (header.size() != width) {
      return Status::IOError(Loc(options, 1) + "CSV header has " +
                             std::to_string(header.size()) +
                             " fields, schema expects " +
                             std::to_string(width));
    }
    for (size_t c = 0; c < width; ++c) {
      if (header[c].text != schema.field(c).name) {
        return Status::IOError(Loc(options, 1) + "CSV header field '" +
                               std::string(header[c].text) +
                               "' does not match schema field '" +
                               schema.field(c).name + "'");
      }
    }
    first_data = 1;
  }
  // Each shard of records types its cells into a ShardColumns of its own
  // and moves it into its slot when it ends: every record updates the row
  // count and the builders, and adjacent slots share cache lines. Shards
  // are claimed in increasing index order and each stops at its first
  // bad record, so on malformed input the error reported is that of the
  // first bad record in input order.
  const size_t num_data = frame.size() - first_data;
  std::vector<ShardColumns> shards(ShardCountForRows(num_data));
  PCLEAN_RETURN_NOT_OK(ParallelFor(
      num_data, shards.size(), options.exec,
      [&](size_t shard, size_t begin, size_t end) -> Status {
        ShardColumns out;
        out.columns.resize(width);
        FieldSplitter splitter(text, options.delimiter);
        for (size_t r = first_data + begin; r < first_data + end; ++r) {
          const size_t record_begin = frame.Begin(r);
          const std::vector<CsvField>& fields =
              splitter.Split(record_begin, frame.ends[r]);
          if (width != 1 && IsBlankRecord(fields)) continue;
          if (fields.size() != width) {
            return Status::IOError(
                Loc(options, LineAt(text, record_begin)) + "CSV record has " +
                std::to_string(fields.size()) + " fields, expected " +
                std::to_string(width));
          }
          for (size_t c = 0; c < width; ++c) {
            const Field& field = schema.field(c);
            Status cell =
                AppendCell(fields[c], field.type, options, &out.columns[c]);
            if (!cell.ok()) {
              // Keep the underlying code (strict numeric parses are
              // InvalidArgument) but pin the failure to file and line.
              return Status::WithCode(
                  cell.code(), Loc(options, LineAt(text, record_begin)) +
                                   "column '" + field.name +
                                   "': " + cell.message());
            }
          }
          ++out.rows;
        }
        shards[shard] = std::move(out);
        return Status::OK();
      }));
  return BindColumns(schema, shards, options.exec);
}

Result<Table> ReadCsvFile(const std::string& path, const Schema& schema,
                          const CsvOptions& options) {
  // Transient read errors are retried with bounded backoff; a missing
  // file is NotFound immediately.
  PCLEAN_ASSIGN_OR_RETURN(std::string text, io::ReadFileWithRetry(path));
  if (options.error_context.empty()) {
    CsvOptions located = options;
    located.error_context = path;
    return CsvToTable(text, schema, located);
  }
  return CsvToTable(text, schema, options);
}

Result<Schema> InferCsvSchema(const std::string& text,
                              const CsvOptions& options) {
  if (!options.header) {
    return Status::InvalidArgument(
        "schema inference requires a header row for field names");
  }
  PCLEAN_ASSIGN_OR_RETURN(CsvFrame frame, FrameRecords(text, options));
  if (frame.size() == 0) return Status::IOError("empty CSV input");
  std::vector<std::string> names;
  {
    FieldSplitter splitter(text, options.delimiter);
    for (const CsvField& field : splitter.Split(frame.Begin(0), frame.ends[0])) {
      names.emplace_back(field.text);
    }
  }
  const size_t width = names.size();
  const size_t num_data = frame.size() - 1;
  const size_t shards = ShardCountForRows(num_data);
  std::vector<std::vector<TypeFlags>> shard_flags(shards);
  // Shard bodies never fail. A shard stops early once every column it
  // has seen is a string: no later cell can change its contribution.
  // Flags are written on every cell, so a shard keeps them in a vector it
  // allocates and moves it into its slot when it ends.
  Status st = ParallelFor(
      num_data, shards, options.exec,
      [&](size_t shard, size_t begin, size_t end) -> Status {
        std::vector<TypeFlags> flags(width);
        size_t open = width;  // Columns that may still be numeric.
        FieldSplitter splitter(text, options.delimiter);
        for (size_t r = 1 + begin; r < 1 + end && open > 0; ++r) {
          const std::vector<CsvField>& fields =
              splitter.Split(frame.Begin(r), frame.ends[r]);
          if (width != 1 && IsBlankRecord(fields)) continue;
          for (size_t c = 0; c < std::min(width, fields.size()); ++c) {
            TypeFlags& f = flags[c];
            if (f.IsString() || IsNullCell(fields[c], options)) continue;
            f.any_value = true;
            if (f.all_int && !ParseInt64(fields[c].text).ok()) {
              f.all_int = false;
            }
            if (f.all_double && !ParseDouble(fields[c].text).ok()) {
              f.all_double = false;
            }
            if (f.IsString()) --open;
          }
        }
        shard_flags[shard] = std::move(flags);
        return Status::OK();
      });
  (void)st;
  std::vector<Field> fields;
  for (size_t c = 0; c < width; ++c) {
    TypeFlags merged;
    for (const std::vector<TypeFlags>& flags : shard_flags) {
      if (flags.empty()) continue;  // No data records: the shard never ran.
      merged.any_value |= flags[c].any_value;
      merged.all_int &= flags[c].all_int;
      merged.all_double &= flags[c].all_double;
    }
    if (merged.any_value && merged.all_int) {
      fields.push_back(Field::Numerical(names[c], ValueType::kInt64));
    } else if (merged.any_value && merged.all_double) {
      fields.push_back(Field::Numerical(names[c], ValueType::kDouble));
    } else {
      fields.push_back(Field::Discrete(names[c], ValueType::kString));
    }
  }
  return Schema::Make(std::move(fields));
}

}  // namespace privateclean
