#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "parallel_harness.h"
#include "table/csv.h"

// Differential fuzzing of the CSV reader against the single-pass serial
// reference parser (SplitCsvRecordsReference). The reader frames records
// in byte chunks by quote parity, splits fields in place (unescaping only
// fields with a '"' or '\r'), and types cells into per-shard column
// builders whose dictionaries merge in shard order. Each of those steps
// has a subtle correctness argument, so the proof here is brute force, at
// three levels:
//  * records: on thousands of randomized inputs — quoted fields,
//    multiline quoted fields, escaped quotes, CRLF, \N nulls, blank
//    lines, byte-order marks, and torn (truncated-anywhere) variants —
//    SplitCsvRecords must agree with the reference on every record, every
//    field's quoted flag and every record's line number, and on malformed
//    input on the status code and the file:line-prefixed message;
//  * tables: CsvToTable must reproduce a table built from the reference
//    parser's records, the cell rules and Table::AppendRow — column
//    storage compared bit for bit, dictionary order and codes included —
//    also on inputs spanning several 16384-record shards, and must report
//    the reference's error on malformed ones;
//  * schemas: InferCsvSchema must equal the serial reference fold.
// Every comparison runs the reader at 1, 2, and 8 threads; short inputs
// use adversarially tiny chunk sizes so chunk boundaries land inside
// quoted fields, escaped-quote pairs, and CRLF sequences.

namespace privateclean {
namespace {

const std::string kBom = "\xEF\xBB\xBF";

/// Serializes a split result — success or error — into comparable bytes.
/// Tag-prefixed so an error can never collide with a record list.
std::string SplitImage(const Result<std::vector<CsvRawRecord>>& result) {
  ByteSink sink;
  if (!result.ok()) {
    sink.AppendU64(0xE0E0E0E0);
    sink.AppendU64(static_cast<uint64_t>(result.status().code()));
    sink.AppendString(result.status().message());
    return std::move(sink).Finish();
  }
  const std::vector<CsvRawRecord>& records = result.ValueOrDie();
  sink.AppendU64(records.size());
  for (const CsvRawRecord& record : records) {
    sink.AppendU64(record.line);
    sink.AppendU64(record.fields.size());
    for (const CsvRawField& field : record.fields) {
      sink.AppendString(field.text);
      sink.AppendU64(field.quoted ? 1 : 0);
    }
  }
  return std::move(sink).Finish();
}

/// Asserts reference == reader on `text` for every thread count and a
/// few chunk sizes.
void ExpectParsersAgree(const std::string& text, Rng& rng) {
  CsvOptions options;
  options.error_context = "fuzz.csv";
  const std::string want =
      SplitImage(SplitCsvRecordsReference(text, options));

  // Tiny chunks force record and quote state across chunk boundaries;
  // chunk size 1 makes *every* byte a boundary.
  const size_t chunk_sizes[] = {1, 1 + rng.UniformInt(7),
                                8 + rng.UniformInt(24), 0};
  for (size_t chunk_bytes : chunk_sizes) {
    options.split_chunk_bytes = chunk_bytes;
    for (size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE("chunk_bytes=" + std::to_string(chunk_bytes) +
                   " threads=" + std::to_string(threads) + " text=[" + text +
                   "]");
      options.exec.num_threads = threads;
      EXPECT_EQ(SplitImage(SplitCsvRecords(text, options)), want);
    }
  }
}

/// One random CSV-ish fragment drawn from generators that cover the
/// grammar's hard corners. Deliberately includes malformed shapes
/// (unterminated quotes, bare quotes mid-field) — the parsers must agree
/// on errors too.
std::string RandomFragment(Rng& rng) {
  switch (rng.UniformInt(12)) {
    case 0:
      return "plain" + std::to_string(rng.UniformInt(1000));
    case 1:
      return "\"quoted,with delimiter\"";
    case 2:
      return "\"multi\nline\nfield\"";
    case 3:
      return "\"escaped \"\" quote\"";
    case 4: {
      // A run of quotes of random length — the adversarial case for
      // chunk boundaries inside escape pairs.
      std::string quotes(1 + rng.UniformInt(6), '"');
      return quotes;
    }
    case 5:
      return "\\N";
    case 6:
      return "";  // Empty field.
    case 7:
      return "  padded  ";
    case 8:
      return "\"\"";  // Quoted empty string (non-NULL).
    case 9:
      return "\"crlf\r\ninside\"";
    case 10:
      return std::to_string(rng.UniformReal());
    case 11:
      return "tail\rcarriage";
  }
  return "";
}

/// A random record: fragments joined by delimiters, randomly terminated
/// by '\n', "\r\n", or nothing (torn tail).
std::string RandomRecord(Rng& rng) {
  std::string record;
  const size_t fields = 1 + rng.UniformInt(4);
  for (size_t f = 0; f < fields; ++f) {
    if (f > 0) record.push_back(',');
    record += RandomFragment(rng);
  }
  switch (rng.UniformInt(8)) {
    case 0:
      record += "\r\n";
      break;
    case 1:
      break;  // Torn: no terminator.
    default:
      record.push_back('\n');
      break;
  }
  return record;
}

TEST(CsvSplitFuzzTest, RandomizedInputsAgreeByteForByte) {
  Rng rng(0xC5F5F17ULL);
  for (int trial = 0; trial < 400; ++trial) {
    // A quarter of the inputs start with a byte-order mark, which both
    // parsers skip.
    std::string text = rng.Bernoulli(0.25) ? kBom : "";
    const size_t records = rng.UniformInt(8);
    for (size_t r = 0; r < records; ++r) text += RandomRecord(rng);
    ExpectParsersAgree(text, rng);
  }
}

TEST(CsvSplitFuzzTest, TornInputsAgreeIncludingErrors) {
  Rng rng(0xDEADBEEFCAFEULL);
  for (int trial = 0; trial < 200; ++trial) {
    std::string text;
    for (size_t r = 0; r < 4; ++r) text += RandomRecord(rng);
    // Tear the input at a random byte: quoted fields become unterminated
    // and final records lose their newline.
    if (!text.empty()) text.resize(rng.UniformInt(text.size() + 1));
    ExpectParsersAgree(text, rng);
  }
}

// --- Reference table and schema ----------------------------------------------

std::string Loc(const CsvOptions& options, size_t line) {
  return (options.error_context.empty() ? "<csv>" : options.error_context) +
         ":" + std::to_string(line) + ": ";
}

bool IsBlank(const CsvRawRecord& record) {
  return record.fields.size() == 1 && !record.fields[0].quoted &&
         record.fields[0].text.empty();
}

bool IsNull(const CsvRawField& cell, const CsvOptions& options) {
  return !cell.quoted &&
         (cell.text.empty() || cell.text == options.null_literal);
}

Result<Value> ReferenceCell(const CsvRawField& cell, ValueType type,
                            const CsvOptions& options) {
  if (IsNull(cell, options)) return Value::Null();
  switch (type) {
    case ValueType::kInt64: {
      PCLEAN_ASSIGN_OR_RETURN(int64_t v, ParseInt64(cell.text));
      return Value(v);
    }
    case ValueType::kDouble: {
      PCLEAN_ASSIGN_OR_RETURN(double v, ParseDouble(cell.text));
      return Value(v);
    }
    default:
      return Value(cell.text);
  }
}

/// CsvToTable's contract restated serially: the reference parser's
/// records, the header check, then per record the blank-record skip, the
/// field count, and each cell left to right, appended through
/// Table::AppendRow. Errors carry the reader's exact message bytes.
Result<Table> ReferenceTable(const std::string& text, const Schema& schema,
                             const CsvOptions& options) {
  PCLEAN_ASSIGN_OR_RETURN(std::vector<CsvRawRecord> records,
                          SplitCsvRecordsReference(text, options));
  const size_t width = schema.num_fields();
  size_t first = 0;
  if (options.header) {
    if (records.empty()) {
      return Status::IOError(Loc(options, 1) + "CSV input missing header row");
    }
    const std::vector<CsvRawField>& header = records[0].fields;
    if (header.size() != width) {
      return Status::IOError(Loc(options, records[0].line) + "CSV header has " +
                             std::to_string(header.size()) +
                             " fields, schema expects " +
                             std::to_string(width));
    }
    for (size_t c = 0; c < width; ++c) {
      if (header[c].text != schema.field(c).name) {
        return Status::IOError(Loc(options, records[0].line) +
                               "CSV header field '" + header[c].text +
                               "' does not match schema field '" +
                               schema.field(c).name + "'");
      }
    }
    first = 1;
  }
  PCLEAN_ASSIGN_OR_RETURN(Table table, Table::MakeEmpty(schema));
  for (size_t r = first; r < records.size(); ++r) {
    const CsvRawRecord& record = records[r];
    if (width != 1 && IsBlank(record)) continue;
    if (record.fields.size() != width) {
      return Status::IOError(Loc(options, record.line) + "CSV record has " +
                             std::to_string(record.fields.size()) +
                             " fields, expected " + std::to_string(width));
    }
    std::vector<Value> row;
    for (size_t c = 0; c < width; ++c) {
      Result<Value> cell =
          ReferenceCell(record.fields[c], schema.field(c).type, options);
      if (!cell.ok()) {
        return Status::WithCode(cell.status().code(),
                                Loc(options, record.line) + "column '" +
                                    schema.field(c).name +
                                    "': " + cell.status().message());
      }
      row.push_back(cell.ValueOrDie());
    }
    PCLEAN_RETURN_NOT_OK(table.AppendRow(row));
  }
  return table;
}

/// InferCsvSchema's contract restated as the serial fold it replaced: per
/// header column, skip blank records (unless the header has one column),
/// records too short for the column, and NULL cells; int64 if every
/// other cell parses as one, else double if every one does, else string.
Result<Schema> ReferenceSchema(const std::string& text,
                               const CsvOptions& options) {
  PCLEAN_ASSIGN_OR_RETURN(std::vector<CsvRawRecord> records,
                          SplitCsvRecordsReference(text, options));
  if (records.empty()) return Status::IOError("empty CSV input");
  const std::vector<CsvRawField>& header = records[0].fields;
  std::vector<Field> fields;
  for (size_t c = 0; c < header.size(); ++c) {
    bool all_int = true;
    bool all_double = true;
    bool any_value = false;
    for (size_t r = 1; r < records.size(); ++r) {
      if (header.size() != 1 && IsBlank(records[r])) continue;
      if (c >= records[r].fields.size()) continue;
      const CsvRawField& cell = records[r].fields[c];
      if (IsNull(cell, options)) continue;
      any_value = true;
      if (all_int && !ParseInt64(cell.text).ok()) all_int = false;
      if (all_double && !ParseDouble(cell.text).ok()) all_double = false;
    }
    if (any_value && all_int) {
      fields.push_back(Field::Numerical(header[c].text, ValueType::kInt64));
    } else if (any_value && all_double) {
      fields.push_back(Field::Numerical(header[c].text, ValueType::kDouble));
    } else {
      fields.push_back(Field::Discrete(header[c].text, ValueType::kString));
    }
  }
  return Schema::Make(std::move(fields));
}

/// Asserts CsvToTable at 1, 2 and 8 threads reproduces the reference
/// table's column storage bit for bit, or its status code and message.
void ExpectTablesAgree(const std::string& text, const Schema& schema,
                       CsvOptions options) {
  const Result<Table> want = ReferenceTable(text, schema, options);
  for (size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads) + " chunk_bytes=" +
                 std::to_string(options.split_chunk_bytes));
    options.exec.num_threads = threads;
    const Result<Table> got = CsvToTable(text, schema, options);
    ASSERT_EQ(got.ok(), want.ok())
        << (got.ok() ? want.status() : got.status()).ToString();
    if (!want.ok()) {
      EXPECT_EQ(got.status().code(), want.status().code());
      EXPECT_EQ(got.status().message(), want.status().message());
      continue;
    }
    const Table& g = got.ValueOrDie();
    const Table& w = want.ValueOrDie();
    ASSERT_TRUE(g.schema() == w.schema());
    ASSERT_EQ(g.num_rows(), w.num_rows());
    for (size_t c = 0; c < w.num_columns(); ++c) {
      ExpectColumnsBitIdentical(g.column(c), w.column(c),
                                "column " + w.schema().field(c).name);
    }
  }
}

/// Asserts InferCsvSchema at 1, 2 and 8 threads equals the reference
/// fold, or fails the same way.
void ExpectSchemasAgree(const std::string& text, CsvOptions options) {
  const Result<Schema> want = ReferenceSchema(text, options);
  for (size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads) + " chunk_bytes=" +
                 std::to_string(options.split_chunk_bytes));
    options.exec.num_threads = threads;
    const Result<Schema> got = InferCsvSchema(text, options);
    ASSERT_EQ(got.ok(), want.ok())
        << (got.ok() ? want.status() : got.status()).ToString();
    if (!want.ok()) {
      EXPECT_EQ(got.status().code(), want.status().code());
      EXPECT_EQ(got.status().message(), want.status().message());
      continue;
    }
    EXPECT_TRUE(got.ValueOrDie() == want.ValueOrDie());
  }
}

Schema PipelineSchema() {
  return *Schema::Make({Field::Discrete("name", ValueType::kString),
                        Field::Numerical("score", ValueType::kDouble),
                        Field::Numerical("count", ValueType::kInt64)});
}

TEST(CsvSplitFuzzTest, CellTypingPipelineAgreesOnTables) {
  // End-to-end CsvToTable on short random texts (malformed ones
  // included) with tiny chunks, against the reference table.
  Rng rng(0x5EED5EED5EEDULL);
  const Schema schema = PipelineSchema();
  for (int trial = 0; trial < 40; ++trial) {
    std::string text = "name,score,count\n";
    const size_t rows = rng.UniformInt(60);
    for (size_t r = 0; r < rows; ++r) {
      text += RandomFragment(rng) + "," +
              std::to_string(rng.UniformRealRange(-10, 10)) + "," +
              std::to_string(rng.UniformIntRange(-5, 5)) + "\n";
    }
    CsvOptions options;
    options.null_literal = "\\N";
    options.error_context = "pipeline.csv";
    options.split_chunk_bytes = 1 + rng.UniformInt(32);
    ExpectTablesAgree(text, schema, options);
  }
}

// --- Inputs that span several shards -----------------------------------------

/// The data records of a multi-shard input for PipelineSchema plus a
/// second string column: one string per record, terminator included.
/// Built to stress the shard merge:
///  * `name` is unique per record unless `distinct_names` is false, so
///    every shard interns strings first seen there (and a long input
///    exceeds 65536 distinct strings in one column);
///  * `city` mixes a pool every shard shares with values first seen in
///    later blocks of records;
///  * the records around every shard edge are blank lines or NULL-heavy
///    (empty, `\N`, quoted `"\N"` and `""`);
///  * a sprinkle of quoted fields holding `""`, the delimiter, '\n' and
///    CRLF, padded fields, quoted numbers, and CRLF terminators.
std::vector<std::string> ShardedRecords(size_t n, bool distinct_names,
                                        Rng& rng) {
  const char* pool[] = {"alpha", "beta", "gamma", "delta", "eps"};
  const char* hostile[] = {"\"a\"\"b\"",     "\"x,y\"",      "\"multi\nline\"",
                           "\"cr\r\nlf\"", "  padded  ",   "\"\"",
                           "\"\\N\"",       "\"  keep  \""};
  const char* edge[] = {"\n", "\\N,,\\N,\n", "\"\\N\",\"\",,\\N\n",
                        "\"\",\\N,\"1.5\",\" 7\"\n"};
  std::vector<bool> near_edge(n, false);
  const size_t shards = ShardCountForRows(n);
  for (size_t s = 1; s < shards; ++s) {
    const size_t at = ShardBounds(n, shards, s).begin;
    for (size_t r = at - 1; r <= at + 1 && r < n; ++r) near_edge[r] = true;
  }
  std::vector<std::string> records;
  records.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (near_edge[i]) {
      records.push_back(edge[rng.UniformInt(4)]);
      continue;
    }
    std::string name = distinct_names ? "n" + std::to_string(i)
                                      : "n" + std::to_string(i % 97);
    if (rng.Bernoulli(0.02)) name = hostile[rng.UniformInt(8)];
    std::string city;
    switch (rng.UniformInt(6)) {
      case 0:
        city = "late" + std::to_string(i / 5000);
        break;
      case 1:
        city = rng.Bernoulli(0.5) ? "\\N" : "";
        break;
      default:
        city = pool[rng.UniformInt(5)];
    }
    std::string score = FormatDouble(rng.UniformRealRange(-1e3, 1e3));
    if (rng.Bernoulli(0.05)) score = rng.Bernoulli(0.5) ? "" : " 2.5 ";
    std::string count = std::to_string(rng.UniformIntRange(-50, 50));
    if (rng.Bernoulli(0.05)) count = rng.Bernoulli(0.5) ? "\\N" : "\"12\"";
    records.push_back(name + "," + city + "," + score + "," + count +
                      (rng.Bernoulli(0.1) ? "\r\n" : "\n"));
  }
  return records;
}

Schema ShardedSchema() {
  return *Schema::Make({Field::Discrete("name", ValueType::kString),
                        Field::Discrete("city", ValueType::kString),
                        Field::Numerical("score", ValueType::kDouble),
                        Field::Numerical("count", ValueType::kInt64)});
}

std::string ShardedText(const std::vector<std::string>& records) {
  std::string text = "name,city,score,count\n";
  for (const std::string& record : records) text += record;
  return text;
}

CsvOptions ShardedOptions(Rng& rng) {
  CsvOptions options;
  options.null_literal = "\\N";
  options.error_context = "sharded.csv";
  options.split_chunk_bytes = 100 + rng.UniformInt(900);
  return options;
}

TEST(CsvSplitFuzzTest, ShardedIngestMatchesReferenceStorage) {
  // Exactly one shard, one full shard, one over, a few shards, and more
  // than 65536 distinct strings in one column: storage must match the
  // reference bit for bit, dictionary order and codes included.
  Rng rng(0x5A4D);
  const Schema schema = ShardedSchema();
  for (size_t n : {size_t{16383}, size_t{16384}, size_t{16385},
                   size_t{40000}, size_t{70000}}) {
    SCOPED_TRACE("records=" + std::to_string(n));
    const std::string text =
        ShardedText(ShardedRecords(n, /*distinct_names=*/n != 40000, rng));
    const CsvOptions options = ShardedOptions(rng);
    ExpectTablesAgree(text, schema, options);
    if (n == 70000) {
      // The distinct-string case really crosses the 16-bit code range.
      const Table table = *CsvToTable(text, schema, options);
      EXPECT_GT(table.column(0).dictionary().size(), 65536u);
    }
  }
}

TEST(CsvSplitFuzzTest, ShardedIngestReportsTheFirstBadRecord) {
  // Errors in several shards: the first bad record in input order wins,
  // with the reference's status code and message bytes, whichever shard
  // a thread happens to reach first.
  Rng rng(0xBAD5);
  const Schema schema = ShardedSchema();
  const size_t n = 40000;
  const std::vector<std::string> clean = ShardedRecords(n, true, rng);
  const size_t shards = ShardCountForRows(n);
  ASSERT_GE(shards, 3u);
  const size_t shard0_last = ShardBounds(n, shards, 0).end - 1;
  const size_t shard2_first = ShardBounds(n, shards, 2).begin;
  struct Fault {
    size_t record;
    const char* text;
  };
  const std::vector<std::vector<Fault>> cases = {
      // A bad number in shard 0 and another in a later shard.
      {{100, "x,y,oops,1\n"}, {30000, "x,y,1.5,1.5\n"}},
      // A bad number in a later shard only (line numbers past quoted
      // newlines).
      {{30000, "x,y,1.5,1.5\n"}},
      // A wrong field count in shard 0 and another in a later shard.
      {{200, "x,y,1.5\n"}, {25000, "x,y,1.5,1,extra\n"}},
      // The later shard's error sits at its first record, shard 0's at
      // its last, so with threads the later one is usually hit first.
      {{shard0_last, "x,y,1.5,nope\n"}, {shard2_first, "short\n"}},
      // Within one record: the field count beats a bad cell, and the
      // leftmost bad cell beats later ones.
      {{300, "x,y,bad\n"}},
      {{300, "x,y,bad,worse\n"}},
  };
  for (const std::vector<Fault>& faults : cases) {
    std::vector<std::string> records = clean;
    for (const Fault& fault : faults) records[fault.record] = fault.text;
    SCOPED_TRACE("first fault at record " + std::to_string(faults[0].record));
    const std::string text = ShardedText(records);
    ASSERT_FALSE(ReferenceTable(text, schema, ShardedOptions(rng)).ok());
    ExpectTablesAgree(text, schema, ShardedOptions(rng));
  }
}

// --- Schema inference --------------------------------------------------------

/// A random cell for inference: ints, doubles (inf/nan included), quoted
/// and padded numbers, NULLs, and strings (a quoted empty string is a
/// value, not NULL).
std::string InferenceCell(Rng& rng, size_t column_kind) {
  const char* ints[] = {"12", "-3", " 7 ", "\"42\"", "0"};
  const char* doubles[] = {"1.5", "inf", "nan", "-0.0", "1e3", "\" 2.25\""};
  const char* nulls[] = {"", "\\N"};
  const char* strings[] = {"x", "\"\"", "1.5.2", "\"\\N\"", "12a"};
  const uint64_t roll = rng.UniformInt(100);
  if (roll < 15) return nulls[rng.UniformInt(2)];
  // Column kinds lean int, double, or mixed, so all three outcomes occur.
  if (column_kind == 0 && roll < 99) return ints[rng.UniformInt(5)];
  if (column_kind == 1 && roll < 99) {
    return rng.Bernoulli(0.5) ? ints[rng.UniformInt(5)]
                              : doubles[rng.UniformInt(6)];
  }
  if (roll < 40) return strings[rng.UniformInt(5)];
  return rng.Bernoulli(0.5) ? ints[rng.UniformInt(5)]
                            : doubles[rng.UniformInt(6)];
}

std::string InferenceText(Rng& rng, size_t records) {
  const size_t width = 1 + rng.UniformInt(4);
  std::vector<size_t> kinds(width);
  std::string text;
  for (size_t c = 0; c < width; ++c) {
    kinds[c] = rng.UniformInt(3);
    text += (c > 0 ? "," : "") + std::string("c") + std::to_string(c);
  }
  text += "\n";
  for (size_t r = 0; r < records; ++r) {
    const uint64_t shape = rng.UniformInt(20);
    if (shape == 0) {
      text += "\n";  // Blank line.
      continue;
    }
    // Short records skip the columns they lack; long ones are ignored
    // past the header's width.
    size_t fields = width;
    if (shape == 1) fields = 1 + rng.UniformInt(width);
    if (shape == 2) fields = width + 1;
    for (size_t c = 0; c < fields; ++c) {
      text += (c > 0 ? "," : "") + InferenceCell(rng, kinds[c % width]);
    }
    text += rng.Bernoulli(0.1) ? "\r\n" : "\n";
  }
  return text;
}

TEST(CsvSplitFuzzTest, SchemaInferenceMatchesReferenceFold) {
  Rng rng(0x1F3E);
  for (int trial = 0; trial < 300; ++trial) {
    const std::string text = InferenceText(rng, rng.UniformInt(40));
    CsvOptions options;
    options.null_literal = "\\N";
    options.split_chunk_bytes = 1 + rng.UniformInt(32);
    ExpectSchemasAgree(text, options);
  }
}

TEST(CsvSplitFuzzTest, SchemaInferenceMergesAcrossShards) {
  // The deciding cell sits in a later shard: an int column with one
  // double near the end, an int column with a string in the last
  // record, an all-NULL column and a column with values only in the last
  // shard.
  const size_t n = 40000;
  std::string text = "a,b,c,d\n";
  for (size_t r = 0; r < n; ++r) {
    const bool last = r + 1 == n;
    text += std::to_string(r % 100) + (r == 35000 ? ".5" : "") + "," +
            (last ? "tail" : std::to_string(r)) + ",\\N," +
            (r >= 30000 ? "2.5" : "") + "\n";
  }
  CsvOptions options;
  options.null_literal = "\\N";
  options.split_chunk_bytes = 700;
  ExpectSchemasAgree(text, options);
  options.exec.num_threads = 8;
  Schema s = *InferCsvSchema(text, options);
  EXPECT_EQ(s.field(0).type, ValueType::kDouble);
  EXPECT_EQ(s.field(1).type, ValueType::kString);
  EXPECT_EQ(s.field(2).type, ValueType::kString);
  EXPECT_EQ(s.field(3).type, ValueType::kDouble);
  // And the random mix, at a size that spans shards.
  Rng rng(0x1F3F);
  for (int trial = 0; trial < 3; ++trial) {
    CsvOptions mixed;
    mixed.null_literal = "\\N";
    mixed.split_chunk_bytes = 200 + rng.UniformInt(800);
    ExpectSchemasAgree(InferenceText(rng, 20000 + rng.UniformInt(20000)),
                       mixed);
  }
}

TEST(CsvSplitFuzzTest, ErrorMessagesCarryIdenticalFileLineContext) {
  // Malformed inputs with the error several (possibly quoted) lines in:
  // the reader must reproduce the reference's "<context>:<line>: "
  // prefix exactly, including lines advanced inside quoted fields.
  const char* inputs[] = {
      "a,b\nc,d\n\"open",              // Unterminated quote on line 3.
      "\"x\ny\nz\"\nnext,\"",          // Quoted newlines, then line 4 opens.
      "one\ntwo\nthree",               // Unterminated final record: fine.
      "\"a\nb\"\r\n\"c",               // CRLF after a multiline field.
      "h1,h2\n\"v\n\n\n",              // Quote swallowing blank lines.
  };
  Rng rng(0xABCDEF);
  for (const char* input : inputs) {
    ExpectParsersAgree(input, rng);
    ExpectParsersAgree(kBom + input, rng);
  }
}

TEST(CsvSplitFuzzTest, AutoModeMatchesSerialAcrossThreadCounts) {
  // A multi-chunk input at the default chunk size: framing is identical
  // at 1/2/8 threads and equal to the reference parser.
  std::string text = "name,score\n";
  Rng rng(77);
  for (int r = 0; r < 4000; ++r) {
    text += RandomFragment(rng) + "," + std::to_string(rng.UniformReal()) +
            "\n";
  }
  ASSERT_GT(text.size(), kBytesPerSplitChunk);
  const std::string want = SplitImage(SplitCsvRecordsReference(text));
  ExpectIdenticalAcrossThreadCounts([&](const ExecutionOptions& exec) {
    CsvOptions run;
    run.exec = exec;
    const std::string image = SplitImage(SplitCsvRecords(text, run));
    EXPECT_EQ(image, want);
    return image;
  });
}

}  // namespace
}  // namespace privateclean
