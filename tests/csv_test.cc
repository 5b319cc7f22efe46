#include "table/csv.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "common/random.h"
#include "table/table_builder.h"

namespace privateclean {
namespace {

Schema TestSchema() {
  return *Schema::Make({Field::Discrete("name"),
                        Field::Numerical("score", ValueType::kDouble),
                        Field::Numerical("count", ValueType::kInt64)});
}

Table TestTable() {
  TableBuilder b(TestSchema());
  b.Row({Value("alice"), Value(3.5), Value(10)})
      .Row({Value("bob,with comma"), Value(2.0), Value::Null()})
      .Row({Value("quote\"inside"), Value::Null(), Value(7)});
  return *b.Finish();
}

TEST(CsvTest, SerializeBasic) {
  std::string csv = TableToCsv(TestTable());
  EXPECT_NE(csv.find("name,score,count\n"), std::string::npos);
  EXPECT_NE(csv.find("alice,3.5,10\n"), std::string::npos);
}

TEST(CsvTest, QuotesDelimiterAndQuotes) {
  std::string csv = TableToCsv(TestTable());
  EXPECT_NE(csv.find("\"bob,with comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"quote\"\"inside\""), std::string::npos);
}

TEST(CsvTest, RoundTrip) {
  Table t = TestTable();
  std::string csv = TableToCsv(t);
  Table parsed = *CsvToTable(csv, TestSchema());
  ASSERT_EQ(parsed.num_rows(), t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      EXPECT_EQ(parsed.column(c).ValueAt(r), t.column(c).ValueAt(r))
          << "row " << r << " col " << c;
    }
  }
}

TEST(CsvTest, NullRoundTrip) {
  Table t = TestTable();
  Table parsed = *CsvToTable(TableToCsv(t), TestSchema());
  EXPECT_TRUE(parsed.column(2).IsNull(1));
  EXPECT_TRUE(parsed.column(1).IsNull(2));
}

TEST(CsvTest, CustomNullLiteral) {
  CsvOptions options;
  options.null_literal = "NA";
  Table t = TestTable();
  std::string csv = TableToCsv(t, options);
  EXPECT_NE(csv.find("NA"), std::string::npos);
  Table parsed = *CsvToTable(csv, TestSchema(), options);
  EXPECT_TRUE(parsed.column(2).IsNull(1));
}

TEST(CsvTest, CustomDelimiter) {
  CsvOptions options;
  options.delimiter = ';';
  Table t = TestTable();
  Table parsed = *CsvToTable(TableToCsv(t, options), TestSchema(), options);
  EXPECT_EQ(parsed.num_rows(), t.num_rows());
  EXPECT_EQ(parsed.column(0).StringAt(1), "bob,with comma");
}

TEST(CsvTest, HeaderMismatchRejected) {
  std::string csv = "wrong,score,count\nx,1,2\n";
  auto r = CsvToTable(csv, TestSchema());
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError());
}

TEST(CsvTest, FieldCountMismatchRejected) {
  std::string csv = "name,score,count\nx,1\n";
  EXPECT_FALSE(CsvToTable(csv, TestSchema()).ok());
}

TEST(CsvTest, BadNumericRejected) {
  std::string csv = "name,score,count\nx,notanumber,2\n";
  EXPECT_FALSE(CsvToTable(csv, TestSchema()).ok());
}

TEST(CsvTest, UnterminatedQuoteRejected) {
  std::string csv = "name,score,count\n\"unterminated,1,2\n";
  EXPECT_FALSE(CsvToTable(csv, TestSchema()).ok());
}

TEST(CsvTest, CrLfLineEndings) {
  std::string csv = "name,score,count\r\nx,1.5,2\r\n";
  Table t = *CsvToTable(csv, TestSchema());
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.column(0).StringAt(0), "x");
  EXPECT_DOUBLE_EQ(t.column(1).DoubleAt(0), 1.5);
}

TEST(CsvTest, MissingFinalNewline) {
  std::string csv = "name,score,count\nx,1.5,2";
  Table t = *CsvToTable(csv, TestSchema());
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(CsvTest, EmbeddedNewlineInQuotedField) {
  std::string csv = "name,score,count\n\"line1\nline2\",1.0,2\n";
  Table t = *CsvToTable(csv, TestSchema());
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.column(0).StringAt(0), "line1\nline2");
}

TEST(CsvTest, WhitespaceTrimmedOutsideQuotes) {
  std::string csv = "name,score,count\n  padded  , 1.0 , 2 \n";
  Table t = *CsvToTable(csv, TestSchema());
  EXPECT_EQ(t.column(0).StringAt(0), "padded");
}

TEST(CsvTest, QuotedWhitespacePreserved) {
  std::string csv = "name,score,count\n\"  padded  \",1.0,2\n";
  Table t = *CsvToTable(csv, TestSchema());
  EXPECT_EQ(t.column(0).StringAt(0), "  padded  ");
}

TEST(CsvTest, QuotedFieldsAreNeverNull) {
  // The empty string and a literal null marker are real values when
  // quoted; unquoted they are NULL.
  Schema s = *Schema::Make({Field::Discrete("name")});
  TableBuilder b(s);
  b.Row({Value("")}).Row({Value::Null()}).Row({Value("NA")});
  Table t = *b.Finish();
  CsvOptions options;
  options.null_literal = "NA";
  Table parsed = *CsvToTable(TableToCsv(t, options), s, options);
  ASSERT_EQ(parsed.num_rows(), 3u);
  EXPECT_FALSE(parsed.column(0).IsNull(0));
  EXPECT_EQ(parsed.column(0).StringAt(0), "");
  EXPECT_TRUE(parsed.column(0).IsNull(1));
  EXPECT_FALSE(parsed.column(0).IsNull(2));
  EXPECT_EQ(parsed.column(0).StringAt(2), "NA");
}

TEST(CsvTest, SingleColumnNullRowsSurvive) {
  Schema s = *Schema::Make({Field::Discrete("only")});
  TableBuilder b(s);
  b.Row({Value("a")}).Row({Value::Null()}).Row({Value("b")});
  Table t = *b.Finish();
  Table parsed = *CsvToTable(TableToCsv(t), s);
  ASSERT_EQ(parsed.num_rows(), 3u);
  EXPECT_TRUE(parsed.column(0).IsNull(1));
  EXPECT_EQ(parsed.column(0).StringAt(2), "b");
}

TEST(CsvTest, BlankLinesSkippedForWideSchemas) {
  Schema s = *Schema::Make({Field::Discrete("a"), Field::Discrete("b")});
  std::string csv = "a,b\nx,y\n\nz,w\n\n";
  Table parsed = *CsvToTable(csv, s);
  ASSERT_EQ(parsed.num_rows(), 2u);
  EXPECT_EQ(parsed.column(0).StringAt(1), "z");
}

TEST(CsvTest, FileRoundTrip) {
  Table t = TestTable();
  std::string path = ::testing::TempDir() + "/pclean_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(t, path).ok());
  Table parsed = *ReadCsvFile(path, TestSchema());
  EXPECT_EQ(parsed.num_rows(), t.num_rows());
  std::remove(path.c_str());
}

TEST(CsvTest, ReadMissingFileFails) {
  auto r = ReadCsvFile("/nonexistent/path/file.csv", TestSchema());
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(CsvTest, ParseErrorsCarryLineNumbers) {
  // Line 1 is the header; the bad cell sits on line 3.
  std::string csv = "name,score,count\nok,1.0,1\nbad,oops,2\n";
  CsvOptions options;
  options.error_context = "input.csv";
  auto r = CsvToTable(csv, TestSchema(), options);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("input.csv:3"), std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("score"), std::string::npos);
}

TEST(CsvTest, FieldCountErrorsCarryLineNumbers) {
  std::string csv = "name,score,count\nok,1.0,1\nshort,2\n";
  CsvOptions options;
  options.error_context = "input.csv";
  auto r = CsvToTable(csv, TestSchema(), options);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("input.csv:3"), std::string::npos)
      << r.status().ToString();
}

TEST(CsvTest, MultilineQuotedFieldsReportTheRecordStartLine) {
  // The bad record begins on line 2 even though its quoted field spans
  // through line 3.
  std::string csv = "name,score,count\n\"a\nb\",oops,2\n";
  CsvOptions options;
  options.error_context = "input.csv";
  auto r = CsvToTable(csv, TestSchema(), options);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("input.csv:2"), std::string::npos)
      << r.status().ToString();
}

TEST(CsvTest, UnterminatedQuoteIsDataLoss) {
  std::string csv = "name,score,count\n\"unterminated,1,2\n";
  auto r = CsvToTable(csv, TestSchema());
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDataLoss()) << r.status().ToString();
}

TEST(CsvInferTest, InfersTypes) {
  std::string csv = "a,b,c\nx,1,1.5\ny,2,2.5\n";
  Schema s = *InferCsvSchema(csv);
  ASSERT_EQ(s.num_fields(), 3u);
  EXPECT_EQ(s.field(0).type, ValueType::kString);
  EXPECT_EQ(s.field(0).kind, AttributeKind::kDiscrete);
  EXPECT_EQ(s.field(1).type, ValueType::kInt64);
  EXPECT_EQ(s.field(1).kind, AttributeKind::kNumerical);
  EXPECT_EQ(s.field(2).type, ValueType::kDouble);
}

TEST(CsvInferTest, MixedColumnFallsBackToString) {
  std::string csv = "a\n1\nx\n";
  Schema s = *InferCsvSchema(csv);
  EXPECT_EQ(s.field(0).type, ValueType::kString);
}

TEST(CsvInferTest, AllNullColumnIsString) {
  std::string csv = "a,b\n,1\n,2\n";
  Schema s = *InferCsvSchema(csv);
  EXPECT_EQ(s.field(0).type, ValueType::kString);
  EXPECT_EQ(s.field(1).type, ValueType::kInt64);
}

TEST(CsvInferTest, InferThenParseRoundTrip) {
  std::string csv = "name,score\nalice,3.5\nbob,\n";
  Schema s = *InferCsvSchema(csv);
  Table t = *CsvToTable(csv, s);
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_TRUE(t.column(1).IsNull(1));
}

// --- Parallel parser/serializer vs the serial reference ----------------

void ExpectSameTable(const Table& a, const Table& b) {
  ASSERT_TRUE(a.schema() == b.schema());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    for (size_t r = 0; r < a.num_rows(); ++r) {
      ASSERT_EQ(a.column(c).ValueAt(r), b.column(c).ValueAt(r))
          << "row " << r << " col " << c;
    }
  }
}

TEST(CsvParallelFuzzTest, ParallelParseMatchesSerialOnRandomTables) {
  // Random tables full of the hostile cases — delimiters, quotes,
  // newlines, padding whitespace, the null literal both as a real string
  // and as an actual NULL — serialized, then parsed serially and with 8
  // threads: same bytes in, same Table out.
  const char* string_pool[] = {"alpha",  "be,ta", "ga\"mma", "del\nta",
                               " lead",  "trail ", "\\N",    "",
                               "x\r\ny", "\"\""};
  Schema schema = *Schema::Make({Field::Discrete("name"),
                                 Field::Numerical("score", ValueType::kDouble),
                                 Field::Numerical("count", ValueType::kInt64)});
  for (int trial = 0; trial < 10; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Rng rng(500 + trial);
    TableBuilder b(schema);
    size_t rows = 50 + rng.UniformInt(200);
    for (size_t r = 0; r < rows; ++r) {
      Value name = rng.Bernoulli(0.15)
                       ? Value::Null()
                       : Value(string_pool[rng.UniformInt(10)]);
      Value score = rng.Bernoulli(0.15)
                        ? Value::Null()
                        : Value(rng.UniformRealRange(-100.0, 100.0));
      Value count = rng.Bernoulli(0.15)
                        ? Value::Null()
                        : Value(rng.UniformIntRange(-1000, 1000));
      b.Row({name, score, count});
    }
    Table original = *b.Finish();

    CsvOptions serial;
    serial.null_literal = "\\N";
    CsvOptions parallel = serial;
    parallel.exec.num_threads = 8;

    // Same bytes out of both serializers.
    const std::string text = TableToCsv(original, serial);
    EXPECT_EQ(TableToCsv(original, parallel), text);

    // Same Table out of both parsers, equal to the original.
    Table from_serial = *CsvToTable(text, schema, serial);
    Table from_parallel = *CsvToTable(text, schema, parallel);
    ExpectSameTable(from_serial, from_parallel);
    ExpectSameTable(original, from_parallel);
  }
}

TEST(CsvParallelFuzzTest, ParallelParseMatchesSerialOnRawText) {
  // Raw text fuzz (not writer output): random fragments including
  // malformed records. Serial and parallel parses must agree exactly —
  // same Table on success, same Status (code and message) on failure.
  const char* fragment_pool[] = {
      "a,1.5,2\n",     "\\N,\\N,\\N\n", "\"\\N\",0,0\n", "\n",
      "\"q\"\"q\",3,4\n", " pad ,5,6\n", "a,b,c\n",       "short,1\n",
      "long,1,2,3\n",  "\"multi\nline\",7,8\n"};
  Schema schema = *Schema::Make({Field::Discrete("name"),
                                 Field::Numerical("score", ValueType::kDouble),
                                 Field::Numerical("count", ValueType::kInt64)});
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Rng rng(900 + trial);
    std::string text = "name,score,count\n";
    size_t fragments = 20 + rng.UniformInt(100);
    for (size_t i = 0; i < fragments; ++i) {
      text += fragment_pool[rng.UniformInt(10)];
    }
    CsvOptions serial;
    serial.null_literal = "\\N";
    CsvOptions parallel = serial;
    parallel.exec.num_threads = 8;
    auto from_serial = CsvToTable(text, schema, serial);
    auto from_parallel = CsvToTable(text, schema, parallel);
    ASSERT_EQ(from_serial.ok(), from_parallel.ok());
    if (from_serial.ok()) {
      ExpectSameTable(*from_serial, *from_parallel);
    } else {
      EXPECT_EQ(from_serial.status().code(), from_parallel.status().code());
      EXPECT_EQ(from_serial.status().message(),
                from_parallel.status().message());
    }
  }
}

// --- Reader vs reference edge-case equivalence ------------------------------
//
// Deterministic corner inputs where the reader's chunked framing and
// in-place field splitting could plausibly diverge from the serial
// reference parser: blank records, carriage returns at EOF, quotes opened
// on the very last byte. Each case is asserted field-for-field (and
// error-for-error) at several chunk sizes.

/// Splits `text` with the reference parser and with the reader (chunk
/// sizes 1, 3, and default, 4 threads) and asserts identical
/// records/lines or identical statuses.
void ExpectReaderMatchesReference(const std::string& text) {
  auto want = SplitCsvRecordsReference(text);

  CsvOptions reader;
  reader.exec.num_threads = 4;
  for (size_t chunk_bytes : {size_t{1}, size_t{3}, size_t{0}}) {
    SCOPED_TRACE("chunk_bytes=" + std::to_string(chunk_bytes));
    reader.split_chunk_bytes = chunk_bytes;
    auto got = SplitCsvRecords(text, reader);
    ASSERT_EQ(want.ok(), got.ok());
    if (!want.ok()) {
      EXPECT_EQ(want.status().code(), got.status().code());
      EXPECT_EQ(want.status().message(), got.status().message());
      continue;
    }
    const auto& w = want.ValueOrDie();
    const auto& g = got.ValueOrDie();
    ASSERT_EQ(w.size(), g.size());
    for (size_t r = 0; r < w.size(); ++r) {
      EXPECT_EQ(w[r].line, g[r].line) << "record " << r;
      ASSERT_EQ(w[r].fields.size(), g[r].fields.size()) << "record " << r;
      for (size_t f = 0; f < w[r].fields.size(); ++f) {
        EXPECT_EQ(w[r].fields[f].text, g[r].fields[f].text)
            << "record " << r << " field " << f;
        EXPECT_EQ(w[r].fields[f].quoted, g[r].fields[f].quoted)
            << "record " << r << " field " << f;
      }
    }
  }
}

TEST(CsvSplitEdgeCaseTest, EmptyInput) {
  ExpectReaderMatchesReference("");
  EXPECT_TRUE(SplitCsvRecords("")->empty());
}

TEST(CsvSplitEdgeCaseTest, OnlyNewlines) {
  // Every newline is a blank record (one unquoted empty field) in both
  // parsers, with consecutive line numbers.
  for (const char* text : {"\n", "\n\n", "\n\n\n\n\n"}) {
    ExpectReaderMatchesReference(text);
  }
  auto records = *SplitCsvRecords("\n\n\n");
  ASSERT_EQ(records.size(), 3u);
  for (size_t r = 0; r < records.size(); ++r) {
    EXPECT_EQ(records[r].line, r + 1);
    ASSERT_EQ(records[r].fields.size(), 1u);
    EXPECT_TRUE(records[r].fields[0].text.empty());
    EXPECT_FALSE(records[r].fields[0].quoted);
  }
}

TEST(CsvSplitEdgeCaseTest, LoneCarriageReturnAtEof) {
  // A bare '\r' tail is swallowed: no final record, in both parsers.
  for (const char* text : {"\r", "\r\r", "a\n\r", "a\n\r\r"}) {
    ExpectReaderMatchesReference(text);
  }
  EXPECT_TRUE(SplitCsvRecords("\r")->empty());
  EXPECT_EQ(SplitCsvRecords("a\n\r")->size(), 1u);
}

TEST(CsvSplitEdgeCaseTest, CarriageReturnWithContentAtEof) {
  // '\r' plus real bytes *is* a final record ("a\r" parses as "a").
  ExpectReaderMatchesReference("a\r");
  auto records = *SplitCsvRecords("a\r");
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].fields[0].text, "a");
}

TEST(CsvSplitEdgeCaseTest, QuoteOpenedAtLastByte) {
  // A quote opened on the final byte is an unterminated quoted field;
  // both parsers must report DataLoss at the same line.
  for (const char* text : {"\"", "abc\"", "a,b\n\"", "a\nb\nc,\""}) {
    ExpectReaderMatchesReference(text);
  }
  auto result = SplitCsvRecords("a\nb\nc,\"");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDataLoss());
  EXPECT_NE(result.status().message().find("<csv>:3:"), std::string::npos)
      << result.status().message();
}

TEST(CsvSplitEdgeCaseTest, BlankRecordsAndCrLfMixtures) {
  for (const char* text :
       {"\r\n", "\r\n\r\n", "a\r\n\r\nb\r\n", "a\n\nb\n", "\n\r\n\n",
        "a,b\r\n\r\nc,d"}) {
    ExpectReaderMatchesReference(text);
  }
}

TEST(CsvSplitEdgeCaseTest, QuoteRunsAcrossChunkBoundaries) {
  // Runs of escaped quotes positioned so chunk boundaries split `""`
  // pairs: framing counts '"' bytes, so a pair split across two chunks
  // must still leave the quote state unchanged.
  for (const char* text :
       {"\"\"\"\"\n", "a,\"\"\"\"\"\"\n", "\"\"\"x\"\"\"\n",
        "\"\"\n\"\"\"\"\n", "x\"\"\"\"y\n"}) {
    ExpectReaderMatchesReference(text);
  }
}

TEST(CsvSplitEdgeCaseTest, LeadingByteOrderMarkIsSkipped) {
  // One leading UTF-8 BOM is skipped by both parsers without moving line
  // numbers; a second one, or one anywhere else, is data.
  const std::string bom = "\xEF\xBB\xBF";
  for (const std::string& text :
       {bom, bom + "a,b\n", bom + bom + "a\n", "a\n" + bom + "b\n",
        bom + "\"q\nr\",x\nbad,\"", bom + "\n\nz"}) {
    ExpectReaderMatchesReference(text);
  }
  auto records = *SplitCsvRecords(bom + "city,income\nA,1\n");
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].fields[0].text, "city");
  EXPECT_EQ(records[1].line, 2u);
  EXPECT_EQ((*SplitCsvRecords(bom + bom + "a\n"))[0].fields[0].text,
            bom + "a");
}

TEST(CsvSplitEdgeCaseTest, FramingDelimitersAreRejected) {
  // '"', '\n' and '\r' frame quoted fields and records; as delimiters
  // they are a typed error on every read path.
  for (char delimiter : {'"', '\n', '\r'}) {
    CsvOptions options;
    options.delimiter = delimiter;
    EXPECT_TRUE(SplitCsvRecords("a\n", options).status().IsInvalidArgument());
    EXPECT_TRUE(InferCsvSchema("a\n1\n", options).status().IsInvalidArgument());
    EXPECT_TRUE(CsvToTable("name,score,count\n", TestSchema(), options)
                    .status()
                    .IsInvalidArgument());
  }
}

TEST(CsvTest, ByteOrderMarkDoesNotReachTheHeader) {
  // A spreadsheet "CSV UTF-8" export: the same schema and the same table
  // with and without the mark.
  const std::string csv = "city,income\nA,1.5\nB,2\nA,3\n";
  const std::string bom = "\xEF\xBB\xBF" + csv;
  Schema plain = *InferCsvSchema(csv);
  Schema marked = *InferCsvSchema(bom);
  EXPECT_TRUE(plain == marked);
  EXPECT_EQ(marked.field(0).name, "city");
  EXPECT_EQ(marked.field(1).type, ValueType::kDouble);
  Table want = *CsvToTable(csv, plain);
  Table got = *CsvToTable(bom, marked);
  ASSERT_EQ(got.num_rows(), want.num_rows());
  for (size_t c = 0; c < want.num_columns(); ++c) {
    for (size_t r = 0; r < want.num_rows(); ++r) {
      EXPECT_EQ(got.column(c).ValueAt(r), want.column(c).ValueAt(r));
    }
  }
  EXPECT_EQ(got.column(0).dictionary().values(),
            want.column(0).dictionary().values());
}

}  // namespace
}  // namespace privateclean
