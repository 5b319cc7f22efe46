#ifndef PRIVATECLEAN_TABLE_CSV_H_
#define PRIVATECLEAN_TABLE_CSV_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "table/table.h"

namespace privateclean {

/// CSV parsing/serialization options (RFC-4180 quoting).
struct CsvOptions {
  /// Field separator. The reader rejects '"', '\n' and '\r' with
  /// InvalidArgument: those bytes frame quoted fields and records.
  char delimiter = ',';
  /// Whether the first record is a header row. On read with an explicit
  /// schema the header names must match the schema names.
  bool header = true;
  /// String that encodes NULL (in addition to the empty field).
  std::string null_literal = "";
  /// Threading (common/thread_pool.h). Record framing is sharded by byte
  /// chunks, cell typing by records and row rendering by rows; every
  /// merge runs in shard index order, so the result is identical at
  /// every thread count.
  ExecutionOptions exec;
  /// Chunk granularity for record framing; 0 picks kBytesPerSplitChunk.
  /// Tests shrink it to put chunk boundaries inside quoted fields,
  /// escaped quotes and CRLF pairs on short inputs. Chunk layout is a
  /// function of the input bytes alone, never the thread count.
  size_t split_chunk_bytes = 0;
  /// Source name used in parse-error messages ("<name>:<line>: ...").
  /// ReadCsvFile fills it with the file path when empty; inline text
  /// defaults to "<csv>". Line numbers are 1-based input lines (a quoted
  /// field spanning lines reports the line its record starts on).
  std::string error_context;
};

/// Serializes a table to CSV text. Null cells render as
/// `options.null_literal`; fields containing the delimiter, quotes or
/// newlines are quoted with doubled inner quotes.
std::string TableToCsv(const Table& table, const CsvOptions& options = {});

/// Writes a table to a CSV file.
Status WriteCsvFile(const Table& table, const std::string& path,
                    const CsvOptions& options = {});

/// Parses CSV text into a table with a caller-provided schema. Every
/// record must have exactly one field per schema column; numeric fields
/// are parsed strictly. Empty fields (or `null_literal`) become NULL;
/// quoted fields never do. A blank line is skipped unless the schema has
/// one column, where it is a NULL row. One leading UTF-8 byte-order mark
/// is skipped.
///
/// One framing pass finds the records; shards of records then read their
/// fields in place into typed column builders, and a string column's
/// shard-local dictionaries merge in shard order, so the dictionary is in
/// first-appearance order at every thread count. On malformed input the
/// first failing record in input order is reported.
Result<Table> CsvToTable(const std::string& text, const Schema& schema,
                         const CsvOptions& options = {});

/// Reads a CSV file into a table with a caller-provided schema.
Result<Table> ReadCsvFile(const std::string& path, const Schema& schema,
                          const CsvOptions& options = {});

/// One raw field: the field text (quoted fields unescaped, unquoted
/// fields trimmed) and whether it was quoted (quoted fields are never
/// NULL).
struct CsvRawField {
  std::string text;
  bool quoted = false;
};

/// One raw record: its fields and the 1-based input line it starts on
/// (quoted fields may span lines; the record keeps its starting line).
struct CsvRawRecord {
  std::vector<CsvRawField> fields;
  size_t line = 1;
};

/// The records and fields the reader sees in `text`, materialized: the
/// reader's framing and field splitting, exposed so the differential fuzz
/// suite can compare them record by record (and error by error) with
/// SplitCsvRecordsReference.
Result<std::vector<CsvRawRecord>> SplitCsvRecords(
    const std::string& text, const CsvOptions& options = {});

/// The single-pass serial CSV parser that defines the reader's semantics:
/// the reference the differential fuzz suite holds SplitCsvRecords, and
/// through it CsvToTable and InferCsvSchema, to. Uses `delimiter` and
/// `error_context` only. Not used by the reader itself.
Result<std::vector<CsvRawRecord>> SplitCsvRecordsReference(
    const std::string& text, const CsvOptions& options = {});

/// Infers a schema from CSV text: a column parseable entirely as int64
/// becomes a numerical int64 field; else entirely as double, a numerical
/// double field; otherwise a discrete string field. NULL cells, blank
/// lines (for a header of more than one column) and the columns a short
/// record lacks are ignored, and so are extra fields. Requires a header
/// row; a leading UTF-8 byte-order mark is skipped.
Result<Schema> InferCsvSchema(const std::string& text,
                              const CsvOptions& options = {});

}  // namespace privateclean

#endif  // PRIVATECLEAN_TABLE_CSV_H_
