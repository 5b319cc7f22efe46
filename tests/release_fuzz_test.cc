// Release serialization fuzz: random schemas (weird attribute names,
// mixed types, null-heavy columns) and hand-built edge relations must
// survive the WriteRelease → ReadRelease round trip bit for bit — code
// arrays, dictionary order, validity and double bits — at every thread
// count, and damaged releases must never load as different data.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <sstream>

#include "common/io_util.h"
#include "common/random.h"
#include "core/privateclean.h"
#include "parallel_harness.h"
#include "table/table_builder.h"

namespace privateclean {
namespace {

/// Builds a random schema: 1-3 discrete attributes (string or int64) and
/// 0-2 numerical ones, with adversarial names.
Schema RandomSchema(Rng& rng) {
  const char* name_pool[] = {
      "plain",       "with space",   "comma,name",  "quote\"name",
      "newline\nname", "unicode_\xC3\xA9", "UPPER",  "_underscore",
      "123start",    "semi;colon"};
  std::vector<Field> fields;
  std::vector<size_t> name_indices(10);
  for (size_t i = 0; i < 10; ++i) name_indices[i] = i;
  rng.Shuffle(name_indices);
  size_t next_name = 0;
  size_t num_discrete = 1 + rng.UniformInt(3);
  for (size_t i = 0; i < num_discrete; ++i) {
    ValueType type =
        rng.Bernoulli(0.3) ? ValueType::kInt64 : ValueType::kString;
    fields.push_back(Field{name_pool[name_indices[next_name++]], type,
                           AttributeKind::kDiscrete});
  }
  size_t num_numeric = rng.UniformInt(3);
  for (size_t i = 0; i < num_numeric; ++i) {
    ValueType type =
        rng.Bernoulli(0.5) ? ValueType::kInt64 : ValueType::kDouble;
    fields.push_back(Field{name_pool[name_indices[next_name++]], type,
                           AttributeKind::kNumerical});
  }
  return *Schema::Make(std::move(fields));
}

Value RandomCell(const Field& field, Rng& rng) {
  if (rng.Bernoulli(0.1)) return Value::Null();
  switch (field.type) {
    case ValueType::kInt64:
      return Value(rng.UniformIntRange(-5, 5));
    case ValueType::kDouble:
      return Value(rng.UniformRealRange(-100.0, 100.0));
    default: {
      const char* values[] = {"alpha", "be,ta", "ga\"mma", "del\nta",
                              " lead", "trail ", "\\N", "x"};
      return Value(values[rng.UniformInt(8)]);
    }
  }
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Equal type and payload, doubles compared by bit pattern (so NaN, -0.0
/// and +0.0 are told apart).
bool SameValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (a.type() == ValueType::kDouble) {
    return Bits(a.AsDouble()) == Bits(b.AsDouble());
  }
  return a == b;
}

void ExpectReleaseBitIdentical(const LoadedRelease& got, const Table& table,
                               const PrivateRelationMetadata& metadata) {
  ASSERT_TRUE(got.relation.schema() == table.schema());
  ASSERT_EQ(got.relation.num_rows(), table.num_rows());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    ExpectColumnsBitIdentical(got.relation.column(c), table.column(c),
                              "column " + table.schema().field(c).name);
  }
  EXPECT_EQ(got.metadata.dataset_size, table.num_rows());
  ASSERT_EQ(got.metadata.discrete.size(), metadata.discrete.size());
  for (const auto& [name, meta] : metadata.discrete) {
    const DiscreteAttributeMeta& loaded = got.metadata.discrete.at(name);
    EXPECT_EQ(Bits(loaded.p), Bits(meta.p)) << name;
    ASSERT_EQ(loaded.domain.size(), meta.domain.size()) << name;
    for (size_t i = 0; i < meta.domain.size(); ++i) {
      EXPECT_TRUE(SameValue(loaded.domain.value(i), meta.domain.value(i)))
          << name << " domain index " << i;
    }
  }
  ASSERT_EQ(got.metadata.numeric.size(), metadata.numeric.size());
  for (const auto& [name, meta] : metadata.numeric) {
    EXPECT_EQ(Bits(got.metadata.numeric.at(name).b), Bits(meta.b)) << name;
    EXPECT_EQ(Bits(got.metadata.numeric.at(name).sensitivity),
              Bits(meta.sensitivity))
        << name;
  }
}

std::string Slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << f.rdbuf();
  return buffer.str();
}

void Spit(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << bytes;
}

/// Every file of a (flat) release directory, by name.
std::map<std::string, std::string> DirectoryBytes(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files[entry.path().filename().string()] = Slurp(entry.path().string());
  }
  return files;
}

/// Metadata covering every attribute, with each discrete domain taken
/// from the column (NULL included).
PrivateRelationMetadata CoveringMetadata(const Table& table) {
  PrivateRelationMetadata metadata;
  metadata.dataset_size = table.num_rows();
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Field& field = table.schema().field(c);
    if (field.kind == AttributeKind::kDiscrete) {
      Domain domain = *Domain::FromColumn(table, field.name,
                                          /*include_null=*/true);
      metadata.discrete.emplace(field.name,
                                DiscreteAttributeMeta{0.2, domain});
    } else {
      metadata.numeric.emplace(field.name, NumericAttributeMeta{1.0, 10.0});
    }
  }
  return metadata;
}

/// Writes the release at 1, 2 and 8 threads (the bytes must not move)
/// and reads it back at each (the relation must come back bit for bit).
void ExpectBitExactRoundTrip(const Table& table,
                             const PrivateRelationMetadata& metadata,
                             const std::string& base) {
  std::map<std::string, std::string> first;
  for (size_t threads : {1, 2, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ExecutionOptions exec;
    exec.num_threads = threads;
    const std::string dir = base + "_t" + std::to_string(threads);
    std::filesystem::remove_all(dir);
    Status written = WriteRelease(table, metadata, dir, exec);
    ASSERT_TRUE(written.ok()) << written.ToString();
    std::map<std::string, std::string> bytes = DirectoryBytes(dir);
    if (threads == 1) {
      first = bytes;
    } else {
      EXPECT_EQ(bytes, first);
    }
    auto loaded = ReadRelease(dir, exec);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectReleaseBitIdentical(*loaded, table, metadata);
    std::filesystem::remove_all(dir);
  }
}

/// A one-column string relation whose dictionary holds `entries` strings
/// in code order; rows name the first, the last and spread-out codes.
Table WideDictionaryTable(size_t entries) {
  Column column = *Column::Make(ValueType::kString);
  for (size_t j = 0; j < entries; ++j) {
    column.InternString("v" + std::to_string(j));
  }
  column.AppendString("v" + std::to_string(entries - 1));
  column.AppendNull();
  for (size_t r = 0; r < 300; ++r) {
    column.AppendString("v" + std::to_string((r * 7919) % entries));
  }
  std::vector<Column> columns;
  columns.push_back(std::move(column));
  return *Table::Make(*Schema::Make({Field::Discrete("wide")}),
                      std::move(columns));
}

TEST(ReleaseFuzzTest, RandomSchemasRoundTrip) {
  std::string base = ::testing::TempDir() + "/pclean_release_fuzz";
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Rng rng(1000 + trial);
    Schema schema = RandomSchema(rng);
    TableBuilder b(schema);
    size_t rows = 20 + rng.UniformInt(80);
    for (size_t r = 0; r < rows; ++r) {
      std::vector<Value> row;
      for (size_t c = 0; c < schema.num_fields(); ++c) {
        row.push_back(RandomCell(schema.field(c), rng));
      }
      b.Row(std::move(row));
    }
    auto table_result = b.Finish();
    ASSERT_TRUE(table_result.ok());
    Table original = std::move(table_result).ValueOrDie();

    // Numerical columns that are entirely null have no sensitivity; GRR
    // rejects them. Skip those rare draws.
    bool skip = false;
    for (size_t c = 0; c < schema.num_fields(); ++c) {
      if (schema.field(c).kind == AttributeKind::kNumerical &&
          original.column(c).null_count() == original.column(c).size()) {
        skip = true;
      }
    }
    if (skip) continue;

    GrrOptions options;
    options.ensure_domain_preserved = false;  // Tiny random tables.
    auto grr = ApplyGrr(original, GrrParams::Uniform(0.2, 1.0), options,
                        rng);
    ASSERT_TRUE(grr.ok()) << grr.status().ToString();

    std::string dir = base + "_" + std::to_string(trial);
    ExpectBitExactRoundTrip(grr->table, grr->metadata, dir);

    // Query estimates identical through the loaded table.
    std::filesystem::remove_all(dir);
    ASSERT_TRUE(WriteRelease(*grr, dir).ok());
    auto pt_orig = PrivateTable::FromPrivateRelation(grr->table.Clone(),
                                                     grr->metadata);
    auto pt_loaded = OpenRelease(dir);
    ASSERT_TRUE(pt_orig.ok());
    ASSERT_TRUE(pt_loaded.ok());
    const Field& first = schema.field(0);
    const Domain& domain =
        grr->metadata.discrete.at(first.name).domain;
    Predicate pred = Predicate::Equals(first.name, domain.value(0));
    auto r_orig = pt_orig->Count(pred);
    auto r_loaded = pt_loaded->Count(pred);
    ASSERT_TRUE(r_orig.ok());
    ASSERT_TRUE(r_loaded.ok());
    EXPECT_DOUBLE_EQ(r_orig->estimate, r_loaded->estimate);
    std::filesystem::remove_all(dir);
  }

  // Dictionary sizes on both sides of every code-width change (u8 holds
  // 256 entries, u16 65536).
  for (size_t entries : {255, 256, 257, 65535, 65536, 65537}) {
    SCOPED_TRACE("dictionary of " + std::to_string(entries));
    Table table = WideDictionaryTable(entries);
    ExpectBitExactRoundTrip(table, CoveringMetadata(table),
                            base + "_wide" + std::to_string(entries));
  }

  // Hostile strings (NULL beside "", line breaks, CSV metacharacters,
  // the \N literal, NUL bytes), special doubles, extreme int64s, and
  // int64/double discrete attributes with NULL in their domains.
  const double kSpecial[] = {-0.0,
                             0.0,
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             1e-310};
  // Value equality merges -0.0 into 0.0 and never matches NaN, so a
  // discrete double attribute takes only the other specials.
  const double kDiscrete[] = {-0.0, 0.5, std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::denorm_min()};
  const std::string kStrings[] = {"",   std::string("a\0b", 3), "\n", "\r\n",
                                  ",",  "\"",                   "\\N",
                                  std::string(1, '\0')};
  Schema schema = *Schema::Make(
      {Field::Discrete("s"),
       Field{"di", ValueType::kInt64, AttributeKind::kDiscrete},
       Field{"dd", ValueType::kDouble, AttributeKind::kDiscrete},
       Field::Numerical("x", ValueType::kDouble),
       Field::Numerical("n", ValueType::kInt64)});
  const size_t kEdgeRows = 40000;  // several shards at 2 and 8 threads
  for (size_t rows : {size_t{0}, size_t{1}, size_t{2}, kEdgeRows}) {
    SCOPED_TRACE(std::to_string(rows) + " rows");
    TableBuilder b(schema);
    for (size_t r = 0; r < rows; ++r) {
      const bool null = r % 9 == 1;
      b.Row({null ? Value::Null() : Value(kStrings[r % 8]),
             r % 7 == 3 ? Value::Null()
                        : Value(r % 2 ? std::numeric_limits<int64_t>::min()
                                      : std::numeric_limits<int64_t>::max()),
             r % 5 == 2 ? Value::Null() : Value(kDiscrete[r % 5]),
             r % 11 == 4 ? Value::Null() : Value(kSpecial[(r + 3) % 8]),
             r % 13 == 5 ? Value::Null() : Value(static_cast<int64_t>(r) - 7)});
    }
    Table table = *b.Finish();
    PrivateRelationMetadata metadata = CoveringMetadata(table);
    metadata.numeric.at("x").sensitivity = -0.0;
    metadata.numeric.at("n").b = std::numeric_limits<double>::denorm_min();
    // A domain value no row holds, and so absent from the dictionary.
    std::vector<Value> values = metadata.discrete.at("s").domain.values();
    values.push_back(Value("only in the domain"));
    values.push_back(Value::Null());
    metadata.discrete.at("s").domain = Domain::FromValues(values);
    ExpectBitExactRoundTrip(table, metadata,
                            base + "_edge" + std::to_string(rows));
  }
}

TEST(ReleaseFuzzTest, ParallelReleaseRoundTripMatchesSerial) {
  // The sharded payload writer/reader must put the same bytes on disk
  // and read back the same relation as the serial one for random
  // adversarial schemas and null-heavy columns.
  std::string base = ::testing::TempDir() + "/pclean_release_par";
  ExecutionOptions exec8;
  exec8.num_threads = 8;
  for (int trial = 0; trial < 10; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Rng rng(3000 + trial);
    Schema schema = RandomSchema(rng);
    TableBuilder b(schema);
    size_t rows = 20 + rng.UniformInt(80);
    for (size_t r = 0; r < rows; ++r) {
      std::vector<Value> row;
      for (size_t c = 0; c < schema.num_fields(); ++c) {
        row.push_back(RandomCell(schema.field(c), rng));
      }
      b.Row(std::move(row));
    }
    Table original = *b.Finish();

    std::string dir_serial = base + "_s_" + std::to_string(trial);
    std::string dir_parallel = base + "_p_" + std::to_string(trial);
    std::filesystem::remove_all(dir_serial);
    std::filesystem::remove_all(dir_parallel);

    // Write the raw table as a release relation: fabricate metadata that
    // covers every attribute (the round trip only needs the schema).
    PrivateRelationMetadata metadata = CoveringMetadata(original);
    ASSERT_TRUE(WriteRelease(original, metadata, dir_serial).ok());
    ASSERT_TRUE(WriteRelease(original, metadata, dir_parallel, exec8).ok());

    // Identical bytes on disk, every file.
    EXPECT_EQ(DirectoryBytes(dir_parallel), DirectoryBytes(dir_serial));

    // Identical relations back, in all four write/read combinations.
    auto serial_serial = ReadRelease(dir_serial);
    auto serial_parallel = ReadRelease(dir_serial, exec8);
    auto parallel_parallel = ReadRelease(dir_parallel, exec8);
    ASSERT_TRUE(serial_serial.ok()) << serial_serial.status().ToString();
    ASSERT_TRUE(serial_parallel.ok());
    ASSERT_TRUE(parallel_parallel.ok());
    for (const auto* loaded :
         {&*serial_serial, &*serial_parallel, &*parallel_parallel}) {
      ASSERT_TRUE(loaded->relation.schema() == original.schema());
      ASSERT_EQ(loaded->relation.num_rows(), original.num_rows());
      for (size_t r = 0; r < original.num_rows(); ++r) {
        for (size_t c = 0; c < original.num_columns(); ++c) {
          ASSERT_EQ(loaded->relation.column(c).ValueAt(r),
                    original.column(c).ValueAt(r))
              << "row " << r << " col " << c;
        }
      }
    }
    std::filesystem::remove_all(dir_serial);
    std::filesystem::remove_all(dir_parallel);
  }
}

bool RelationEquals(const Table& loaded, const Table& original) {
  if (!(loaded.schema() == original.schema()) ||
      loaded.num_rows() != original.num_rows()) {
    return false;
  }
  for (size_t r = 0; r < original.num_rows(); ++r) {
    for (size_t c = 0; c < original.num_columns(); ++c) {
      if (!(loaded.column(c).ValueAt(r) == original.column(c).ValueAt(r))) {
        return false;
      }
    }
  }
  return true;
}

/// Rewrites the MANIFEST body line by line through `edit` (return the
/// new line, or "" to drop it) and recomputes its self-checksum.
void ResealManifest(const std::string& dir,
                    const std::function<std::string(const std::string&)>& edit) {
  const std::string manifest = Slurp(dir + "/MANIFEST");
  const size_t trailer = manifest.rfind("\nmanifest_crc: ");
  ASSERT_NE(trailer, std::string::npos);
  std::string out;
  std::istringstream lines(manifest.substr(0, trailer + 1));
  for (std::string line; std::getline(lines, line);) {
    line = edit(line);
    if (!line.empty()) out += line + "\n";
  }
  out += "manifest_crc: " + io::Crc32cToHex(io::Crc32c(out)) + "\n";
  Spit(dir + "/MANIFEST", out);
}

/// Replaces payload file `name` with `bytes` and reseals its `file:`
/// line and the MANIFEST checksum, so only the decoder's own validation
/// can catch the edit.
void ResealFile(const std::string& dir, const std::string& name,
                const std::string& bytes) {
  Spit(dir + "/" + name, bytes);
  ResealManifest(dir, [&](const std::string& line) {
    if (line.rfind("file: ", 0) == 0 &&
        line.substr(line.rfind(' ') + 1) == name) {
      return "file: " + io::Crc32cToHex(io::Crc32c(bytes)) + " " +
             std::to_string(bytes.size()) + " " + name;
    }
    return line;
  });
}

/// A read of a damaged release must fail DataLoss naming `file` or load
/// the original relation; VerifyRelease must flag it the same way.
void ExpectCaughtOrIntact(const std::string& dir, const std::string& file,
                          const Table& original) {
  auto read = ReadRelease(dir);
  if (read.ok()) {
    EXPECT_TRUE(RelationEquals(read->relation, original));
    return;
  }
  EXPECT_TRUE(read.status().IsDataLoss()) << read.status().ToString();
  EXPECT_NE(read.status().message().find(file), std::string::npos)
      << read.status().ToString();
  auto verification = VerifyRelease(dir);
  const Status& st =
      verification.ok() ? verification->status : verification.status();
  EXPECT_TRUE(st.IsDataLoss()) << st.ToString();
  EXPECT_NE(st.message().find(file), std::string::npos) << st.ToString();
}

TEST(ReleaseFuzzTest, ByteLevelCorruptionNeverPassesUnnoticed) {
  // Random byte-level damage — bit flips, truncations, byte-range
  // deletions, whole-file deletion, and truncations resealed into the
  // MANIFEST — applied to a pristine release. Every damaged copy must
  // either fail typed (DataLoss / NotFound / FailedPrecondition /
  // IOError) or load the exact original relation; an OK load with
  // different data, or a crash, is a contract breach. VerifyRelease must
  // flag every damaged copy.
  std::string base = ::testing::TempDir() + "/pclean_release_corrupt";
  std::filesystem::remove_all(base);
  std::filesystem::create_directories(base);

  Rng setup_rng(7777);
  Schema schema = RandomSchema(setup_rng);
  TableBuilder b(schema);
  for (size_t r = 0; r < 60; ++r) {
    std::vector<Value> row;
    for (size_t c = 0; c < schema.num_fields(); ++c) {
      row.push_back(RandomCell(schema.field(c), setup_rng));
    }
    b.Row(std::move(row));
  }
  Table original = *b.Finish();
  const std::string pristine = base + "/pristine";
  ASSERT_TRUE(WriteRelease(original, CoveringMetadata(original), pristine).ok());

  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(pristine)) {
    files.push_back(entry.path().filename().string());
  }
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 3u);

  for (int trial = 0; trial < 80; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Rng rng(4000 + trial);
    const std::string dir = base + "/t" + std::to_string(trial);
    std::filesystem::remove_all(dir);
    std::filesystem::copy(pristine, dir);

    const std::string& victim = files[rng.UniformInt(files.size())];
    const std::string victim_path = dir + "/" + victim;
    std::string bytes = Slurp(victim_path);
    const size_t mutation = rng.UniformInt(5);
    if (victim == "MANIFEST" && mutation == 4) continue;  // nothing to reseal
    if (bytes.empty() && mutation != 3) continue;
    switch (mutation) {
      case 0: {  // single bit flip
        size_t offset = rng.UniformInt(bytes.size());
        bytes[offset] ^= static_cast<char>(1u << rng.UniformInt(8));
        Spit(victim_path, bytes);
        break;
      }
      case 1: {  // truncation
        Spit(victim_path, bytes.substr(0, rng.UniformInt(bytes.size())));
        break;
      }
      case 2: {  // byte-range deletion
        size_t from = rng.UniformInt(bytes.size());
        size_t len = 1 + rng.UniformInt(bytes.size() - from);
        Spit(victim_path, bytes.erase(from, len));
        break;
      }
      case 3:  // whole-file deletion
        std::filesystem::remove(victim_path);
        break;
      default:  // truncation, resealed: only the decoder can catch it
        ResealFile(dir, victim, bytes.substr(0, rng.UniformInt(bytes.size())));
        break;
    }

    auto read = ReadRelease(dir);
    if (read.ok()) {
      // Loading successfully is only acceptable if the data is exactly
      // the original — which the checksums and the decoder's length
      // checks make all but impossible for a damaged payload.
      EXPECT_TRUE(RelationEquals(read->relation, original));
    } else {
      const Status& st = read.status();
      EXPECT_TRUE(st.IsDataLoss() || st.IsNotFound() || st.IsIOError() ||
                  st.IsFailedPrecondition())
          << st.ToString();
      if (mutation == 4) {
        EXPECT_TRUE(st.IsDataLoss()) << st.ToString();
        EXPECT_NE(st.message().find(victim), std::string::npos)
            << st.ToString();
      }
    }

    // Strict verification must reject every damaged copy.
    auto verification = VerifyRelease(dir);
    if (verification.ok()) {
      EXPECT_FALSE(verification->status.ok()) << victim;
    } else {
      const Status& st = verification.status();
      EXPECT_TRUE(st.IsDataLoss() || st.IsNotFound() ||
                  st.IsFailedPrecondition() || st.IsIOError())
          << st.ToString();
    }
    std::filesystem::remove_all(dir);
  }

  // Targeted resealed edits: each leaves every checksum consistent, so
  // the bind's own validation is what must catch it. The relation is
  // city (string, 3 entries), grade (int64 discrete), income (double).
  Schema fixed = *Schema::Make(
      {Field::Discrete("city"),
       Field{"grade", ValueType::kInt64, AttributeKind::kDiscrete},
       Field::Numerical("income", ValueType::kDouble)});
  TableBuilder fb(fixed);
  const char* cities[] = {"Oslo", "Quito", "Chicago, IL"};
  for (int r = 0; r < 20; ++r) {
    fb.Row({r % 6 == 5 ? Value::Null() : Value(cities[r % 3]),
            Value(static_cast<int64_t>(r % 4)), Value(r * 1.5)});
  }
  Table relation = *fb.Finish();
  const std::string sealed = base + "/sealed";
  ASSERT_TRUE(WriteRelease(relation, CoveringMetadata(relation), sealed).ok());
  // column_0.bin: 3-byte bitmap, then 20 one-byte codes. domain_0.bin:
  // u32 count, 3 length-prefixed entries, then the 4-value domain as a
  // bitmap byte and four one-byte codes.
  const std::string city = Slurp(sealed + "/column_0.bin");
  const std::string dict = Slurp(sealed + "/domain_0.bin");
  ASSERT_EQ(city.size(), 3u + 20);
  ASSERT_EQ(dict.size(), 4u + (4 + 4) + (4 + 5) + (4 + 11) + 1 + 4);
  struct Case {
    std::string name;
    std::string file;  ///< the file the error must name
    std::function<void(const std::string& dir)> damage;
  };
  const std::vector<Case> cases = {
      {"code beyond the dictionary", "column_0.bin",
       [&](const std::string& dir) {
         std::string b = city;
         b[3] = 3;  // row 0 is valid; the dictionary has 3 entries
         ResealFile(dir, "column_0.bin", b);
       }},
      {"short payload", "column_2.bin",
       [&](const std::string& dir) {
         std::string b = Slurp(dir + "/column_2.bin");
         ResealFile(dir, "column_2.bin", b.substr(0, b.size() - 1));
       }},
      {"long payload", "column_1.bin",
       [&](const std::string& dir) {
         ResealFile(dir, "column_1.bin",
                    Slurp(dir + "/column_1.bin") + std::string(8, '\0'));
       }},
      {"duplicate dictionary entry", "domain_0.bin",
       [&](const std::string& dir) {
         std::string b = dict;
         b.replace(4 + 8 + 4, 5, "Oslo\0", 5);  // "Quito" → "Oslo\0"
         b[4 + 8] = 4;                           // ... of length 4
         b.erase(4 + 8 + 4 + 4, 1);
         ResealFile(dir, "domain_0.bin", b);
       }},
      {"domain index out of range", "domain_0.bin",
       [&](const std::string& dir) {
         std::string b = dict;
         b[b.size() - 4] = 7;  // the first domain value's code
         ResealFile(dir, "domain_0.bin", b);
       }},
      {"domain size mismatch", "domain_1.bin",
       [&](const std::string& dir) {
         ResealManifest(dir, [](const std::string& line) {
           const std::string suffix = " 4 0 grade";
           if (line.rfind("column: ", 0) == 0 && line.size() > suffix.size() &&
               line.substr(line.size() - suffix.size()) == suffix) {
             return line.substr(0, line.size() - suffix.size()) + " 5 0 grade";
           }
           return line;
         });
       }},
      {"dropped file line", "domain_0.bin",
       [&](const std::string& dir) {
         ResealManifest(dir, [](const std::string& line) {
           return line.rfind("file: ", 0) == 0 &&
                          line.substr(line.rfind(' ') + 1) == "domain_0.bin"
                      ? std::string()
                      : line;
         });
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string dir = base + "/sealed_case";
    std::filesystem::remove_all(dir);
    std::filesystem::copy(sealed, dir);
    c.damage(dir);
    auto read = ReadRelease(dir);
    ASSERT_FALSE(read.ok()) << "the edit went unnoticed";
    ExpectCaughtOrIntact(dir, c.file, relation);
  }
  std::filesystem::remove_all(base);
}

}  // namespace
}  // namespace privateclean
