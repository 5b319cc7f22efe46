#include "core/release.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <optional>

#include "cleaning/merge.h"
#include "core/sql_execution.h"
#include "common/io_util.h"
#include "common/random.h"
#include "datagen/synthetic.h"
#include "table/table_builder.h"

namespace privateclean {
namespace {

class ReleaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/pclean_release_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

GrrOutput MakeGrr(uint64_t seed = 3) {
  Schema s = *Schema::Make(
      {Field::Discrete("major"),
       Field{"section", ValueType::kInt64, AttributeKind::kDiscrete},
       Field::Numerical("score", ValueType::kDouble)});
  TableBuilder b(s);
  const char* majors[] = {"EECS", "Math, Applied", "Bio\"x\"", "Physics"};
  for (int i = 0; i < 200; ++i) {
    Value major = (i % 17 == 0) ? Value::Null() : Value(majors[i % 4]);
    b.Row({major, Value(i % 5), Value(static_cast<double>(i % 10))});
  }
  Table t = *b.Finish();
  Rng rng(seed);
  return *ApplyGrr(t, GrrParams::Uniform(0.2, 1.5), GrrOptions{}, rng);
}

TEST_F(ReleaseTest, RoundTripsRelationExactly) {
  GrrOutput grr = MakeGrr();
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  LoadedRelease loaded = *ReadRelease(dir_);
  ASSERT_EQ(loaded.relation.num_rows(), grr.table.num_rows());
  ASSERT_TRUE(loaded.relation.schema() == grr.table.schema());
  for (size_t r = 0; r < grr.table.num_rows(); ++r) {
    for (size_t c = 0; c < grr.table.num_columns(); ++c) {
      EXPECT_EQ(loaded.relation.column(c).ValueAt(r),
                grr.table.column(c).ValueAt(r))
          << "row " << r << " col " << c;
    }
  }
}

TEST_F(ReleaseTest, RoundTripsMetadata) {
  GrrOutput grr = MakeGrr();
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  LoadedRelease loaded = *ReadRelease(dir_);
  EXPECT_EQ(loaded.metadata.dataset_size, grr.metadata.dataset_size);
  ASSERT_EQ(loaded.metadata.discrete.size(), 2u);
  ASSERT_EQ(loaded.metadata.numeric.size(), 1u);
  for (const auto& [name, meta] : grr.metadata.discrete) {
    const auto& loaded_meta = loaded.metadata.discrete.at(name);
    EXPECT_DOUBLE_EQ(loaded_meta.p, meta.p);
    ASSERT_EQ(loaded_meta.domain.size(), meta.domain.size());
    for (size_t i = 0; i < meta.domain.size(); ++i) {
      EXPECT_EQ(loaded_meta.domain.value(i), meta.domain.value(i));
    }
  }
  EXPECT_DOUBLE_EQ(loaded.metadata.numeric.at("score").b,
                   grr.metadata.numeric.at("score").b);
  EXPECT_DOUBLE_EQ(loaded.metadata.numeric.at("score").sensitivity,
                   grr.metadata.numeric.at("score").sensitivity);
}

TEST_F(ReleaseTest, NullDomainValueSurvives) {
  GrrOutput grr = MakeGrr();
  ASSERT_TRUE(
      grr.metadata.discrete.at("major").domain.Contains(Value::Null()));
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  LoadedRelease loaded = *ReadRelease(dir_);
  EXPECT_TRUE(
      loaded.metadata.discrete.at("major").domain.Contains(Value::Null()));
}

TEST_F(ReleaseTest, NullAndEmptyStringDistinctAfterRoundTrip) {
  // NULL lives in the validity bitmap, so a NULL string entry and the
  // empty string stay distinct through a release round trip — including
  // the `\N` literal CSV exports use for NULL, as a value.
  Schema s = *Schema::Make({Field::Discrete("tag"),
                            Field::Numerical("x", ValueType::kDouble)});
  TableBuilder b(s);
  b.Row({Value::Null(), Value(1.0)});
  b.Row({Value(""), Value(2.0)});
  b.Row({Value("\\N"), Value(3.0)});  // The literal itself, as a value.
  b.Row({Value("plain"), Value(4.0)});
  Table t = *b.Finish();
  Rng rng(1);
  // p = 0, b = 0: the private relation equals the original, so
  // cell-level expectations are deterministic.
  GrrOutput grr = *ApplyGrr(t, GrrParams::Uniform(0.0, 0.0), GrrOptions{},
                            rng);
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  LoadedRelease loaded = *ReadRelease(dir_);
  const Column& tag = loaded.relation.column(0);
  EXPECT_TRUE(tag.ValueAt(0).is_null());
  EXPECT_EQ(tag.ValueAt(1), Value(""));
  EXPECT_EQ(tag.ValueAt(2), Value("\\N"));
  EXPECT_EQ(tag.ValueAt(3), Value("plain"));
  EXPECT_EQ(tag.null_count(), 1u);
}

TEST_F(ReleaseTest, OpenReleaseProducesQueryablePrivateTable) {
  GrrOutput grr = MakeGrr();
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  PrivateTable pt = *OpenRelease(dir_);
  EXPECT_EQ(pt.size(), 200u);
  Predicate pred = Predicate::Equals("major", "EECS");
  QueryResult r = *pt.Count(pred);
  EXPECT_DOUBLE_EQ(r.p, 0.2);
  EXPECT_DOUBLE_EQ(r.n, 5.0);  // 4 majors + null.
  // Estimates agree with a PrivateTable built in-process from the same
  // private relation and metadata.
  PrivateTable direct = *PrivateTable::FromPrivateRelation(
      grr.table.Clone(), grr.metadata);
  EXPECT_DOUBLE_EQ(r.estimate, direct.Count(pred)->estimate);
}

TEST_F(ReleaseTest, LoadedTableSupportsCleaning) {
  GrrOutput grr = MakeGrr();
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  PrivateTable pt = *OpenRelease(dir_);
  ASSERT_TRUE(pt.Clean(FindReplace::Single("major", Value("Math, Applied"),
                                           Value("Math")))
                  .ok());
  QueryResult r = *pt.Count(Predicate::Equals("major", "Math"));
  EXPECT_DOUBLE_EQ(r.l, 1.0);  // Pure rename: one dirty parent.
  EXPECT_DOUBLE_EQ(r.n, 5.0);
}

TEST_F(ReleaseTest, EpsilonAccountingSurvivesRoundTrip) {
  GrrOutput grr = MakeGrr();
  double eps_before = AccountPrivacy(grr.metadata)->total_epsilon;
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  PrivateTable pt = *OpenRelease(dir_);
  EXPECT_NEAR(pt.PrivacyAccounting()->total_epsilon, eps_before, 1e-9);
}

TEST_F(ReleaseTest, ReadMissingDirectoryFails) {
  auto r = ReadRelease(dir_ + "_nonexistent");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  // Without its MANIFEST a directory holds no release either: nothing is
  // left to check the payloads against, so neither reading nor
  // verification loads them unchecked.
  ASSERT_TRUE(WriteRelease(MakeGrr(), dir_).ok());
  std::filesystem::remove(dir_ + "/MANIFEST");
  auto read = ReadRelease(dir_);
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsNotFound()) << read.status().ToString();
  EXPECT_NE(read.status().message().find("contains no release"),
            std::string::npos);
  auto verification = VerifyRelease(dir_);
  ASSERT_FALSE(verification.ok());
  EXPECT_TRUE(verification.status().IsNotFound());
}

TEST_F(ReleaseTest, MissingDomainFileFails) {
  GrrOutput grr = MakeGrr();
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  std::filesystem::remove(dir_ + "/domain_0.bin");
  auto r = ReadRelease(dir_);
  ASSERT_FALSE(r.ok());
  // Listed in the MANIFEST but gone: unrecoverable, and the message
  // names the missing file.
  EXPECT_TRUE(r.status().IsDataLoss()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("domain_0.bin"), std::string::npos);
}

TEST_F(ReleaseTest, BitFlipInDataFileIsDataLossNamingTheFile) {
  ASSERT_TRUE(WriteRelease(MakeGrr(), dir_).ok());
  const std::string path = dir_ + "/column_0.bin";
  std::string bytes = *io::ReadFileToString(path);
  bytes[bytes.size() / 3] ^= 0x40;
  ASSERT_TRUE(io::WriteFileDurable(path, bytes).ok());
  // Re-writing a payload alone desyncs it from the MANIFEST checksum.
  auto r = ReadRelease(dir_);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDataLoss()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("column_0.bin"), std::string::npos);
  EXPECT_NE(r.status().message().find("checksum mismatch"),
            std::string::npos);
}

TEST_F(ReleaseTest, TruncatedDataFileIsDataLossWithByteCounts) {
  ASSERT_TRUE(WriteRelease(MakeGrr(), dir_).ok());
  const std::string path = dir_ + "/column_2.bin";
  std::string bytes = *io::ReadFileToString(path);
  const size_t cut = bytes.size() / 2;
  ASSERT_TRUE(io::WriteFileDurable(path, bytes.substr(0, cut)).ok());
  auto r = ReadRelease(dir_);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDataLoss()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("column_2.bin"), std::string::npos);
  EXPECT_NE(r.status().message().find(std::to_string(cut)),
            std::string::npos);
}

TEST_F(ReleaseTest, CorruptManifestIsDataLoss) {
  ASSERT_TRUE(WriteRelease(MakeGrr(), dir_).ok());
  const std::string path = dir_ + "/MANIFEST";
  std::string bytes = *io::ReadFileToString(path);
  bytes[bytes.size() / 2] ^= 0x01;
  ASSERT_TRUE(io::WriteFileDurable(path, bytes).ok());
  auto r = ReadRelease(dir_);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDataLoss()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("MANIFEST"), std::string::npos);
}

TEST_F(ReleaseTest, OverwriteSwapsAtomicallyToTheNewRelease) {
  GrrOutput first = MakeGrr(3);
  GrrOutput second = MakeGrr(7);
  ASSERT_TRUE(WriteRelease(first, dir_).ok());
  ASSERT_TRUE(WriteRelease(second, dir_).ok());
  LoadedRelease loaded = *ReadRelease(dir_);
  ASSERT_EQ(loaded.relation.num_rows(), second.table.num_rows());
  bool any_diff = false;
  for (size_t r = 0; r < loaded.relation.num_rows() && !any_diff; ++r) {
    if (!(loaded.relation.column(0).ValueAt(r) ==
          first.table.column(0).ValueAt(r))) {
      any_diff = true;
    }
  }
  for (size_t r = 0; r < loaded.relation.num_rows(); ++r) {
    EXPECT_EQ(loaded.relation.column(0).ValueAt(r),
              second.table.column(0).ValueAt(r));
  }
  EXPECT_TRUE(any_diff) << "seeds 3 and 7 should randomize differently";
  // No staging or backup siblings of THIS release survive a successful
  // swap. Staging dirs are named "<release>.tmp.<suffix>" /
  // "<release>.old.<suffix>", so scope the scan to our own basename —
  // the temp root is shared with concurrently running tests whose
  // in-flight staging dirs are not our business.
  const std::string base = std::filesystem::path(dir_).filename().string();
  size_t entries = 0;
  for (auto it = std::filesystem::directory_iterator(
           std::filesystem::path(dir_).parent_path());
       it != std::filesystem::directory_iterator(); ++it) {
    std::string name = it->path().filename().string();
    if (name.rfind(base, 0) != 0) continue;
    EXPECT_EQ(name.find(".tmp."), std::string::npos) << name;
    EXPECT_EQ(name.find(".old."), std::string::npos) << name;
    ++entries;
  }
  EXPECT_GE(entries, 1u);
}

TEST_F(ReleaseTest, WriteRefusesNonReleaseDirectory) {
  std::filesystem::create_directories(dir_);
  ASSERT_TRUE(io::WriteFileDurable(dir_ + "/precious.txt", "keep me\n").ok());
  Status st = WriteRelease(MakeGrr(), dir_);
  ASSERT_TRUE(st.IsAlreadyExists()) << st.ToString();
  // The directory and its contents are untouched.
  auto kept = io::ReadFileToString(dir_ + "/precious.txt");
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept.ValueOrDie(), "keep me\n");
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/MANIFEST"));
}

TEST_F(ReleaseTest, WriteRefusesPlainFileTarget) {
  ASSERT_TRUE(io::WriteFileDurable(dir_, "not a directory\n").ok());
  Status st = WriteRelease(MakeGrr(), dir_);
  EXPECT_TRUE(st.IsAlreadyExists()) << st.ToString();
  auto kept = io::ReadFileToString(dir_);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept.ValueOrDie(), "not a directory\n");
}

TEST_F(ReleaseTest, WriteReplacesEmptyDirectory) {
  std::filesystem::create_directories(dir_);
  GrrOutput grr = MakeGrr();
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  LoadedRelease loaded = *ReadRelease(dir_);
  EXPECT_EQ(loaded.relation.num_rows(), grr.table.num_rows());
}

TEST_F(ReleaseTest, VerifyReleaseReportsPerFileResults) {
  ASSERT_TRUE(WriteRelease(MakeGrr(), dir_).ok());
  auto ok_verification = VerifyRelease(dir_);
  ASSERT_TRUE(ok_verification.ok()) << ok_verification.status().ToString();
  EXPECT_TRUE(ok_verification->status.ok());
  EXPECT_EQ(ok_verification->rows, 200u);
  // A payload per attribute, plus the two discrete attributes' domains.
  ASSERT_EQ(ok_verification->files.size(), 5u);
  for (const ReleaseFileCheck& check : ok_verification->files) {
    EXPECT_TRUE(check.status.ok()) << check.file;
    EXPECT_GT(check.bytes, 0u) << check.file;
  }

  // Corrupt one domain file: its check fails, the others stay OK.
  const std::string path = dir_ + "/domain_0.bin";
  std::string bytes = *io::ReadFileToString(path);
  bytes[0] ^= 0x02;
  ASSERT_TRUE(io::WriteFileDurable(path, bytes).ok());
  auto verification = VerifyRelease(dir_);
  ASSERT_TRUE(verification.ok()) << verification.status().ToString();
  EXPECT_TRUE(verification->status.IsDataLoss());
  bool found = false;
  for (const ReleaseFileCheck& check : verification->files) {
    if (check.file == "domain_0.bin") {
      found = true;
      EXPECT_TRUE(check.status.IsDataLoss());
    } else {
      EXPECT_TRUE(check.status.ok()) << check.file;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ReleaseTest, WriteRejectsIncompleteMetadata) {
  GrrOutput grr = MakeGrr();
  grr.metadata.discrete.erase("major");
  Status st = WriteRelease(grr, dir_);
  EXPECT_TRUE(st.IsInvalidArgument());
}

TEST_F(ReleaseTest, FromPrivateRelationRejectsUncoveredAttribute) {
  GrrOutput grr = MakeGrr();
  PrivateRelationMetadata meta = grr.metadata;
  meta.numeric.erase("score");
  auto r = PrivateTable::FromPrivateRelation(grr.table.Clone(), meta);
  EXPECT_FALSE(r.ok());
}

// --- Dictionary files -----------------------------------------------------

/// Rewrites one payload file and patches the MANIFEST (file line and
/// self-checksum) so the release stays checksum-consistent — simulating
/// a writer that produced `content` for `name`, so only the decoder's
/// own validation stands between the bytes and the analyst. Pass an
/// empty optional to delete the file and drop its manifest line.
void RewriteReleaseFile(const std::string& dir, const std::string& name,
                        const std::optional<std::string>& content) {
  if (content.has_value()) {
    ASSERT_TRUE(io::WriteFileDurable(dir + "/" + name, *content).ok());
  } else {
    std::filesystem::remove(dir + "/" + name);
  }
  std::string manifest = *io::ReadFileToString(dir + "/MANIFEST");
  size_t trailer = manifest.rfind("\nmanifest_crc: ");
  ASSERT_NE(trailer, std::string::npos);
  std::string body = manifest.substr(0, trailer + 1);
  std::string out;
  size_t pos = 0;
  while (pos < body.size()) {
    size_t eol = body.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);
    std::string line = body.substr(pos, eol - pos);
    pos = eol + 1;
    const bool is_target = line.rfind("file: ", 0) == 0 &&
                           line.size() > name.size() &&
                           line.compare(line.size() - name.size() - 1,
                                        name.size() + 1, " " + name) == 0;
    if (!is_target) {
      out += line + "\n";
    } else if (content.has_value()) {
      out += "file: " + io::Crc32cToHex(io::Crc32c(*content)) + " " +
             std::to_string(content->size()) + " " + name + "\n";
    }  // else: drop the line.
  }
  out += "manifest_crc: " + io::Crc32cToHex(io::Crc32c(out)) + "\n";
  ASSERT_TRUE(io::WriteFileDurable(dir + "/MANIFEST", out).ok());
}

TEST_F(ReleaseTest, DictionaryFilesAreWrittenAndManifestListed) {
  GrrOutput grr = MakeGrr();
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  // Each discrete attribute has a domain file; only the string-typed
  // "major" opens it with a dictionary (u32 count, then length-prefixed
  // entries). int64 "section" holds just its 5-value domain payload:
  // one bitmap byte and 8 bytes per value.
  const std::string dict = *io::ReadFileToString(dir_ + "/domain_0.bin");
  const size_t entries = grr.table.column(0).dictionary().size();
  ASSERT_GE(dict.size(), 4u);
  EXPECT_EQ(static_cast<unsigned char>(dict[0]), entries);
  EXPECT_EQ(io::ReadFileToString(dir_ + "/domain_1.bin")->size(), 1u + 5 * 8);
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/domain_2.bin"));
  std::string manifest = *io::ReadFileToString(dir_ + "/MANIFEST");
  EXPECT_NE(manifest.find(" domain_0.bin\n"), std::string::npos);
  EXPECT_NE(manifest.find(" domain_1.bin\n"), std::string::npos);
}

TEST_F(ReleaseTest, RoundTripRestoresWriterDictionaryCodeOrder) {
  GrrOutput grr = MakeGrr();
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  LoadedRelease loaded = *ReadRelease(dir_);
  const Column& written = grr.table.column(0);
  const Column& read = loaded.relation.column(0);
  // Not just value-equal: the dictionary (including interned-but-unused
  // entries) and every per-row code must match the writer's exactly.
  ASSERT_EQ(read.dictionary().size(), written.dictionary().size());
  for (uint32_t c = 0; c < written.dictionary().size(); ++c) {
    EXPECT_EQ(read.dictionary().At(c), written.dictionary().At(c))
        << "code " << c;
  }
  ASSERT_EQ(read.codes().size(), written.codes().size());
  for (size_t r = 0; r < written.codes().size(); ++r) {
    EXPECT_EQ(read.CodeAt(r), written.CodeAt(r)) << "row " << r;
  }
}

TEST_F(ReleaseTest, DictionaryMissingUsedValueIsDataLoss) {
  GrrOutput grr = MakeGrr();
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  // A consistent-looking domain file whose dictionary has one entry,
  // while the MANIFEST gives the column four: checksums pass, the bind
  // must fail rather than leave codes naming missing entries.
  const std::string entry = "not_a_real_major";
  std::string file(4, '\0');
  file[0] = 1;
  file += std::string(1, static_cast<char>(entry.size())) +
          std::string(3, '\0') + entry;
  file += std::string(1 + 5, '\0');  // the 5-value domain, all NULL
  RewriteReleaseFile(dir_, "domain_0.bin", file);
  auto r = ReadRelease(dir_);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDataLoss()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("domain_0.bin"), std::string::npos);
  EXPECT_NE(r.status().message().find("dictionary entries"),
            std::string::npos);
}

TEST_F(ReleaseTest, NullEntryInDictionaryFileIsDataLoss) {
  GrrOutput grr = MakeGrr();
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  // The domain of "major" is NULL then four majors, stored after the
  // dictionary as one bitmap byte and five 1-byte codes. Clearing the
  // second value's validity bit lists NULL twice.
  std::string file = *io::ReadFileToString(dir_ + "/domain_0.bin");
  ASSERT_EQ(file[file.size() - 6], 0x1E);
  file[file.size() - 6] = 0x1C;
  RewriteReleaseFile(dir_, "domain_0.bin", file);
  auto r = ReadRelease(dir_);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDataLoss()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("domain_0.bin"), std::string::npos);
  EXPECT_NE(r.status().message().find("twice"), std::string::npos);
}

TEST_F(ReleaseTest, BitFlipInDictionaryFileIsDataLossNamingTheFile) {
  ASSERT_TRUE(WriteRelease(MakeGrr(), dir_).ok());
  const std::string path = dir_ + "/domain_0.bin";
  std::string bytes = *io::ReadFileToString(path);
  bytes[bytes.size() / 2] ^= 0x20;
  ASSERT_TRUE(io::WriteFileDurable(path, bytes).ok());
  auto r = ReadRelease(dir_);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDataLoss()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("domain_0.bin"), std::string::npos);
}

TEST_F(ReleaseTest, NullLiteralRowsRoundTripThroughDictionary) {
  // MakeGrr's relation mixes NULL rows with strings holding commas and
  // quotes; after the round trip the validity bits and the null count
  // must be exact.
  GrrOutput grr = MakeGrr();
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  LoadedRelease loaded = *ReadRelease(dir_);
  EXPECT_EQ(loaded.relation.column(0).null_count(),
            grr.table.column(0).null_count());
  for (size_t r = 0; r < grr.table.num_rows(); ++r) {
    EXPECT_EQ(loaded.relation.column(0).IsNull(r),
              grr.table.column(0).IsNull(r))
        << "row " << r;
  }
}

// --- Mechanism identity (MANIFEST `mechanism:` line) ----------------------

GrrOutput MakeWithMechanism(MechanismFamily mechanism, double param,
                            uint64_t seed = 3) {
  Schema s = *Schema::Make(
      {Field::Discrete("major"),
       Field{"section", ValueType::kInt64, AttributeKind::kDiscrete},
       Field::Numerical("score", ValueType::kDouble)});
  TableBuilder b(s);
  const char* majors[] = {"EECS", "Math, Applied", "Bio\"x\"", "Physics"};
  for (int i = 0; i < 200; ++i) {
    Value major = (i % 17 == 0) ? Value::Null() : Value(majors[i % 4]);
    b.Row({major, Value(i % 5), Value(static_cast<double>(i % 10))});
  }
  Table t = *b.Finish();
  Rng rng(seed);
  GrrOptions options;
  options.mechanism = mechanism;
  return *ApplyGrr(t, GrrParams::Uniform(param, 1.5), options, rng);
}

/// Replaces the MANIFEST's `mechanism:` line with `line` and recomputes
/// the self-checksum so only the mechanism entry is under test, not the
/// CRC machinery.
void PatchManifestMechanism(const std::string& dir, const std::string& line) {
  std::string manifest = *io::ReadFileToString(dir + "/MANIFEST");
  size_t trailer = manifest.rfind("\nmanifest_crc: ");
  ASSERT_NE(trailer, std::string::npos);
  std::string body = manifest.substr(0, trailer + 1);
  std::string out;
  size_t pos = 0;
  bool replaced = false;
  while (pos < body.size()) {
    size_t eol = body.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);
    std::string l = body.substr(pos, eol - pos);
    pos = eol + 1;
    if (l.rfind("mechanism: ", 0) == 0) {
      replaced = true;
      out += line + "\n";
    } else {
      out += l + "\n";
    }
  }
  ASSERT_TRUE(replaced) << "MANIFEST carries no mechanism line";
  out += "manifest_crc: " + io::Crc32cToHex(io::Crc32c(out)) + "\n";
  ASSERT_TRUE(io::WriteFileDurable(dir + "/MANIFEST", out).ok());
}

TEST_F(ReleaseTest, ManifestRecordsMechanismIdentity) {
  ASSERT_TRUE(WriteRelease(MakeGrr(), dir_).ok());
  std::string manifest = *io::ReadFileToString(dir_ + "/MANIFEST");
  EXPECT_NE(manifest.find("mechanism: grr\n"), std::string::npos);
  LoadedRelease loaded = *ReadRelease(dir_);
  EXPECT_EQ(loaded.metadata.mechanism, MechanismFamily::kGrr);
}

TEST_F(ReleaseTest, RoundTripsHlmMechanismIdentity) {
  GrrOutput grr = MakeWithMechanism(MechanismFamily::kHlm, 1.2);
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  std::string manifest = *io::ReadFileToString(dir_ + "/MANIFEST");
  EXPECT_NE(manifest.find("mechanism: hlm\n"), std::string::npos);
  LoadedRelease loaded = *ReadRelease(dir_);
  EXPECT_EQ(loaded.metadata.mechanism, MechanismFamily::kHlm);
  for (const auto& [name, meta] : loaded.metadata.discrete) {
    EXPECT_DOUBLE_EQ(meta.p, 1.2) << name;
  }
  // The loaded release accounts and estimates exactly like the writer's
  // in-process metadata — the wrong-estimator failure mode the MANIFEST
  // line exists to prevent.
  EXPECT_NEAR(AccountPrivacy(loaded.metadata)->total_epsilon,
              AccountPrivacy(grr.metadata)->total_epsilon, 1e-9);
  PrivateTable pt = *OpenRelease(dir_);
  PrivateTable direct = *PrivateTable::FromPrivateRelation(
      grr.table.Clone(), grr.metadata);
  Predicate pred = Predicate::Equals("major", "EECS");
  EXPECT_DOUBLE_EQ(pt.Count(pred)->estimate, direct.Count(pred)->estimate);
}

TEST_F(ReleaseTest, UnknownMechanismNameInManifestIsFailedPrecondition) {
  ASSERT_TRUE(WriteRelease(MakeGrr(), dir_).ok());
  PatchManifestMechanism(dir_, std::string("mechanism: staircase"));
  auto r = ReadRelease(dir_);
  ASSERT_FALSE(r.ok());
  // A release written by a newer build: the data is intact, this build
  // just cannot decode it — FailedPrecondition, not DataLoss.
  EXPECT_TRUE(r.status().IsFailedPrecondition()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("staircase"), std::string::npos);
}

TEST_F(ReleaseTest, SamplingMechanismInManifestIsFailedPrecondition) {
  // The MANIFEST line an older build wrote for its subsample-then-
  // randomize family. This build supports only grr and hlm, so such a
  // release is from a build it cannot decode, not damaged.
  ASSERT_TRUE(WriteRelease(MakeGrr(), dir_).ok());
  PatchManifestMechanism(dir_, std::string("mechanism: sampling beta=0.5"));
  auto r = ReadRelease(dir_);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsFailedPrecondition()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("sampling"), std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("grr, hlm"), std::string::npos)
      << r.status().ToString();
}

TEST_F(ReleaseTest, TrailingTokensAfterMechanismNameAreDataLoss) {
  // A known family takes no parameters: anything after its name means
  // the entry is damaged.
  ASSERT_TRUE(WriteRelease(MakeGrr(), dir_).ok());
  PatchManifestMechanism(dir_, std::string("mechanism: grr beta=0.5"));
  auto r = ReadRelease(dir_);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDataLoss()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("MANIFEST"), std::string::npos)
      << r.status().ToString();
}

TEST_F(ReleaseTest, EndToEndProviderAnalystSeparation) {
  // Provider process: generate, privatize, write, forget.
  SyntheticOptions options;
  options.num_rows = 600;
  Rng data_rng(9);
  Table original = *GenerateSynthetic(options, data_rng);
  Predicate pred = Predicate::In(
      "category", {SyntheticCategory(0), SyntheticCategory(1)});
  double truth = *ExecuteAggregate(original, AggregateQuery::Count(pred));
  {
    Rng rng(10);
    GrrOutput grr = *ApplyGrr(original, GrrParams::Uniform(0.15, 5.0),
                              GrrOptions{}, rng);
    ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  }
  // Analyst process: open the release cold and query.
  PrivateTable pt = *OpenRelease(dir_);
  QueryResult r = *pt.Count(pred);
  EXPECT_NEAR(r.estimate, truth, 0.35 * truth);
  EXPECT_TRUE(r.ci.Contains(r.estimate));
}

/// Rewrites the MANIFEST body line-by-line through `edit` (return the
/// replacement line, or nullopt to drop it) and recomputes the
/// self-checksum, so schema-section tests tamper with one declaration
/// without tripping the CRC machinery.
void PatchManifestLines(
    const std::string& dir,
    const std::function<std::optional<std::string>(const std::string&)>&
        edit) {
  std::string manifest = *io::ReadFileToString(dir + "/MANIFEST");
  size_t trailer = manifest.rfind("\nmanifest_crc: ");
  ASSERT_NE(trailer, std::string::npos);
  std::string body = manifest.substr(0, trailer + 1);
  std::string out;
  size_t pos = 0;
  while (pos < body.size()) {
    size_t eol = body.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);
    std::optional<std::string> line = edit(body.substr(pos, eol - pos));
    pos = eol + 1;
    if (line.has_value()) out += *line + "\n";
  }
  out += "manifest_crc: " + io::Crc32cToHex(io::Crc32c(out)) + "\n";
  ASSERT_TRUE(io::WriteFileDurable(dir + "/MANIFEST", out).ok());
}

TEST_F(ReleaseTest, ManifestCarriesRelationNameAndSchema) {
  GrrOutput grr = MakeGrr();
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  std::string manifest = *io::ReadFileToString(dir_ + "/MANIFEST");
  EXPECT_NE(manifest.find("relation: r\n"), std::string::npos);
  // kind, type, parameter and sensitivity as IEEE-754 bit hex (p = 0.2,
  // b = 1.5, Δ = 9), domain size, dictionary entries, name.
  EXPECT_NE(manifest.find("column: discrete string 3fc999999999999a "
                          "0000000000000000 5 4 major\n"),
            std::string::npos)
      << manifest;
  EXPECT_NE(manifest.find("column: discrete int64 3fc999999999999a "
                          "0000000000000000 5 0 section\n"),
            std::string::npos);
  EXPECT_NE(manifest.find("column: numeric double 3ff8000000000000 "
                          "4022000000000000 0 0 score\n"),
            std::string::npos);
  LoadedRelease loaded = *ReadRelease(dir_);
  EXPECT_EQ(loaded.metadata.relation_name, "r");
}

TEST_F(ReleaseTest, CustomRelationNameRoundTripsAndGatesSql) {
  GrrOutput grr = MakeGrr();
  grr.metadata.relation_name = "students";
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  PrivateTable table = *OpenRelease(dir_);
  EXPECT_EQ(table.metadata().relation_name, "students");
  // FROM must name the released relation; anything else is a typed
  // NotFound naming both the asked-for and the actual relation.
  auto ok = ExecuteSqlQuery(table, "SELECT COUNT(*) FROM students");
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
  auto bad = ExecuteSqlQuery(table, "SELECT COUNT(*) FROM r");
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsNotFound()) << bad.status().ToString();
  EXPECT_NE(bad.status().message().find("unknown relation 'r'"),
            std::string::npos)
      << bad.status().message();
  EXPECT_NE(bad.status().message().find("'students'"), std::string::npos);
}

TEST_F(ReleaseTest, DefaultReleaseRejectsUnknownFromRelation) {
  GrrOutput grr = MakeGrr();
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  PrivateTable table = *OpenRelease(dir_);
  auto bad = ExecuteSqlQuery(table, "SELECT COUNT(*) FROM nosuch");
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsNotFound()) << bad.status().ToString();
  EXPECT_NE(bad.status().message().find("unknown relation 'nosuch'"),
            std::string::npos);
  EXPECT_NE(bad.status().message().find("relation 'r'"), std::string::npos);
}

TEST_F(ReleaseTest, LineBreakingColumnNamesAreEscapedInTheManifest) {
  // The line-oriented MANIFEST schema section must escape hostile names
  // instead of splitting the line.
  Schema s = *Schema::Make({Field::Discrete("new\nline"),
                            Field::Numerical("back\\slash",
                                             ValueType::kDouble)});
  TableBuilder b(s);
  for (int i = 0; i < 50; ++i) {
    b.Row({Value("v" + std::to_string(i % 3)),
           Value(static_cast<double>(i % 7))});
  }
  Table t = *b.Finish();
  Rng rng(5);
  GrrOutput grr = *ApplyGrr(t, GrrParams::Uniform(0.2, 1.5), GrrOptions{},
                            rng);
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  std::string manifest = *io::ReadFileToString(dir_ + "/MANIFEST");
  EXPECT_NE(manifest.find(" new\\nline\n"), std::string::npos) << manifest;
  EXPECT_NE(manifest.find(" back\\\\slash\n"), std::string::npos);
  LoadedRelease loaded = *ReadRelease(dir_);
  EXPECT_EQ(loaded.relation.schema().field(0).name, "new\nline");
  EXPECT_EQ(loaded.relation.schema().field(1).name, "back\\slash");
}

TEST_F(ReleaseTest, ManifestMissingRequiredLinesIsDataLoss) {
  // Format v3 has no "written before X existed" defaults: a MANIFEST
  // without its mechanism, relation or column lines is damaged.
  for (const std::string prefix : {"mechanism: ", "relation: ", "column: "}) {
    SCOPED_TRACE(prefix);
    std::filesystem::remove_all(dir_);
    ASSERT_TRUE(WriteRelease(MakeGrr(), dir_).ok());
    PatchManifestLines(dir_, [&](const std::string& line) {
      if (line.rfind(prefix, 0) == 0) return std::optional<std::string>();
      return std::optional<std::string>(line);
    });
    auto read = ReadRelease(dir_);
    ASSERT_FALSE(read.ok());
    EXPECT_TRUE(read.status().IsDataLoss()) << read.status().ToString();
    EXPECT_NE(read.status().message().find("MANIFEST"), std::string::npos);
  }
}

TEST_F(ReleaseTest, UppercaseHexParameterIsDataLoss) {
  // Every writer emits a parameter as 16 lowercase hex digits; the
  // reader takes exactly that form, as the ledger and the wire do.
  ASSERT_TRUE(WriteRelease(MakeGrr(), dir_).ok());
  const std::string lower = "3fc999999999999a";  // p = 0.2
  bool patched = false;
  PatchManifestLines(dir_, [&](const std::string& line) {
    std::string out = line;
    const size_t at = line.find(lower);
    if (line.rfind("column: ", 0) == 0 && at != std::string::npos) {
      out.replace(at, lower.size(), "3FC999999999999A");
      patched = true;
    }
    return std::optional<std::string>(out);
  });
  ASSERT_TRUE(patched);
  auto read = ReadRelease(dir_);
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsDataLoss()) << read.status().ToString();
  EXPECT_NE(read.status().message().find("MANIFEST"), std::string::npos)
      << read.status().ToString();
}

TEST_F(ReleaseTest, OlderFormatVersionIsFailedPrecondition) {
  ASSERT_TRUE(WriteRelease(MakeGrr(), dir_).ok());
  PatchManifestLines(dir_, [](const std::string& line) {
    if (line == "version: 3") return std::optional<std::string>("version: 2");
    return std::optional<std::string>(line);
  });
  auto read = ReadRelease(dir_);
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsFailedPrecondition())
      << read.status().ToString();
  EXPECT_NE(read.status().message().find(
                "declares release format version 2; this reader supports "
                "version 3"),
            std::string::npos);
}

}  // namespace
}  // namespace privateclean
