// StringDictionary + Arena unit coverage, plus the dictionary-vs-string
// differential suite: every consumer rewritten onto dense codes is
// checked against a naive boxed-Value reference implementation on the
// same inputs (and, for randomized response, the same RNG stream). The
// randomized differentials run at 1, 2 and 8 threads where the code
// under test is sharded.

#include "table/dictionary.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cleaning/extract.h"
#include "cleaning/merge.h"
#include "cleaning/transform.h"
#include "common/arena.h"
#include "common/random.h"
#include "core/private_table.h"
#include "parallel_harness.h"
#include "privacy/grr.h"
#include "privacy/randomized_response.h"
#include "provenance/provenance_graph.h"
#include "query/aggregate.h"
#include "query/predicate.h"
#include "query/sql.h"
#include "table/domain.h"
#include "table/table_builder.h"

namespace privateclean {
namespace {

// --- StringDictionary -----------------------------------------------------

TEST(StringDictionaryTest, InternAssignsDenseCodesInFirstSeenOrder) {
  StringDictionary d;
  EXPECT_EQ(d.Intern("b"), 0u);
  EXPECT_EQ(d.Intern("a"), 1u);
  EXPECT_EQ(d.Intern("b"), 0u);  // Idempotent.
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.At(0), "b");
  EXPECT_EQ(d.At(1), "a");
}

TEST(StringDictionaryTest, FindDoesNotIntern) {
  StringDictionary d;
  d.Intern("x");
  EXPECT_EQ(d.Find("x"), 0u);
  EXPECT_EQ(d.Find("missing"), kNullCode);
  EXPECT_EQ(d.size(), 1u);
}

TEST(StringDictionaryTest, ViewsAreStableAcrossGrowth) {
  StringDictionary d;
  std::string_view first = d.At(d.Intern("stable"));
  // Force many arena chunks; the first view must not move.
  for (int i = 0; i < 20000; ++i) {
    d.Intern("filler_" + std::to_string(i));
  }
  EXPECT_EQ(first, "stable");
  EXPECT_EQ(d.At(0), "stable");
  EXPECT_EQ(d.Find("stable"), 0u);
}

TEST(StringDictionaryTest, CopyPreservesCodesAndDetachesStorage) {
  StringDictionary d;
  d.Intern("a");
  d.Intern("b");
  StringDictionary copy(d);
  d.Intern("c");  // Must not appear in the copy.
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_EQ(copy.At(0), "a");
  EXPECT_EQ(copy.At(1), "b");
  EXPECT_EQ(copy.Find("c"), kNullCode);
  EXPECT_EQ(copy.Find("b"), d.Find("b"));
}

TEST(StringDictionaryTest, EmptyStringIsAnOrdinaryEntry) {
  StringDictionary d;
  EXPECT_EQ(d.Intern(""), 0u);
  EXPECT_EQ(d.Find(""), 0u);
  EXPECT_EQ(d.At(0), "");
}

// --- Arena ----------------------------------------------------------------

TEST(ArenaTest, AllocationsAreAligned) {
  Arena a;
  for (size_t align : {1u, 2u, 4u, 8u, 16u, 64u}) {
    void* p = a.Allocate(3, align);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % align, 0u)
        << "align " << align;
  }
}

TEST(ArenaTest, CopyStringSurvivesChunkGrowth) {
  Arena a;
  std::vector<std::string_view> views;
  std::vector<std::string> originals;
  for (int i = 0; i < 5000; ++i) {
    originals.push_back("value_" + std::to_string(i));
  }
  for (const std::string& s : originals) views.push_back(a.CopyString(s));
  for (size_t i = 0; i < originals.size(); ++i) {
    EXPECT_EQ(views[i], originals[i]);
    EXPECT_NE(views[i].data(), originals[i].data());  // A real copy.
  }
  EXPECT_GE(a.bytes_used(), views.size());
  EXPECT_GE(a.bytes_reserved(), a.bytes_used());
}

TEST(ArenaTest, ResetReleasesAccounting) {
  Arena a;
  a.CopyString("something long enough to count");
  EXPECT_GT(a.bytes_used(), 0u);
  a.Reset();
  EXPECT_EQ(a.bytes_used(), 0u);
  EXPECT_EQ(a.bytes_reserved(), 0u);
  EXPECT_EQ(a.alloc_count(), 0u);
  // Still usable after Reset.
  EXPECT_EQ(a.CopyString("again"), "again");
}

TEST(ArenaTest, ZeroByteAllocationIsNonNull) {
  Arena a;
  EXPECT_NE(a.Allocate(0), nullptr);
  EXPECT_EQ(a.CopyString(""), "");
}

// --- Dictionary-vs-string differential suite ------------------------------

Table MakeStringTable(size_t rows, uint64_t seed) {
  Schema s = *Schema::Make({Field::Discrete("city")});
  TableBuilder b(s);
  Rng rng(seed);
  const char* cities[] = {"Berkeley", "Oakland", "", "San Jose, CA",
                          "Fre\"mont", "O'Brien"};
  for (size_t i = 0; i < rows; ++i) {
    if (rng.Bernoulli(0.1)) {
      b.Row({Value::Null()});
    } else {
      b.Row({Value(cities[rng.UniformInt(6)])});
    }
  }
  return *b.Finish();
}

/// An int64 or double discrete column `v` with NULLs, and a string `s`
/// that mostly follows it. The double column holds -0.0 (its first row)
/// and +0.0, which Value== folds into one value; values from the upper
/// half of the pool first appear in the last quarter of the rows, i.e.
/// in later shards.
Table MakeNumericTable(ValueType type, size_t rows, uint64_t seed) {
  TableBuilder b(*Schema::Make(
      {Field{"v", type, AttributeKind::kDiscrete}, Field::Discrete("s")}));
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    const uint64_t pool = r < rows * 3 / 4 ? 12 : 24;
    const uint64_t k = r == 0 ? 0 : rng.UniformInt(pool);
    Value v = type == ValueType::kInt64
                  ? Value(static_cast<int64_t>(k) - 5)
                  : Value(k == 0 ? -0.0 : static_cast<double>(k) * 0.5 - 1.0);
    if (r > 0 && rng.Bernoulli(0.08)) v = Value::Null();
    const uint64_t s = rng.Bernoulli(0.9) ? k % 3 : rng.UniformInt(3);
    b.Row({v, Value("s" + std::to_string(s))});
  }
  return *b.Finish();
}

/// Asserts two columns hold the same values row by row: validity, Value
/// equality, and for doubles the same bits (so -0.0 and +0.0 differ).
void ExpectSameRows(const Column& got, const Column& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got.validity(), want.validity());
  EXPECT_EQ(got.null_count(), want.null_count());
  if (want.type() == ValueType::kDouble) {
    ExpectColumnsBitIdentical(got, want, "double rows");
    return;
  }
  for (size_t r = 0; r < got.size(); ++r) {
    EXPECT_EQ(got.ValueAt(r), want.ValueAt(r)) << "row " << r;
  }
}

TEST(DictionaryDifferentialTest, PredicateEvaluateMatchesRowWiseReference) {
  Table t = MakeStringTable(4000, 91);
  const Column& col = t.column(0);
  for (const Predicate& pred :
       {Predicate::Equals("city", "Oakland"),
        Predicate::Equals("city", ""),
        Predicate::Equals("city", "missing-from-table"),
        Predicate::In("city", {Value("Berkeley"), Value::Null()}),
        Predicate::IsNull("city"),
        Predicate::Equals("city", "Oakland").Negate()}) {
    std::vector<uint8_t> fast = *pred.Evaluate(t, ExecutionOptions{});
    ASSERT_EQ(fast.size(), t.num_rows());
    for (size_t r = 0; r < t.num_rows(); ++r) {
      EXPECT_EQ(fast[r] != 0, pred.Matches(col.ValueAt(r))) << "row " << r;
    }
  }
}

TEST(DictionaryDifferentialTest, DomainFromColumnMatchesFirstAppearance) {
  // String, int64 and double columns (NULLs, and -0.0 before +0.0) across
  // several shards. The sharded graph build's clean domain is the same
  // first-appearance tally, so it must match at 1, 2 and 8 threads.
  const Table strings = MakeStringTable(3000, 17);
  const Table ints = MakeNumericTable(ValueType::kInt64, 40000, 17);
  const Table doubles = MakeNumericTable(ValueType::kDouble, 40000, 18);
  for (const Table* t : {&strings, &ints, &doubles}) {
    const Column& col = t->column(0);
    const std::string name = t->schema().field(0).name;
    SCOPED_TRACE(ValueTypeToString(col.type()));
    for (bool include_null : {true, false}) {
      Domain fast = *Domain::FromColumn(*t, name, include_null);
      // Naive reference: boxed values in row order, first appearance
      // wins, with its row count.
      std::vector<Value> order;
      std::unordered_map<Value, size_t, ValueHash> counts;
      for (size_t r = 0; r < col.size(); ++r) {
        Value v = col.ValueAt(r);
        if (v.is_null() && !include_null) continue;
        if (counts[v]++ == 0) order.push_back(v);
      }
      ASSERT_EQ(fast.size(), order.size()) << include_null;
      ByteSink want;
      for (const Value& v : order) {
        want.AppendValue(v);
        want.AppendU64(counts[v]);
      }
      const std::string want_bytes = std::move(want).Finish();
      auto domain_bytes = [](const Domain& d) {
        ByteSink sink;
        for (size_t i = 0; i < d.size(); ++i) {
          sink.AppendValue(d.value(i));
          sink.AppendU64(d.frequency(i));
        }
        return std::move(sink).Finish();
      };
      EXPECT_TRUE(domain_bytes(fast) == want_bytes) << include_null;
      if (!include_null) continue;
      ExpectIdenticalAcrossThreadCounts([&](const ExecutionOptions& exec) {
        const std::string got = domain_bytes(
            ProvenanceGraph::Build(col, col, fast, exec)->clean_domain());
        EXPECT_TRUE(got == want_bytes) << "graph clean domain";
        return got;
      });
    }
  }
}

TEST(DictionaryDifferentialTest,
     RandomizedResponseMatchesBoxedReferenceStream) {
  // The kernel against the paper's draw sequence (one Bernoulli per row,
  // one uniform draw only on replacement) applied through boxed
  // SetValue: whole-column on one stream, and sharded by ApplyGrr at 1,
  // 2 and 8 threads on one forked stream per shard.
  const Table strings = MakeStringTable(2500, 5);
  const Table ints = MakeNumericTable(ValueType::kInt64, 40000, 5);
  const Table doubles = MakeNumericTable(ValueType::kDouble, 40000, 6);
  auto replay = [](Column* col, const Domain& domain, Rng& rng, size_t begin,
                   size_t end) {
    for (size_t r = begin; r < end; ++r) {
      if (!rng.Bernoulli(0.35)) continue;
      size_t j = static_cast<size_t>(rng.UniformInt(domain.size()));
      ASSERT_TRUE(col->SetValue(r, domain.value(j)).ok());
    }
  };
  for (const Table* t : {&strings, &ints, &doubles}) {
    SCOPED_TRACE(ValueTypeToString(t->column(0).type()));
    const std::string name = t->schema().field(0).name;
    const Domain domain = *Domain::FromColumn(*t, name, /*include_null=*/true);

    Column fast = t->column(0);
    Rng rng_fast(1234);
    ASSERT_TRUE(ApplyRandomizedResponse(&fast, domain, 0.35, rng_fast).ok());
    Column ref = t->column(0);
    Rng rng_ref(1234);
    replay(&ref, domain, rng_ref, 0, ref.size());
    ExpectSameRows(fast, ref);

    // ApplyGrr forks the column's shard streams off its rng first.
    Table one = *Table::Make(*Schema::Make({t->schema().field(0)}),
                             {t->column(0)});
    Column sharded_ref = t->column(0);
    Rng fork_rng(99);
    const size_t shards = ShardCountForRows(t->num_rows());
    std::vector<Rng> streams = fork_rng.ForkStreams(shards);
    for (size_t s = 0; s < shards; ++s) {
      const ShardRange range = ShardBounds(t->num_rows(), shards, s);
      replay(&sharded_ref, domain, streams[s], range.begin, range.end);
    }
    for (size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      GrrOptions options;
      options.ensure_domain_preserved = false;
      options.exec.num_threads = threads;
      Rng rng(99);
      auto grr = ApplyGrr(one, GrrParams::Uniform(0.35, 0.0), options, rng);
      ASSERT_TRUE(grr.ok()) << grr.status().ToString();
      ExpectSameRows(grr->table.column(0), sharded_ref);
    }
  }
}

TEST(DictionaryDifferentialTest, ValueTransformMatchesRowWiseReference) {
  Table fast_t = MakeStringTable(2000, 77);
  Table ref_t = fast_t.Clone();
  auto fn = [](const Value& v) -> Value {
    if (v.is_null()) return Value("was-null");
    if (v.AsString().empty()) return Value::Null();  // ""→NULL transition.
    return Value(v.AsString() + "!");
  };
  ValueTransform transform("city", fn);
  ASSERT_TRUE(transform.Apply(&fast_t).ok());
  // Reference: apply the UDF row by row through boxed SetValue.
  Column* ref_col = *ref_t.MutableColumnByName("city");
  for (size_t r = 0; r < ref_col->size(); ++r) {
    ASSERT_TRUE(ref_col->SetValue(r, fn(ref_col->ValueAt(r))).ok());
  }
  const Column& fast_col = fast_t.column(0);
  ASSERT_EQ(fast_col.size(), ref_col->size());
  EXPECT_EQ(fast_col.null_count(), ref_col->null_count());
  for (size_t r = 0; r < fast_col.size(); ++r) {
    EXPECT_EQ(fast_col.ValueAt(r), ref_col->ValueAt(r)) << "row " << r;
  }
}

TEST(DictionaryDifferentialTest, RemapCleanersMatchRowLoopStorage) {
  // FindReplace, DomainMerge and MergeToNull rewrite codes through one
  // per-distinct-value remap; the storage — dictionary in code order,
  // codes, validity, null count — must equal what the boxed row loop
  // (one SetValue per rewritten row) leaves behind.
  const Table base = MakeStringTable(3000, 29);
  auto row_loop = [](Table* t, const std::function<bool(const Value&)>& hit,
                     const std::function<Value(const Value&)>& to) {
    Column* col = t->mutable_column(0);
    for (size_t r = 0; r < col->size(); ++r) {
      const Value v = col->ValueAt(r);
      if (hit(v)) {
        ASSERT_TRUE(col->SetValue(r, to(v)).ok());
      }
    }
  };
  {
    std::unordered_map<Value, Value, ValueHash> rules{
        {Value("Berkeley"), Value("Berkeley, CA")},  // New value.
        {Value("Oakland"), Value("")},               // Existing value.
        {Value::Null(), Value("none")},              // From NULL.
        {Value(""), Value::Null()}};                 // To NULL.
    Table fast = base.Clone();
    ASSERT_TRUE(FindReplace("city", rules).Apply(&fast).ok());
    Table ref = base.Clone();
    row_loop(
        &ref, [&](const Value& v) { return rules.count(v) > 0; },
        [&](const Value& v) { return rules.at(v); });
    ExpectColumnsBitIdentical(fast.column(0), ref.column(0), "find_replace");
  }
  {
    const Domain domain = *Domain::FromColumn(base, "city");
    auto fn = [](const Value& v, const Domain& d) {
      if (v.is_null()) return d.value(d.size() - 1);
      return v.AsString() == "O'Brien" ? Value("Oakland")
                                       : Value(v.AsString() + "#");
    };
    Table fast = base.Clone();
    ASSERT_TRUE(DomainMerge("city", fn).Apply(&fast).ok());
    Table ref = base.Clone();
    row_loop(
        &ref, [](const Value&) { return true; },
        [&](const Value& v) { return fn(v, domain); });
    ExpectColumnsBitIdentical(fast.column(0), ref.column(0), "domain_merge");
  }
  {
    auto spurious = [](const Value& v) {
      return !v.is_null() && (v.AsString().empty() ||
                              v.AsString().find('"') != std::string::npos);
    };
    Table fast = base.Clone();
    ASSERT_TRUE(MergeToNull("city", spurious).Apply(&fast).ok());
    Table ref = base.Clone();
    row_loop(&ref, spurious, [](const Value&) { return Value::Null(); });
    ExpectColumnsBitIdentical(fast.column(0), ref.column(0), "merge_to_null");
  }
  // A double column holding -0.0 and +0.0, which Value== folds into one
  // domain entry: rows that no rule or spurious test hits keep their own
  // sign; rows a rule hits take its target, and DomainMerge gives every
  // row its entry's result.
  const Table doubles = [] {
    TableBuilder b(*Schema::Make(
        {Field{"score", ValueType::kDouble, AttributeKind::kDiscrete}}));
    Rng rng(31);
    const double scores[] = {0.0, -0.0, 1.5, 2.5};
    b.Row({Value(0.0)});
    for (size_t i = 1; i < 3000; ++i) {
      b.Row({rng.Bernoulli(0.1) ? Value::Null()
                                : Value(scores[rng.UniformInt(4)])});
    }
    return *b.Finish();
  }();
  for (const std::unordered_map<Value, Value, ValueHash>& rules :
       {std::unordered_map<Value, Value, ValueHash>{
            {Value(1.5), Value(0.0)},
            {Value::Null(), Value(7.25)},
            {Value(2.5), Value::Null()}},
        std::unordered_map<Value, Value, ValueHash>{
            {Value(0.0), Value(0.0)}}}) {
    Table fast = doubles.Clone();
    ASSERT_TRUE(FindReplace("score", rules).Apply(&fast).ok());
    Table ref = doubles.Clone();
    row_loop(
        &ref, [&](const Value& v) { return rules.count(v) > 0; },
        [&](const Value& v) { return rules.at(v); });
    ExpectColumnsBitIdentical(fast.column(0), ref.column(0),
                              "find_replace double " +
                                  std::to_string(rules.size()) + " rules");
  }
  {
    auto spurious = [](const Value& v) { return v == Value(2.5); };
    Table fast = doubles.Clone();
    ASSERT_TRUE(MergeToNull("score", spurious).Apply(&fast).ok());
    Table ref = doubles.Clone();
    row_loop(&ref, spurious, [](const Value&) { return Value::Null(); });
    ExpectColumnsBitIdentical(fast.column(0), ref.column(0),
                              "merge_to_null double");
  }
  {
    const Domain domain = *Domain::FromColumn(doubles, "score");
    auto fn = [](const Value& v, const Domain&) {
      if (v.is_null()) return Value(9.0);
      return v == Value(1.5) ? Value(2.5) : v;
    };
    Table fast = doubles.Clone();
    ASSERT_TRUE(DomainMerge("score", fn).Apply(&fast).ok());
    Table ref = doubles.Clone();
    row_loop(
        &ref, [](const Value&) { return true; },
        [&](const Value& v) {
          return fn(domain.value(*domain.IndexOf(v)), domain);
        });
    ExpectColumnsBitIdentical(fast.column(0), ref.column(0),
                              "domain_merge double");
  }
}

// --- Direct GROUP BY: masked counts vs a boxed reference ------------------

TEST(DictionaryDifferentialTest, GroupByCountMatchesBoxedReference) {
  // String and int64 groups must equal a boxed row loop, masked and
  // unmasked, with NULL and '' as separate groups.
  Table strings = MakeStringTable(5000, 3);
  Table ints = [] {
    TableBuilder b(*Schema::Make(
        {Field{"grade", ValueType::kInt64, AttributeKind::kDiscrete}}));
    Rng rng(4);
    for (size_t i = 0; i < 5000; ++i) {
      b.Row({rng.Bernoulli(0.1) ? Value::Null()
                                : Value(static_cast<int64_t>(
                                      rng.UniformInt(7)) - 3)});
    }
    return *b.Finish();
  }();
  Rng mask_rng(5);
  for (const Table* t : {&strings, &ints}) {
    const Column& col = t->column(0);
    std::vector<uint8_t> mask(t->num_rows());
    for (uint8_t& m : mask) m = mask_rng.Bernoulli(0.3) ? 1 : 0;
    for (const std::vector<uint8_t>& rows : {std::vector<uint8_t>{}, mask}) {
      SCOPED_TRACE(std::string(ValueTypeToString(col.type())) +
                   (rows.empty() ? " unmasked" : " masked"));
      std::map<Value, size_t> want;
      for (size_t r = 0; r < col.size(); ++r) {
        if (rows.empty() || rows[r]) ++want[col.ValueAt(r)];
      }
      auto got = GroupByCount(*t, t->schema().field(0).name, rows);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, want);
    }
  }
  EXPECT_EQ(GroupByCount(strings, "city")->count(Value::Null()), 1u);
  EXPECT_EQ(GroupByCount(strings, "city")->count(Value("")), 1u);
  EXPECT_TRUE(GroupByCount(strings, "city", std::vector<uint8_t>(3, 1))
                  .status()
                  .IsInvalidArgument());
}

// --- One-pass ProvenanceGraph::Build vs a boxed reference ------------------

/// The graph by the boxed build's rules: clean domain in row
/// first-appearance order, per-(dirty, clean) row counts, edges in
/// ascending (dirty index, clean index) order, weight = pair rows /
/// dirty rows. Carries the accessors AppendProvenanceGraph reads.
class ReferenceGraph {
 public:
  static Result<ReferenceGraph> Build(const Column& dirty, const Column& clean,
                                      const Domain& dirty_domain) {
    ReferenceGraph g;
    g.dirty_ = dirty_domain;
    std::vector<Value> clean_rows;
    for (size_t r = 0; r < clean.size(); ++r) {
      clean_rows.push_back(clean.ValueAt(r));
    }
    g.clean_ = Domain::FromValues(clean_rows);
    std::map<std::pair<size_t, size_t>, size_t> pairs;
    std::vector<size_t> totals(dirty_domain.size(), 0);
    for (size_t r = 0; r < dirty.size(); ++r) {
      auto d = dirty_domain.IndexOf(dirty.ValueAt(r));
      if (!d.ok()) {
        return Status::InvalidArgument(
            "snapshot value '" + dirty.ValueAt(r).ToString() + "' at row " +
            std::to_string(r) + " is not in the dirty domain");
      }
      ++pairs[{*d, *g.clean_.IndexOf(clean_rows[r])}];
      ++totals[*d];
    }
    g.edges_.resize(g.clean_.size());
    std::vector<size_t> degree(dirty_domain.size(), 0);
    for (const auto& [key, rows] : pairs) {
      g.edges_[key.second].push_back(
          {key.first,
           static_cast<double>(rows) / static_cast<double>(totals[key.first])});
      if (++degree[key.first] > 1) g.fork_free_ = false;
    }
    g.num_edges_ = pairs.size();
    return g;
  }

  size_t num_dirty_values() const { return dirty_.size(); }
  size_t num_clean_values() const { return clean_.size(); }
  size_t num_edges() const { return num_edges_; }
  bool is_fork_free() const { return fork_free_; }
  const Domain& dirty_domain() const { return dirty_; }
  const Domain& clean_domain() const { return clean_; }

  double EdgeWeight(size_t dirty, size_t clean) const {
    for (const auto& [d, w] : edges_[clean]) {
      if (d == dirty) return w;
    }
    return 0.0;
  }
  std::vector<size_t> ParentSet(const std::vector<size_t>& clean) const {
    std::vector<size_t> parents;
    for (const auto& [d, w] : edges_[clean.front()]) parents.push_back(d);
    return parents;
  }
  double WeightedSelectivity(const std::vector<size_t>& clean) const {
    double l = 0.0;
    for (size_t m : clean) {
      for (const auto& [d, w] : edges_[m]) l += w;
    }
    return l;
  }

 private:
  Domain dirty_;
  Domain clean_;
  std::vector<std::vector<std::pair<size_t, double>>> edges_;
  size_t num_edges_ = 0;
  bool fork_free_ = true;
};

/// `city` (with NULLs and '') and its `state`. Cities c30..c39 first
/// appear in the last quarter of the rows, i.e. in later shards.
Table MakeCityStateTable(size_t rows, uint64_t seed) {
  TableBuilder b(
      *Schema::Make({Field::Discrete("city"), Field::Discrete("state")}));
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    const uint64_t pool = r < rows * 3 / 4 ? 30 : 40;
    const uint64_t c = rng.UniformInt(pool);
    Value city = rng.Bernoulli(0.05)   ? Value::Null()
                 : rng.Bernoulli(0.02) ? Value("")
                                       : Value("c" + std::to_string(c));
    // Mostly a function of the city, sometimes not: forks under
    // projection cleaning.
    const uint64_t s = rng.Bernoulli(0.9) ? c % 5 : rng.UniformInt(5);
    b.Row({city, Value("s" + std::to_string(s))});
  }
  return *b.Finish();
}

TEST(ProvenanceBuildDifferentialTest, OnePassMatchesBoxedReference) {
  struct Cleaning {
    std::string name;
    std::function<Status(Table*)> apply;
    std::string attribute;  // The cleaned (or extracted) attribute.
    bool forks;             // Some dirty value gets several clean ones.
  };
  const std::vector<Cleaning> cleanings = {
      {"none", [](Table*) { return Status::OK(); }, "city", false},
      {"merge, to and from NULL",
       [](Table* t) {
         return FindReplace("city", {{Value("c1"), Value("c0")},
                                     {Value("c2"), Value("c0")},
                                     {Value("c3"), Value::Null()},
                                     {Value::Null(), Value("was-null")},
                                     {Value(""), Value("c35")}})
             .Apply(t);
       },
       "city", false},
      {"new values interned after the snapshot",
       [](Table* t) {
         return ValueTransform("city",
                               [](const Value& v) {
                                 return v.is_null() ? v
                                                    : Value(v.AsString() + "!");
                               })
             .Apply(t);
       },
       "city", false},
      {"merge to NULL",
       [](Table* t) {
         return MergeToNull("city",
                            [](const Value& v) {
                              return v == Value("c5") || v == Value("c36");
                            })
             .Apply(t);
       },
       "city", false},
      {"fork",
       [](Table* t) {
         return ProjectionTransform(
                    {"city", "state"},
                    [](const std::vector<Value>& row) {
                      if (row[0].is_null() || row[1] != Value("s1")) {
                        return row;
                      }
                      return std::vector<Value>{
                          Value(row[0].AsString() + "-east"), row[1]};
                    })
             .Apply(t);
       },
       "city", true},
      {"extract",
       [](Table* t) {
         return ExtractAttribute(
                    "region", {"city", "state"},
                    [](const std::vector<Value>& row) {
                      if (row[0].is_null()) return Value::Null();
                      return Value(row[1].AsString() + "/" +
                                   std::to_string(row[0].AsString().size()));
                    })
             .Apply(t);
       },
       "region", true},
  };
  for (size_t rows : {size_t{0}, size_t{1}, kRowsPerShard - 1, kRowsPerShard,
                      kRowsPerShard + 1, size_t{40000}}) {
    const Table base = MakeCityStateTable(rows, 1000 + rows);
    const Column& snapshot = base.column(0);
    // The randomization domain also holds values no row carries, before,
    // between and after the observed ones.
    std::vector<Value> dirty_values = {Value("ghost-0")};
    const Domain observed = *Domain::FromColumn(base, "city");
    for (const Value& v : observed.values()) {
      dirty_values.push_back(v);
      if (dirty_values.size() == 4) dirty_values.push_back(Value("ghost-1"));
    }
    dirty_values.push_back(Value("ghost-2"));
    const Domain dirty_domain = Domain::FromValues(dirty_values);
    for (const Cleaning& cleaning : cleanings) {
      SCOPED_TRACE("rows=" + std::to_string(rows) + " " + cleaning.name);
      Table t = base.Clone();
      ASSERT_TRUE(cleaning.apply(&t).ok());
      const Column& current = **t.ColumnByName(cleaning.attribute);
      const ReferenceGraph reference =
          *ReferenceGraph::Build(snapshot, current, dirty_domain);
      if (rows >= kRowsPerShard) {
        EXPECT_EQ(!reference.is_fork_free(), cleaning.forks);
      }
      ByteSink want;
      AppendProvenanceGraph(&want, reference);
      const std::string want_bytes = std::move(want).Finish();
      ExpectIdenticalAcrossThreadCounts([&](const ExecutionOptions& exec) {
        ByteSink got;
        AppendProvenanceGraph(
            &got,
            *ProvenanceGraph::Build(snapshot, current, dirty_domain, exec));
        std::string got_bytes = std::move(got).Finish();
        EXPECT_TRUE(got_bytes == want_bytes)
            << "graph differs from the boxed reference";
        return got_bytes;
      });
    }
  }

  // int64 and double attributes (NULLs, -0.0 before +0.0) take the same
  // code pass: merges, a transform to new values, to and from NULL, and
  // a fork under a projection over (v, s).
  auto num = [](ValueType type, double x) {
    return type == ValueType::kInt64 ? Value(static_cast<int64_t>(x))
                                     : Value(x);
  };
  for (ValueType type : {ValueType::kInt64, ValueType::kDouble}) {
    const std::vector<Cleaning> numeric_cleanings = {
        {"none", [](Table*) { return Status::OK(); }, "v", false},
        {"merge, to and from NULL",
         [&](Table* t) {
           return FindReplace("v", {{num(type, 1), num(type, 0)},
                                    {num(type, 2), num(type, 0)},
                                    {num(type, 3), Value::Null()},
                                    {Value::Null(), num(type, 100)},
                                    {num(type, 6), num(type, -0.0)}})
               .Apply(t);
         },
         "v", false},
        {"new values interned after the snapshot",
         [&](Table* t) {
           return ValueTransform("v",
                                 [&](const Value& v) {
                                   if (v.is_null()) return v;
                                   return type == ValueType::kInt64
                                              ? Value(v.AsInt64() * 7 + 1)
                                              : Value(v.AsDouble() * 7 + 1);
                                 })
               .Apply(t);
         },
         "v", false},
        {"merge to NULL",
         [&](Table* t) {
           return MergeToNull("v",
                              [&](const Value& v) {
                                return v == num(type, 4) || v == num(type, 9);
                              })
               .Apply(t);
         },
         "v", false},
        {"fork",
         [&](Table* t) {
           return ProjectionTransform(
                      {"v", "s"},
                      [&](const std::vector<Value>& row) {
                        if (row[0].is_null() || row[1] != Value("s1")) {
                          return row;
                        }
                        return std::vector<Value>{num(type, 1000), row[1]};
                      })
               .Apply(t);
         },
         "v", true},
    };
    for (size_t rows : {size_t{0}, size_t{1}, kRowsPerShard - 1, kRowsPerShard,
                        kRowsPerShard + 1, size_t{40000}}) {
      const Table base = MakeNumericTable(type, rows, 2000 + rows);
      const Column& snapshot = base.column(0);
      std::vector<Value> dirty_values = {num(type, 500)};
      const Domain observed = *Domain::FromColumn(base, "v");
      for (const Value& v : observed.values()) dirty_values.push_back(v);
      dirty_values.push_back(num(type, 501));
      const Domain dirty_domain = Domain::FromValues(dirty_values);
      for (const Cleaning& cleaning : numeric_cleanings) {
        SCOPED_TRACE(std::string(ValueTypeToString(type)) +
                     " rows=" + std::to_string(rows) + " " + cleaning.name);
        Table t = base.Clone();
        ASSERT_TRUE(cleaning.apply(&t).ok());
        const Column& current = t.column(0);
        const ReferenceGraph reference =
            *ReferenceGraph::Build(snapshot, current, dirty_domain);
        if (rows >= kRowsPerShard) {
          EXPECT_EQ(!reference.is_fork_free(), cleaning.forks);
        }
        ByteSink want;
        AppendProvenanceGraph(&want, reference);
        const std::string want_bytes = std::move(want).Finish();
        ExpectIdenticalAcrossThreadCounts([&](const ExecutionOptions& exec) {
          ByteSink got;
          AppendProvenanceGraph(
              &got,
              *ProvenanceGraph::Build(snapshot, current, dirty_domain, exec));
          std::string got_bytes = std::move(got).Finish();
          EXPECT_TRUE(got_bytes == want_bytes)
              << "graph differs from the boxed reference";
          return got_bytes;
        });
      }
    }
  }

  // A mostly distinct attribute: nearly every row holds a value of its
  // own, so each worker's partial spans about as many slots as its
  // rows. A few repeated values (which fork under the projection) and
  // NULLs ride along.
  const std::vector<Cleaning> distinct_cleanings = {
      {"none", [](Table*) { return Status::OK(); }, "id", false},
      {"merge, to and from NULL",
       [](Table* t) {
         return FindReplace("id", {{Value("u1001"), Value("u1000")},
                                   {Value("u3"), Value::Null()},
                                   {Value::Null(), Value("was-null")}})
             .Apply(t);
       },
       "id", false},
      {"new values interned after the snapshot",
       [](Table* t) {
         return ValueTransform("id",
                               [](const Value& v) {
                                 return v.is_null() ? v
                                                    : Value(v.AsString() + "!");
                               })
             .Apply(t);
       },
       "id", false},
      {"fork",
       [](Table* t) {
         return ProjectionTransform(
                    {"id", "s"},
                    [](const std::vector<Value>& row) {
                      if (row[0].is_null() || row[1] != Value("s1")) {
                        return row;
                      }
                      return std::vector<Value>{
                          Value(row[0].AsString() + "-east"), row[1]};
                    })
             .Apply(t);
       },
       "id", true},
  };
  for (size_t rows : {size_t{0}, size_t{1}, kRowsPerShard + 1}) {
    TableBuilder b(
        *Schema::Make({Field::Discrete("id"), Field::Discrete("s")}));
    Rng rng(3000 + rows);
    for (size_t r = 0; r < rows; ++r) {
      Value id = rng.Bernoulli(0.03) ? Value::Null()
                 : rng.Bernoulli(0.05)
                     ? Value("u" + std::to_string(rng.UniformInt(10)))
                     : Value("u" + std::to_string(1000 + r));
      b.Row({id, Value("s" + std::to_string(rng.UniformInt(3)))});
    }
    const Table base = *b.Finish();
    const Column& snapshot = base.column(0);
    std::vector<Value> dirty_values = {Value("ghost-0")};
    const Domain observed = *Domain::FromColumn(base, "id");
    for (const Value& v : observed.values()) dirty_values.push_back(v);
    const Domain dirty_domain = Domain::FromValues(dirty_values);
    for (const Cleaning& cleaning : distinct_cleanings) {
      SCOPED_TRACE("mostly distinct rows=" + std::to_string(rows) + " " +
                   cleaning.name);
      Table t = base.Clone();
      ASSERT_TRUE(cleaning.apply(&t).ok());
      const Column& current = t.column(0);
      const ReferenceGraph reference =
          *ReferenceGraph::Build(snapshot, current, dirty_domain);
      if (rows >= kRowsPerShard) {
        EXPECT_EQ(!reference.is_fork_free(), cleaning.forks);
      }
      ByteSink want;
      AppendProvenanceGraph(&want, reference);
      const std::string want_bytes = std::move(want).Finish();
      ExpectIdenticalAcrossThreadCounts([&](const ExecutionOptions& exec) {
        ByteSink got;
        AppendProvenanceGraph(
            &got,
            *ProvenanceGraph::Build(snapshot, current, dirty_domain, exec));
        std::string got_bytes = std::move(got).Finish();
        EXPECT_TRUE(got_bytes == want_bytes)
            << "graph differs from the boxed reference";
        return got_bytes;
      });
    }
  }
}

TEST(ProvenanceBuildDifferentialTest, UnknownSnapshotValueNamesTheFirstRow) {
  // "bad" is missing from the dirty domain; its first row sits in shard
  // 0, or only in a later shard. The message is the reference's at
  // every thread count.
  for (size_t first_bad : {size_t{7}, kRowsPerShard + 5}) {
    SCOPED_TRACE("first bad row " + std::to_string(first_bad));
    TableBuilder b(*Schema::Make({Field::Discrete("city")}));
    for (size_t r = 0; r < 40000; ++r) {
      const bool bad = r == first_bad || r == 39000;
      b.Row({bad ? Value("bad") : r % 9 == 0 ? Value::Null() : Value("ok")});
    }
    const Table t = *b.Finish();
    const Domain dirty_domain =
        Domain::FromValues({Value("ok"), Value::Null()});
    const Status want =
        ReferenceGraph::Build(t.column(0), t.column(0), dirty_domain)
            .status();
    ASSERT_TRUE(want.IsInvalidArgument());
    ASSERT_NE(want.message().find("row " + std::to_string(first_bad) + " "),
              std::string::npos)
        << want.message();
    for (size_t threads : {1u, 2u, 8u}) {
      ExecutionOptions exec;
      exec.num_threads = threads;
      const Status got =
          ProvenanceGraph::Build(t.column(0), t.column(0), dirty_domain, exec)
              .status();
      EXPECT_TRUE(got.IsInvalidArgument()) << got.ToString();
      EXPECT_EQ(got.message(), want.message()) << "threads=" << threads;
    }
  }
}

// --- COUNT and GROUP BY from clean-domain frequencies ----------------------

TEST(CountFromFrequenciesTest, NominalCountsEqualTheRowScan) {
  // Count's nominal comes from the provenance graph's clean-domain
  // frequencies and GroupByCountEstimate's from the same counts; both
  // must equal a row scan, and Count must equal what the scan-based
  // estimate gives, bit for bit.
  TableBuilder b(*Schema::Make(
      {Field::Discrete("city"),
       Field{"grade", ValueType::kInt64, AttributeKind::kDiscrete},
       Field::Numerical("income", ValueType::kDouble)}));
  Rng data_rng(41);
  for (size_t r = 0; r < 40000; ++r) {
    Value city = data_rng.Bernoulli(0.08)   ? Value::Null()
                 : data_rng.Bernoulli(0.03) ? Value("")
                                            : Value("c" + std::to_string(
                                                            data_rng.UniformInt(12)));
    Value grade = data_rng.Bernoulli(0.08)
                      ? Value::Null()
                      : Value(static_cast<int64_t>(data_rng.UniformInt(6)));
    b.Row({city, grade, Value(static_cast<double>(r % 17))});
  }
  Rng grr_rng(42);
  PrivateTable pt = *PrivateTable::Create(
      *b.Finish(), GrrParams::Uniform(0.3, 1.0), GrrOptions{}, grr_rng);

  auto where = [](const std::string& condition) {
    return *ParseSql("SELECT count(1) FROM r WHERE " + condition)
                ->query.predicate;
  };
  const std::vector<Predicate> battery = {
      Predicate::Equals("city", Value("c3")),
      Predicate::Equals("city", Value("")),
      Predicate::Equals("city", Value("absent")),
      Predicate::In("city", {Value("c1"), Value::Null(), Value("c0")}),
      Predicate::IsNull("city"),
      Predicate::IsNotNull("city"),
      Predicate::Equals("city", Value("c2")).Negate(),
      Predicate::In("city", {Value("c4"), Value::Null()}).Negate(),
      Predicate::Compare("city", CompareOp::kLt, Value("c5")),
      Predicate::Compare("city", CompareOp::kGe, Value(int64_t{3})),
      Predicate::Udf("city",
                     [](const Value& v) {
                       return !v.is_null() && v.AsString().size() > 2;
                     }),
      where("city >= 'c1' AND NOT city = 'c3' OR city IS NULL"),
      where("NOT (city IN ('c0', 'c9') OR city < 'c2')"),
      Predicate::Equals("grade", Value(int64_t{3})),
      Predicate::Equals("grade", Value(3.0)),
      Predicate::In("grade", {Value(int64_t{1}), Value::Null()}),
      Predicate::IsNull("grade"),
      Predicate::IsNotNull("grade"),
      Predicate::Equals("grade", Value(int64_t{0})).Negate(),
      Predicate::Compare("grade", CompareOp::kLt, Value(int64_t{3})),
      Predicate::Compare("grade", CompareOp::kGe, Value(2.5)),
      Predicate::Udf("grade",
                     [](const Value& v) {
                       return v.is_null() || v.AsInt64() % 2 == 0;
                     }),
      where("grade >= 1 AND grade < 4 OR grade IS NULL"),
      where("NOT grade IN (2, 3)"),
  };
  auto check = [&](const std::string& stage) {
    for (size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(stage + " threads=" + std::to_string(threads));
      QueryOptions options;
      options.exec.num_threads = threads;
      for (size_t i = 0; i < battery.size(); ++i) {
        SCOPED_TRACE("predicate " + std::to_string(i));
        const Predicate& pred = battery[i];
        auto count = pt.Count(pred, options);
        ASSERT_TRUE(count.ok()) << count.status().ToString();
        // The Direct engine's vectorized row scan counts the same rows.
        auto matching = ExecuteAggregate(
            pt.relation(), AggregateQuery::Count(pred), options.exec);
        ASSERT_TRUE(matching.ok()) << matching.status().ToString();
        EXPECT_EQ(count->nominal, *matching);
        QueryScanStats scan;
        scan.total_rows = pt.size();
        scan.matching_rows = static_cast<size_t>(*matching);
        auto scanned =
            EstimateCount(scan, *pt.InputsForPredicate(pred, "", options));
        ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
        ByteSink got;
        ByteSink want;
        for (const auto& [sink, r] : {std::pair{&got, &*count},
                                      std::pair{&want, &*scanned}}) {
          sink->AppendDoubleBits(r->estimate);
          sink->AppendDoubleBits(r->ci.lo);
          sink->AppendDoubleBits(r->ci.hi);
          sink->AppendDoubleBits(r->nominal);
        }
        EXPECT_TRUE(std::move(got).Finish() == std::move(want).Finish());
      }
      for (const char* attribute : {"city", "grade"}) {
        const Column& col = **pt.relation().ColumnByName(attribute);
        std::map<Value, size_t> rows;
        for (size_t r = 0; r < col.size(); ++r) ++rows[col.ValueAt(r)];
        auto groups = pt.GroupByCountEstimate(attribute, options);
        ASSERT_TRUE(groups.ok()) << groups.status().ToString();
        EXPECT_EQ(groups->size(), rows.size());
        for (const auto& [key, result] : *groups) {
          EXPECT_EQ(result.nominal, static_cast<double>(rows[key]))
              << attribute << " group " << key.ToString();
        }
      }
    }
  };
  check("before cleaning");
  ASSERT_TRUE(pt.Clean(FindReplace("city", {{Value("c1"), Value("c0")},
                                            {Value("c4"), Value::Null()},
                                            {Value::Null(), Value("filled")}}))
                  .ok());
  ASSERT_TRUE(pt.Clean(FindReplace::Single("grade", Value(int64_t{5}),
                                           Value(int64_t{0})))
                  .ok());
  check("after cleaning");
}

}  // namespace
}  // namespace privateclean
