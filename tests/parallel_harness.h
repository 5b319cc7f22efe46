#ifndef PRIVATECLEAN_TESTS_PARALLEL_HARNESS_H_
#define PRIVATECLEAN_TESTS_PARALLEL_HARNESS_H_

// Reusable determinism harness for sharded operations.
//
// The engine's contract (common/thread_pool.h) is that thread count never
// affects results: shard layout is a function of the item count alone,
// per-shard randomness forks by shard index, and partials merge in shard
// index order. This header checks that contract end to end: run the same
// operation at 1, 2, and 8 threads and require the *serialized bytes* of
// the results to be identical.
//
// Serialization is bit-exact, not value-approximate: doubles are appended
// as their raw IEEE-754 bit patterns, so a merge-order change that flips
// the last ulp — or produces -0.0 instead of 0.0 — fails the test even
// though EXPECT_DOUBLE_EQ would pass.
//
// Usage:
//
//   ExpectIdenticalAcrossThreadCounts([&](const ExecutionOptions& exec) {
//     ByteSink sink;
//     sink.AppendTable(*SomeShardedOperation(input, exec));
//     return std::move(sink).Finish();
//   });

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "table/domain.h"
#include "table/table.h"
#include "table/value.h"

namespace privateclean {

/// Accumulates a bit-exact byte image of a result. Every append is
/// length- or tag-prefixed so distinct structures cannot collide.
class ByteSink {
 public:
  void AppendU64(uint64_t v) {
    char buf[sizeof v];
    std::memcpy(buf, &v, sizeof v);
    bytes_.append(buf, sizeof v);
  }

  /// Raw IEEE-754 bits: distinguishes -0.0 from 0.0 and NaN payloads.
  void AppendDoubleBits(double v) {
    uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    AppendU64(bits);
  }

  void AppendString(const std::string& s) {
    AppendU64(s.size());
    bytes_.append(s);
  }

  void AppendValue(const Value& v) {
    AppendU64(static_cast<uint64_t>(v.type()));
    switch (v.type()) {
      case ValueType::kNull:
        break;
      case ValueType::kInt64:
        AppendU64(static_cast<uint64_t>(v.AsInt64()));
        break;
      case ValueType::kDouble:
        AppendDoubleBits(v.AsDouble());
        break;
      case ValueType::kString:
        AppendString(v.AsString());
        break;
    }
  }

  /// Schema names/types plus every cell, row-major.
  void AppendTable(const Table& table) {
    AppendU64(table.num_rows());
    AppendU64(table.num_columns());
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const Field& field = table.schema().field(c);
      AppendString(field.name);
      AppendU64(static_cast<uint64_t>(field.type));
      AppendU64(static_cast<uint64_t>(field.kind));
    }
    for (size_t r = 0; r < table.num_rows(); ++r) {
      for (size_t c = 0; c < table.num_columns(); ++c) {
        AppendValue(table.column(c).ValueAt(r));
      }
    }
  }

  std::string Finish() && { return std::move(bytes_); }

 private:
  std::string bytes_;
};

/// Bit-exact image of a provenance graph in O(edges): sizes,
/// fork-freeness, then per clean value in clean-domain order its value,
/// its frequency and its parents (ParentSet, the order of its edge list)
/// with their values and edge weights, plus the WeightedSelectivity bits
/// of the whole clean domain (which sum in that order). `Graph` is
/// ProvenanceGraph or a test reference with its index-based accessors.
template <typename Graph>
void AppendProvenanceGraph(ByteSink* sink, const Graph& g) {
  sink->AppendU64(g.num_dirty_values());
  sink->AppendU64(g.num_clean_values());
  sink->AppendU64(g.num_edges());
  sink->AppendU64(g.is_fork_free() ? 1 : 0);
  const Domain& clean = g.clean_domain();
  std::vector<size_t> all_clean(clean.size());
  for (size_t i = 0; i < clean.size(); ++i) {
    all_clean[i] = i;
    sink->AppendValue(clean.value(i));
    sink->AppendU64(clean.frequency(i));
    const std::vector<size_t> parents = g.ParentSet({i});
    sink->AppendU64(parents.size());
    for (size_t d : parents) {
      sink->AppendValue(g.dirty_domain().value(d));
      sink->AppendDoubleBits(g.EdgeWeight(d, i));
    }
  }
  sink->AppendDoubleBits(g.WeightedSelectivity(all_clean));
}

/// Asserts the physical storage of two columns is identical: type,
/// validity, null count, and the int64 values, double bit patterns, or
/// dictionary (in code order) plus code array.
inline void ExpectColumnsBitIdentical(const Column& got, const Column& want,
                                      const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(got.type(), want.type());
  ASSERT_EQ(got.validity(), want.validity());
  EXPECT_EQ(got.null_count(), want.null_count());
  switch (want.type()) {
    case ValueType::kInt64:
      EXPECT_EQ(got.ints(), want.ints());
      break;
    case ValueType::kDouble:
      ASSERT_EQ(got.doubles().size(), want.doubles().size());
      for (size_t r = 0; r < want.doubles().size(); ++r) {
        uint64_t got_bits;
        uint64_t want_bits;
        std::memcpy(&got_bits, &got.doubles()[r], sizeof got_bits);
        std::memcpy(&want_bits, &want.doubles()[r], sizeof want_bits);
        ASSERT_EQ(got_bits, want_bits) << "row " << r;
      }
      break;
    default:
      EXPECT_EQ(got.dictionary().values(), want.dictionary().values());
      EXPECT_EQ(got.codes(), want.codes());
  }
}

/// Runs `op` (an invocable taking `const ExecutionOptions&` and returning
/// the serialized byte image of its result) at 1, 2, and 8 threads and
/// asserts the bytes are identical to the single-threaded run.
template <typename Op>
void ExpectIdenticalAcrossThreadCounts(Op&& op) {
  ExecutionOptions exec;
  exec.num_threads = 1;
  const std::string base = op(static_cast<const ExecutionOptions&>(exec));
  for (size_t threads : {2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    exec.num_threads = threads;
    const std::string run = op(static_cast<const ExecutionOptions&>(exec));
    // Compare sizes first for a readable failure; the content check is
    // EQ on the full byte strings (gtest prints a bounded diff).
    ASSERT_EQ(run.size(), base.size());
    EXPECT_TRUE(run == base)
        << "serialized result differs from the single-threaded run";
  }
}

}  // namespace privateclean

#endif  // PRIVATECLEAN_TESTS_PARALLEL_HARNESS_H_
