#ifndef PRIVATECLEAN_TESTS_CONJUNCTIVE_REFERENCE_H_
#define PRIVATECLEAN_TESTS_CONJUNCTIVE_REFERENCE_H_

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/conjunctive.h"
#include "query/vectorized.h"
#include "table/domain.h"
#include "table/row_index.h"

namespace privateclean {
namespace testing_reference {

/// The quadrant counts of (cond_a, cond_b) from each predicate's full row
/// mask (CompiledPredicate::EvaluateAll): a scan of every row, which the
/// row-index counts of core/conjunctive.h must equal.
inline ConjunctiveScanStats ReferenceQuadrants(
    const Table& table, const Predicate& cond_a, const Predicate& cond_b) {
  std::vector<uint8_t> a = *CompiledPredicate::Compile(table, cond_a)
                                ->EvaluateAll(table.num_rows());
  std::vector<uint8_t> b = *CompiledPredicate::Compile(table, cond_b)
                                ->EvaluateAll(table.num_rows());
  ConjunctiveScanStats stats;
  stats.total_rows = table.num_rows();
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (a[r] && b[r]) ++stats.count_tt;
    if (a[r] && !b[r]) ++stats.count_tf;
    if (!a[r] && b[r]) ++stats.count_ft;
    if (!a[r] && !b[r]) ++stats.count_ff;
  }
  return stats;
}

/// The RowIndex of `attribute` in `table`, built at `threads` threads.
inline RowIndex TestRowIndex(const Table& table, const std::string& attribute,
                             size_t threads = 1) {
  ExecutionOptions exec;
  exec.num_threads = threads;
  return *BuildRowIndex(ColumnCodes(**table.ColumnByName(attribute)), exec);
}

inline void ExpectQuadrantsEqual(const ConjunctiveScanStats& got,
                                 const ConjunctiveScanStats& want) {
  EXPECT_EQ(got.total_rows, want.total_rows);
  EXPECT_EQ(got.count_tt, want.count_tt);
  EXPECT_EQ(got.count_tf, want.count_tf);
  EXPECT_EQ(got.count_ft, want.count_ft);
  EXPECT_EQ(got.count_ff, want.count_ff);
}

}  // namespace testing_reference
}  // namespace privateclean

#endif  // PRIVATECLEAN_TESTS_CONJUNCTIVE_REFERENCE_H_
