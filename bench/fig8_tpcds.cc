// Figure 8: constraint-based cleaning on the TPC-DS-like
// customer_address table (paper §8.3.4).
//   8a  FD repair of corrupted ca_state via (ca_city, ca_county) ->
//       ca_state; heuristic repair is imperfect, so PrivateClean's error
//       grows with the corruption count (unlike Figure 5).
//   8b  MD repair of one-character ca_country corruptions via edit
//       distance; resolution is unique and merges domain values, so the
//       PrivateClean-vs-Direct gap is larger than in 8a.
// Queries are the paper's GROUP BY counts, evaluated per group.

#include <cstdio>

#include "bench/harness.h"
#include "cleaning/fd_repair.h"
#include "cleaning/md_repair.h"
#include "datagen/tpcds.h"

using namespace privateclean;
using namespace privateclean::bench;

namespace {

constexpr size_t kRows = 2000;

/// Draws a random group value of `attribute` from the truth table,
/// weighted toward populated groups (row-uniform).
AggregateQuery RandomGroupCount(const Table& truth_table,
                                const std::string& attribute, Rng& rng) {
  const Column& col = **truth_table.ColumnByName(attribute);
  size_t row = static_cast<size_t>(rng.UniformInt(col.size()));
  return AggregateQuery::Count(
      Predicate::Equals(attribute, col.ValueAt(row)));
}

}  // namespace

int main() {
  const std::vector<double> corruption_counts{0, 50, 100, 200, 300, 400};

  // --- 8a: FD repair on ca_state ---------------------------------------
  {
    Series pc{"PrivateClean", {}};
    Series direct{"Direct", {}};
    for (double corruptions : corruption_counts) {
      Rng rng(900 + static_cast<uint64_t>(corruptions));
      TpcdsOptions options;
      options.num_rows = kRows;
      Table dirty = *GenerateCustomerAddress(options, rng);
      if (!CorruptStates(&dirty, static_cast<size_t>(corruptions), rng)
               .ok()) {
        return 1;
      }
      Table truth_table = dirty.Clone();
      if (!FdRepair(CustomerAddressFd()).Apply(&truth_table).ok()) return 1;

      RandomQuerySpec spec;
      spec.data = &dirty;
      spec.truth_table = &truth_table;
      spec.params = GrrParams::Uniform(0.1, 1.0);
      spec.clean = [](PrivateTable& pt) {
        return pt.Clean(FdRepair(CustomerAddressFd()));
      };
      const Table* truth_ptr = &truth_table;
      spec.make_query = [truth_ptr](Rng& qrng) {
        return RandomGroupCount(*truth_ptr, "ca_state", qrng);
      };
      spec.num_queries = 8;
      spec.trials_per_query = 8;
      spec.query_seed = 4248;
      spec.min_predicate_rows = 40;
      spec.seed_base = 47000 + static_cast<uint64_t>(corruptions);
      auto r = RunRandomQueryComparison(spec);
      pc.values.push_back(r.ok() ? r->privateclean_pct : -1);
      direct.values.push_back(r.ok() ? r->direct_pct : -1);
    }
    PrintFigure(
        "Figure 8a: GROUP BY ca_state count error % vs #state "
        "corruptions (FD repair, p=0.1)",
        "corruptions", corruption_counts, {pc, direct});
  }

  // --- 8b: MD repair on ca_country --------------------------------------
  {
    Series pc{"PrivateClean", {}};
    Series direct{"Direct", {}};
    for (double corruptions : corruption_counts) {
      Rng rng(1900 + static_cast<uint64_t>(corruptions));
      TpcdsOptions options;
      options.num_rows = kRows;
      Table dirty = *GenerateCustomerAddress(options, rng);
      if (!CorruptCountries(&dirty, static_cast<size_t>(corruptions), rng)
               .ok()) {
        return 1;
      }
      Table truth_table = dirty.Clone();
      if (!MdRepair(CustomerAddressMd()).Apply(&truth_table).ok()) return 1;

      RandomQuerySpec spec;
      spec.data = &dirty;
      spec.truth_table = &truth_table;
      spec.params = GrrParams::Uniform(0.1, 1.0);
      spec.clean = [](PrivateTable& pt) {
        return pt.Clean(MdRepair(CustomerAddressMd()));
      };
      const Table* truth_ptr = &truth_table;
      spec.make_query = [truth_ptr](Rng& qrng) {
        return RandomGroupCount(*truth_ptr, "ca_country", qrng);
      };
      spec.num_queries = 8;
      spec.trials_per_query = 8;
      spec.query_seed = 4249;
      spec.min_predicate_rows = 40;
      spec.seed_base = 53000 + static_cast<uint64_t>(corruptions);
      auto r = RunRandomQueryComparison(spec);
      pc.values.push_back(r.ok() ? r->privateclean_pct : -1);
      direct.values.push_back(r.ok() ? r->direct_pct : -1);
    }
    PrintFigure(
        "Figure 8b: GROUP BY ca_country count error % vs #country "
        "corruptions (MD repair, p=0.1)",
        "corruptions", corruption_counts, {pc, direct});
  }
  return ExitCode();
}
