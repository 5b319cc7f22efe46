// Constraint-based cleaning on a private relation (the paper's TPC-DS
// scenario, §8.3.4). The customer_address projection carries two data
// quality constraints:
//
//   FD:  (ca_city, ca_county) -> ca_state
//   MD:  ca_country ~ ca_country under edit distance <= 1
//
// The provider releases a privatized copy of the corrupted table; the
// analyst detects the violations on the private relation, repairs them
// with the standard algorithms (majority-vote FD repair, edit-distance
// MD clustering), and runs GROUP BY-style counts with corrected
// estimates.

#include <cstdio>

#include "core/privateclean.h"
#include "datagen/tpcds.h"

using namespace privateclean;

int main() {
  Rng rng(95054);
  TpcdsOptions options;
  options.num_rows = 2000;
  Table address = *GenerateCustomerAddress(options, rng);

  // Corrupt it the way the paper does: random state replacements (FD
  // violations) and one-character country typos (MD violations).
  if (!CorruptStates(&address, 150, rng).ok()) return 1;
  if (!CorruptCountries(&address, 150, rng).ok()) return 1;

  auto fd_violations = FindFdViolations(address, CustomerAddressFd());
  auto md_clusters = FindMdClusters(address, CustomerAddressMd());
  std::printf("customer_address: %zu rows\n", address.num_rows());
  std::printf("  FD %s: %zu violating groups\n",
              CustomerAddressFd().ToString().c_str(),
              fd_violations->size());
  std::printf("  %s: %zu mergeable clusters\n\n",
              CustomerAddressMd().ToString().c_str(),
              md_clusters->size());

  // --- Provider: privatize the (still dirty) table ----------------------
  auto private_table = PrivateTable::Create(
      address, GrrParams::Uniform(/*p=*/0.1, /*b=*/0.0), GrrOptions{}, rng);
  if (!private_table.ok()) {
    std::fprintf(stderr, "privatize: %s\n",
                 private_table.status().ToString().c_str());
    return 1;
  }

  // --- Analyst: repair both constraints on the private relation ---------
  CleaningPipeline pipeline;
  pipeline.Emplace<FdRepair>(CustomerAddressFd());
  pipeline.Emplace<MdRepair>(CustomerAddressMd());
  Status st = private_table->Clean(pipeline);
  if (!st.ok()) {
    std::fprintf(stderr, "clean: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("Applied pipeline: %zu stages\n", pipeline.size());
  for (const std::string& stage : pipeline.StageNames()) {
    std::printf("  - %s\n", stage.c_str());
  }

  // Ground truth: the same repairs on the non-private dirty table.
  Table truth = address.Clone();
  if (!FdRepair(CustomerAddressFd()).Apply(&truth).ok()) return 1;
  if (!MdRepair(CustomerAddressMd()).Apply(&truth).ok()) return 1;

  // --- GROUP BY ca_country via corrected per-group counts ---------------
  auto truth_groups = *GroupByCount(truth, "ca_country");
  std::printf("\nGROUP BY ca_country (top groups):\n");
  std::printf("  %-16s %10s %14s %10s\n", "country", "true",
              "PrivateClean", "Direct");
  int shown = 0;
  // std::map iterates alphabetically; show the 5 largest instead.
  std::vector<std::pair<Value, size_t>> sorted(truth_groups.begin(),
                                               truth_groups.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  for (const auto& [country, true_count] : sorted) {
    if (shown++ >= 5) break;
    Predicate pred = Predicate::Equals("ca_country", country);
    auto pc = private_table->Count(pred);
    auto direct = private_table->ExecuteDirect(AggregateQuery::Count(pred));
    std::printf("  %-16s %10zu %14.1f %10.1f\n",
                country.ToString().c_str(), true_count,
                pc.ok() ? pc->estimate : -1.0,
                direct.ok() ? direct->estimate : -1.0);
  }

  // Provenance introspection: the country graph shows the MD merges.
  auto graph = private_table->ProvenanceFor("ca_country");
  if (graph.ok()) {
    std::printf("\nProvenance(ca_country): %zu dirty values -> %zu clean "
                "values, %zu edges, fork-free=%s\n",
                (*graph)->num_dirty_values(), (*graph)->num_clean_values(),
                (*graph)->num_edges(),
                (*graph)->is_fork_free() ? "yes" : "no");
  }
  return 0;
}
