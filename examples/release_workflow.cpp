// The full provider -> analyst handoff through a release directory.
//
// The provider privatizes a dirty relation under a total epsilon budget
// and writes a self-contained release (binary column payloads, the
// mechanism metadata in the MANIFEST, randomization-time domains). A
// separate analyst process — simulated
// here by forgetting everything except the directory path — opens the
// release cold, cleans it, and queries it with corrected estimates.
// Everything in the release is a public parameter of the mechanism, so
// shipping it does not weaken the epsilon guarantee.

#include <cstdio>
#include <filesystem>

#include "core/privateclean.h"
#include "datagen/error_injection.h"
#include "datagen/synthetic.h"

using namespace privateclean;

namespace {

/// Provider side: build dirty data, privatize under an epsilon budget,
/// write the release. Returns the repair map the analyst will apply and
/// the ground truth needed to score the demo (a real provider would
/// keep neither).
struct ProviderOutput {
  std::unordered_map<Value, Value, ValueHash> repair_map;
  double truth_count = 0.0;
};

Result<ProviderOutput> RunProvider(const std::string& dir) {
  Rng rng(77);
  SyntheticOptions options;
  options.num_rows = 2000;
  PCLEAN_ASSIGN_OR_RETURN(Table base, GenerateSynthetic(options, rng));
  PCLEAN_ASSIGN_OR_RETURN(
      InjectionResult injected,
      InjectMixedErrors(base, "category", /*error_rate=*/0.3,
                        /*merge_fraction=*/0.5, rng));

  const double budget = 4.0;
  PCLEAN_ASSIGN_OR_RETURN(GrrParams params,
                          AllocateEpsilonBudget(injected.dirty, budget));
  PCLEAN_ASSIGN_OR_RETURN(
      GrrOutput grr, ApplyGrr(injected.dirty, params, GrrOptions{}, rng));
  PCLEAN_RETURN_NOT_OK(WriteRelease(grr, dir));
  PCLEAN_ASSIGN_OR_RETURN(PrivacyReport report,
                          AccountPrivacy(grr.metadata));
  std::printf("[provider] wrote release to %s (S=%zu, epsilon=%.3f)\n",
              dir.c_str(), grr.table.num_rows(), report.total_epsilon);

  ProviderOutput out;
  out.repair_map = injected.repair_map;
  Predicate pred = Predicate::In(
      "category", {SyntheticCategory(0), SyntheticCategory(1),
                   SyntheticCategory(2)});
  PCLEAN_ASSIGN_OR_RETURN(
      out.truth_count,
      ExecuteAggregate(injected.clean, AggregateQuery::Count(pred)));
  return out;
}

/// Analyst side: open the release cold, clean, query.
Status RunAnalyst(const std::string& dir,
                  const std::unordered_map<Value, Value, ValueHash>&
                      repair_map,
                  double truth_count) {
  PCLEAN_ASSIGN_OR_RETURN(PrivateTable pt, OpenRelease(dir));
  std::printf("[analyst]  opened release: %zu rows, epsilon=%.3f\n",
              pt.size(), pt.PrivacyAccounting()->total_epsilon);

  PCLEAN_RETURN_NOT_OK(pt.Clean(FindReplace("category", repair_map)));
  std::printf("[analyst]  repaired %zu value-level errors\n",
              repair_map.size());

  Predicate pred = Predicate::In(
      "category", {SyntheticCategory(0), SyntheticCategory(1),
                   SyntheticCategory(2)});
  PCLEAN_ASSIGN_OR_RETURN(QueryResult count, pt.Count(pred));
  PCLEAN_ASSIGN_OR_RETURN(
      QueryResult direct, pt.ExecuteDirect(AggregateQuery::Count(pred)));
  std::printf("[analyst]  count(category in top-3):\n");
  std::printf("             PrivateClean %.1f  95%% CI [%.1f, %.1f]\n",
              count.estimate, count.ci.lo, count.ci.hi);
  std::printf("             Direct       %.1f\n", direct.estimate);
  std::printf("             (truth, known only to this demo: %.0f)\n",
              truth_count);

  // Corrected GROUP BY over the whole cleaned domain.
  PCLEAN_ASSIGN_OR_RETURN(auto groups, pt.GroupByCountEstimate("category"));
  std::printf("[analyst]  corrected GROUP BY category: %zu groups, "
              "estimates sum to %.1f\n",
              groups.size(), [&] {
                double total = 0.0;
                for (const auto& [value, r] : groups) total += r.estimate;
                return total;
              }());
  return Status::OK();
}

}  // namespace

int main() {
  std::string dir =
      (std::filesystem::temp_directory_path() / "privateclean_release")
          .string();
  auto provider = RunProvider(dir);
  if (!provider.ok()) {
    std::fprintf(stderr, "provider: %s\n",
                 provider.status().ToString().c_str());
    return 1;
  }
  Status st = RunAnalyst(dir, provider->repair_map, provider->truth_count);
  if (!st.ok()) {
    std::fprintf(stderr, "analyst: %s\n", st.ToString().c_str());
    return 1;
  }
  std::filesystem::remove_all(dir);
  return 0;
}
