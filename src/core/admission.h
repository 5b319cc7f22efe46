#ifndef PRIVATECLEAN_CORE_ADMISSION_H_
#define PRIVATECLEAN_CORE_ADMISSION_H_

#include <ostream>
#include <string>

#include "core/private_table.h"
#include "core/sql_execution.h"
#include "privacy/ledger.h"
#include "query/sql.h"

namespace privateclean {

/// The ε price of one parsed query against `table`'s mechanism
/// metadata: the sum of per-attribute ε (privacy/accountant.h, mechanism
/// aware) over the distinct attributes the query reads — the WHERE tree,
/// the aggregate's argument, GROUP BY, and DISTINCT. A query touching no
/// attribute (a bare COUNT(1)) costs 0: it reveals only the public
/// release size. An attribute the relation does not have is a typed
/// NotFound naming it — priced queries never reach execution to find
/// out there.
Result<double> QueryEpsilonCost(const PrivateTable& table,
                                const ParsedSql& parsed);

/// What admission decided for a query it let through.
struct AdmissionTicket {
  /// The ε charged (0 = free query, nothing was written to the ledger).
  double cost = 0.0;
  /// The tenant's budget BEFORE this charge (all-zero for a tenant the
  /// ledger has never seen, which can only admit free queries).
  TenantBudget before;
};

/// Admission control: prices `sql` with QueryEpsilonCost and charges the
/// tenant's budget in `ledger` — durably, BEFORE any execution side
/// effect. Typed failures:
///   ResourceExhausted — the charge overdrafts; names the tenant, spent,
///                       and remaining ε. Nothing is charged.
///   InvalidArgument   — the SQL does not parse.
///   NotFound          — the query references an attribute the relation
///                       does not have (nothing is charged), or the FROM
///                       name is not the relation the table serves.
Result<AdmissionTicket> AdmitSqlQuery(BudgetLedger& ledger,
                                      const std::string& tenant,
                                      const PrivateTable& table,
                                      const std::string& sql);

/// Renders the one-line charge acknowledgement `pclean query` prints
/// after admission ("charged epsilon E to tenant 't' (remaining R)").
/// The server prepends the same line to a served RESULT, so a charged
/// answer is byte-identical locally and over the wire. `after` is the
/// tenant's budget after the charge (BudgetLedger::BudgetOrZero).
std::string RenderAdmissionLine(const std::string& tenant,
                                const AdmissionTicket& ticket,
                                const TenantBudget& after);

/// Answers one SQL request: the text `pclean query` prints and `pclean
/// serve` sends as a RESULT payload. With a `ledger`, AdmitSqlQuery
/// charges `tenant` and RenderAdmissionLine is written first; then the
/// query runs (ExecuteSqlQueryDirect when `direct`, else
/// ExecuteSqlQuery) and RenderSqlResultText writes its result. The
/// charge is durable before the estimators run, so a crash mid-query can
/// strand at most this one query's ε as spent-but-unanswered — never an
/// answered query as unspent. A query that fails after its charge
/// returns the failure with the admission line already written. The CLI
/// and the server both call this one body, which is what keeps a served
/// answer byte-identical to a local one.
Status AnswerSqlQuery(const PrivateTable& table, const std::string& sql,
                      bool direct, const QueryOptions& options,
                      BudgetLedger* ledger, const std::string& tenant,
                      std::ostream& out);

}  // namespace privateclean

#endif  // PRIVATECLEAN_CORE_ADMISSION_H_
