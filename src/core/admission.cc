#include "core/admission.h"

#include <set>
#include <vector>

#include "common/string_util.h"
#include "privacy/accountant.h"
#include "query/sql_expr.h"

namespace privateclean {

Result<double> QueryEpsilonCost(const PrivateTable& table,
                                const ParsedSql& parsed) {
  std::set<std::string> attributes;
  if (parsed.where.has_value()) {
    for (const std::string& a : SqlExprAttributes(*parsed.where)) {
      attributes.insert(a);
    }
  }
  if (!parsed.query.numeric_attribute.empty()) {
    attributes.insert(parsed.query.numeric_attribute);
  }
  if (!parsed.distinct_attribute.empty()) {
    attributes.insert(parsed.distinct_attribute);
  }
  if (!parsed.group_by.empty()) {
    attributes.insert(parsed.group_by);
  }
  if (attributes.empty()) return 0.0;

  PCLEAN_ASSIGN_OR_RETURN(PrivacyReport report,
                          AccountPrivacy(table.metadata()));
  double cost = 0.0;
  for (const std::string& attribute : attributes) {
    auto it = report.per_attribute_epsilon.find(attribute);
    if (it == report.per_attribute_epsilon.end()) {
      return Status::NotFound("attribute '" + attribute +
                              "' is not part of the private relation; "
                              "nothing was charged");
    }
    cost += it->second;
  }
  return cost;
}

Result<AdmissionTicket> AdmitSqlQuery(BudgetLedger& ledger,
                                      const std::string& tenant,
                                      const PrivateTable& table,
                                      const std::string& sql) {
  PCLEAN_ASSIGN_OR_RETURN(ParsedSql parsed, ParseSql(sql));
  // Reject a bad FROM name before pricing: admission must agree with
  // execution about which queries exist at all.
  const std::string& relation = table.metadata().relation_name;
  if (!relation.empty() && parsed.table_name != relation) {
    return Status::NotFound("unknown relation '" + parsed.table_name +
                            "' in FROM: this release serves relation '" +
                            relation + "'; nothing was charged");
  }
  PCLEAN_ASSIGN_OR_RETURN(double cost, QueryEpsilonCost(table, parsed));

  AdmissionTicket ticket;
  ticket.cost = cost;
  auto before = ledger.Budget(tenant);
  if (before.ok()) {
    ticket.before = *before;
  } else if (!before.status().IsNotFound()) {
    return before.status();
  }
  if (cost > 0.0) {
    // The durable charge IS the admission decision: Charge's
    // check-and-spend is atomic, so concurrent queries cannot jointly
    // overdraft, and its ResourceExhausted already names the tenant,
    // spent, and remaining ε.
    PCLEAN_RETURN_NOT_OK(ledger.Charge(tenant, cost));
  }
  return ticket;
}

std::string RenderAdmissionLine(const std::string& tenant,
                                const AdmissionTicket& ticket,
                                const TenantBudget& after) {
  return "charged epsilon " + FormatDouble(ticket.cost) + " to tenant '" +
         tenant + "' (remaining " + FormatDouble(after.remaining()) + ")\n";
}

Status AnswerSqlQuery(const PrivateTable& table, const std::string& sql,
                      bool direct, const QueryOptions& options,
                      BudgetLedger* ledger, const std::string& tenant,
                      std::ostream& out) {
  if (ledger != nullptr) {
    PCLEAN_ASSIGN_OR_RETURN(AdmissionTicket ticket,
                            AdmitSqlQuery(*ledger, tenant, table, sql));
    // A zero-cost query (no private attribute referenced) is admitted
    // even for a tenant the ledger has never seen; BudgetOrZero reads
    // such a tenant as all-zero.
    out << RenderAdmissionLine(tenant, ticket, ledger->BudgetOrZero(tenant));
  }
  PCLEAN_ASSIGN_OR_RETURN(SqlResultSet rs,
                          direct ? ExecuteSqlQueryDirect(table, sql, options.exec)
                                 : ExecuteSqlQuery(table, sql, options));
  RenderSqlResultText(rs, direct, options.confidence, out);
  return Status::OK();
}

}  // namespace privateclean
