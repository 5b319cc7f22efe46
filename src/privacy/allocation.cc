#include "privacy/allocation.h"

#include "privacy/laplace_mechanism.h"

namespace privateclean {

Result<GrrParams> AllocateEpsilonBudget(
    const Table& table, double total_epsilon,
    const std::unordered_map<std::string, double>& weights,
    MechanismFamily mechanism) {
  if (!(total_epsilon > 0.0)) {
    return Status::InvalidArgument("total epsilon budget must be > 0");
  }
  const Schema& schema = table.schema();
  if (schema.num_fields() == 0) {
    return Status::InvalidArgument("relation has no attributes");
  }
  for (const auto& [name, weight] : weights) {
    if (!schema.HasField(name)) {
      return Status::NotFound("weight given for unknown attribute '" +
                              name + "'");
    }
    if (!(weight > 0.0)) {
      return Status::InvalidArgument("weight for '" + name +
                                     "' must be > 0");
    }
  }

  double total_weight = 0.0;
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    auto it = weights.find(schema.field(i).name);
    total_weight += it != weights.end() ? it->second : 1.0;
  }

  GrrParams params;
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    const Field& field = schema.field(i);
    auto it = weights.find(field.name);
    double weight = it != weights.end() ? it->second : 1.0;
    double eps_i = total_epsilon * weight / total_weight;
    if (field.kind == AttributeKind::kDiscrete) {
      PCLEAN_ASSIGN_OR_RETURN(double p, ParamForEpsilon(mechanism, eps_i));
      params.discrete_p.emplace(field.name, p);
    } else {
      PCLEAN_ASSIGN_OR_RETURN(double delta, AttributeSensitivity(table, i));
      if (delta == 0.0) {
        // Constant column: carries no information, any noise works.
        params.numeric_b.emplace(field.name, 0.0);
      } else {
        PCLEAN_ASSIGN_OR_RETURN(double b,
                                LaplaceScaleForEpsilon(delta, eps_i));
        params.numeric_b.emplace(field.name, b);
      }
    }
  }
  return params;
}

}  // namespace privateclean
