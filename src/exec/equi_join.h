#ifndef N2J_EXEC_EQUI_JOIN_H_
#define N2J_EXEC_EQUI_JOIN_H_

#include <string>
#include <vector>

#include "adl/expr.h"
#include "adl/value.h"

namespace n2j {

/// Decomposition of a join predicate p(x, y) into hashable equi-key pairs
/// plus a residual conjunction:
///
///   p  =  (k1_l(x) = k1_r(y)) ∧ ... ∧ residual(x, y)
///
/// This is what lets the logical join operators produced by the paper's
/// rewrites ("so that the optimizer may choose from a number of different
/// join processing strategies", Section 5.1) run as hash joins.
struct EquiJoinKeys {
  std::vector<ExprPtr> left_keys;   // functions of the left variable
  std::vector<ExprPtr> right_keys;  // functions of the right variable
  std::vector<ExprPtr> residual;    // remaining conjuncts (may be empty)

  /// True when at least one equi-key pair was extracted.
  bool usable() const { return !left_keys.empty(); }

  /// Short annotation for trace spans: "keys=2 residual=1" (the residual
  /// part is omitted when empty).
  std::string Describe() const;
};

/// Analyzes `pred` (with bound variables `lvar`, `rvar`). A conjunct
/// `e1 = e2` becomes a key pair when one side mentions only `lvar` (plus
/// outer variables) and the other only `rvar`. Everything else lands in
/// `residual`.
EquiJoinKeys ExtractEquiKeys(const ExprPtr& pred, const std::string& lvar,
                             const std::string& rvar);

/// The membership conjunct of a join predicate p(x, y), in one of two
/// forms:
///
///   f(y) ∈ x.attr                  (elem_key null: probe with the element)
///   ∃v ∈ x.attr · k(v) = f(y)      (probe with k(element))
///
/// A membership join builds a hash table on f(y) over the right operand
/// and probes it once per element of each left tuple's set attribute.
/// The evaluator (Evaluator::MembershipJoin) and the cost planner
/// (ChooseJoin) both recognize the pattern here, so the planner prices
/// exactly the plan the evaluator runs.
struct MembershipKey {
  ExprPtr right_key;             // f(y)
  std::string attr;              // the left set-valued attribute
  std::string elem_var;          // v (empty for the plain ∈ form)
  ExprPtr elem_key;              // k(v) (null for the plain ∈ form)
  std::vector<ExprPtr> residual;  // every other conjunct
  bool found = false;
};

/// Analyzes `pred` (with bound variables `lvar`, `rvar`); the first
/// matching conjunct becomes the key.
MembershipKey ExtractMembershipKey(const ExprPtr& pred,
                                   const std::string& lvar,
                                   const std::string& rvar);

/// Hash/sort key built from evaluated equi-key expressions. A single key
/// is returned bare — no tuple wrap — since join keys only ever meet
/// keys built the same way from the matching key list; composite keys
/// share one interned "k0","k1",... shape per arity.
Value JoinKeyFromParts(std::vector<Value> parts);

/// The interned "k0","k1",...,"k<n-1>" shape composite join keys use,
/// cached per arity. Exposed so the bytecode compiler can lower key
/// construction to the exact tuple JoinKeyFromParts would build.
const TupleShape* JoinKeyShape(size_t n);

}  // namespace n2j

#endif  // N2J_EXEC_EQUI_JOIN_H_
