#ifndef N2J_REWRITE_REWRITER_H_
#define N2J_REWRITE_REWRITER_H_

#include <string>
#include <vector>

#include "adl/expr.h"
#include "adl/schema.h"
#include "common/result.h"
#include "storage/database.h"

namespace n2j {

/// How to unnest queries that require grouping (Section 5.2.2 / 6.1).
enum class GroupingMode {
  /// Use the nestjoin operator (Section 6.1) — always correct.
  kNestJoin,
  /// Use the relational grouping technique of [Kim82, GaWo87]
  /// (join + nest + select + project) when the Complex-Object-bug
  /// analysis proves it safe (P(x, ∅) statically false); otherwise fall
  /// back to the nestjoin.
  kGroupingWhenSafe,
  /// Always use the relational grouping technique, even when unsafe.
  /// Exists to *demonstrate* the Complex Object bug (Figure 2, Table 3);
  /// never use in production.
  kForceGroupingUnsafe,
  /// Leave grouping-requiring queries as nested loops.
  kNone,
};

/// Pass toggles, mainly for the strategy-ablation benchmark. Defaults
/// implement the paper's full priority strategy (Section 4).
struct RewriteOptions {
  bool enable_simplify = true;        // σ[true], α[x:x], const folding
  bool enable_from_merge = true;      // from-clause composition removal
  bool enable_setcmp = true;          // Tables 1 & 2
  bool enable_quantifier = true;      // range merge, NNF, exchange, Rule 1
  bool enable_map_join = true;        // Rule 2
  bool enable_unnest_attr = true;     // option 1 (attribute unnesting)
  bool enable_hoist = true;           // uncorrelated subqueries → let
  bool enable_pushdown = true;        // selection pushdown through joins
  GroupingMode grouping = GroupingMode::kNestJoin;
  int max_rounds = 8;

  bool operator==(const RewriteOptions&) const = default;
};

/// One rewrite step, for explain output and tests.
struct RuleApplication {
  std::string rule;    // e.g. "Rule1-ExistsToSemiJoin"
  std::string detail;  // human-readable description of the site
};

/// The rewriter's verdict on the Complex Object bug for a grouping
/// candidate (Table 3): the static value of P(x, ∅).
enum class TriBool { kFalse, kTrue, kUnknown };
const char* TriBoolName(TriBool t);

struct RewriteResult {
  ExprPtr expr;
  std::vector<RuleApplication> trace;

  /// True if some rule of the given name fired.
  bool Fired(const std::string& rule) const;
  std::string TraceToString() const;
};

/// Rewrites a (translated) ADL expression per the paper's priority
/// strategy:
///   1. relational join operators (Rule 1, Rule 2, via Tables 1/2 and
///      the quantifier-exchange heuristic),
///   2. unnesting of set-valued attributes,
///   3. new operators (nestjoin),
///   4. residual nesting stays — nested-loop execution.
///
/// `db` may be null (only class extents resolve as base tables then);
/// with it, plain tables type-check too.
class Rewriter {
 public:
  Rewriter(const Schema& schema, const Database* db,
           RewriteOptions options = RewriteOptions())
      : schema_(schema), db_(db), options_(options) {}

  Result<RewriteResult> Rewrite(const ExprPtr& e) const;

  const RewriteOptions& options() const { return options_; }

 private:
  const Schema& schema_;
  const Database* db_;
  RewriteOptions options_;
};

/// Statically evaluates predicate `pred` under the assumption that the
/// subexpression `subquery` (a set) is empty, three-valued (Table 3).
/// Exposed for tests and the Table 3 benchmark.
TriBool StaticValueWithEmptySubquery(const ExprPtr& pred,
                                     const ExprPtr& subquery);

}  // namespace n2j

#endif  // N2J_REWRITE_REWRITER_H_
