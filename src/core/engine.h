#ifndef N2J_CORE_ENGINE_H_
#define N2J_CORE_ENGINE_H_

#include <memory>
#include <string>

#include "adl/expr.h"
#include "adl/type.h"
#include "common/result.h"
#include "core/plan_cache.h"
#include "exec/eval.h"
#include "opt/optimizer.h"
#include "rewrite/rewriter.h"
#include "storage/database.h"

namespace n2j {

class TraceCollector;

/// Everything the engine knows about one executed query, for explain
/// output and experiments.
struct QueryReport {
  std::string oosql;          // original query text (if it came from text)
  ExprPtr translated;         // naive ADL translation (nested loops)
  TypePtr type;               // inferred result type
  ExprPtr optimized;          // after the rewriter
  std::vector<RuleApplication> trace;  // fired rules
  /// Cost-based physical plan (PlanStrategy::kCost only; null under the
  /// paper's heuristic strategy). Owns the per-node annotations the
  /// evaluator dispatched on, plus the executed (possibly join-
  /// reordered) expression in plan->root.
  std::shared_ptr<const PhysicalPlan> plan;
  /// Shredded-backend plan description (EvalOptions::backend ==
  /// Backend::kShredded only; empty otherwise). The DAG of flat nodes
  /// the stitching executor ran — EXPLAIN's counterpart to `plan` above.
  std::string shred_plan;
  Value result;               // query result
  EvalStats exec_stats;       // operator counters of the final execution
  double rewrite_ms = 0.0;    // rewriter phase latency (0 on a cache hit)
  double eval_ms = 0.0;       // evaluation phase latency
  /// The query text was in the engine's plan cache: parse, translate and
  /// rewrite were skipped. Under the cost strategy the cached plan ran
  /// too, unless `plan_replanned`.
  bool plan_cache_hit = false;
  /// A cache hit whose plan was stale (a table it was priced on changed)
  /// and was redone from the cached rewrite.
  bool plan_replanned = false;
  /// Operator span tree of the execution (borrowed from the engine's
  /// EvalOptions::trace collector; null when tracing was off). Makes
  /// Explain() an EXPLAIN ANALYZE: per-operator wall time,
  /// cardinalities, and stats deltas.
  const TraceCollector* profile = nullptr;

  /// Human-readable explain block.
  std::string Explain() const;
};

/// The public façade: parse OOSQL → type-check/translate to ADL →
/// rewrite per the paper's strategy → evaluate.
///
/// Run() keeps what the front end (and, under PlanStrategy::kCost, the
/// planner) built for a query text in a plan cache that lives as long as
/// the engine. A repeated text goes straight to execution. The entry is
/// keyed by the text, the rewrite and planner options and the database's
/// catalog epoch. A cost plan is redone from the cached rewrite once a
/// table it was priced on has changed.
class QueryEngine {
 public:
  explicit QueryEngine(const Database* db,
                       RewriteOptions rewrite_options = RewriteOptions(),
                       EvalOptions eval_options = EvalOptions(),
                       PlannerOptions planner_options = PlannerOptions())
      : db_(db),
        rewrite_options_(rewrite_options),
        eval_options_(eval_options),
        planner_options_(planner_options) {}

  /// Runs an OOSQL query end to end.
  Result<QueryReport> Run(const std::string& oosql) const;

  /// Runs a hand-built ADL expression (skipping the front end).
  Result<QueryReport> RunAdl(const ExprPtr& adl) const;

  /// Translation only (parse + typecheck + lower, no rewrite/execute).
  Result<QueryReport> Translate(const std::string& oosql) const;

  /// Rewrite only.
  Result<RewriteResult> Optimize(const ExprPtr& adl) const;

  const Database& db() const { return *db_; }
  RewriteOptions& rewrite_options() { return rewrite_options_; }
  EvalOptions& eval_options() { return eval_options_; }
  PlannerOptions& planner_options() { return planner_options_; }

  /// Number of query texts in the plan cache.
  size_t plan_cache_size() const { return plan_cache_.size(); }

 private:
  /// Prices `q.optimized` with the cost planner, noting the version of
  /// every table it read.
  Result<std::shared_ptr<const CachedPlan>> Plan(
      const PreparedQuery& q) const;

  /// Shared back half of Run/RunAdl: copies `q` into the report, clears
  /// the trace collector (if one is configured), evaluates report->plan
  /// (or `q.optimized` when there is none), and fills
  /// result/exec_stats/profile. Also feeds the eval-latency histogram.
  Status Execute(const PreparedQuery& q, QueryReport* report) const;

  const Database* db_;
  RewriteOptions rewrite_options_;
  EvalOptions eval_options_;
  PlannerOptions planner_options_;
  mutable PlanCache plan_cache_;
};

}  // namespace n2j

#endif  // N2J_CORE_ENGINE_H_
