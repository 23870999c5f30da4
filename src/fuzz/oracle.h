#ifndef N2J_FUZZ_ORACLE_H_
#define N2J_FUZZ_ORACLE_H_

#include <string>
#include <vector>

#include "exec/eval.h"
#include "rewrite/rewriter.h"
#include "storage/database.h"

namespace n2j {
namespace fuzz {

/// One cell of the differential matrix: a rewrite configuration paired
/// with an execution configuration.
struct OracleConfig {
  std::string name;
  RewriteOptions rewrite;
  EvalOptions eval;
  /// Skip the rewriter entirely (execute the naive translation). Used by
  /// the sanity cell that must trivially match the reference.
  bool skip_rewrite = false;
  /// Run this cell with a TraceCollector attached and assert the span
  /// tree's invariant: the exclusive EvalStats deltas over all spans sum
  /// exactly to the evaluator's global counters. Tracing must be a pure
  /// observer — any result or counter divergence is a kMismatch.
  bool trace = false;
  /// Run the cost-based planner (opt/optimizer.h) over the rewritten
  /// plan and execute its output — per-node algorithm annotations plus
  /// any join reordering. Must stay bit-exact against the nested-loop
  /// oracle: a cost model may pick a slow plan, never a wrong one.
  bool cost_based = false;
  /// Run this cell through QueryEngine::Run (not EvalWithBackend
  /// directly) so the query flight recorder (obs/querylog.h) is on the
  /// path, and assert its exactness: every run appends exactly one
  /// record, and the record's EvalStats snapshot equals the execution's
  /// global counters (error runs must record a non-empty error). The
  /// query then runs a second time on the same engine: that run must
  /// hit the plan cache and repeat the value and counters exactly. With
  /// `cost_based`, the engine plans under PlanStrategy::kCost.
  bool querylog = false;
};

/// The default matrix: ≥ 8 configurations spanning GroupingMode, the
/// individual rewrite-pass toggles and every physical join algorithm.
/// GroupingMode::kForceGroupingUnsafe is deliberately absent — it exists
/// to demonstrate the Complex Object bug and *would* mismatch.
std::vector<OracleConfig> DefaultConfigMatrix();

/// A reduced matrix (3 cells) for tight time budgets.
std::vector<OracleConfig> MinimalConfigMatrix();

/// A single-cell matrix running GroupingMode::kForceGroupingUnsafe —
/// the configuration the paper *proves* wrong (Figure 2). Exists so
/// tests and demos can watch the fuzzer catch and shrink the Complex
/// Object bug; never part of the default matrix.
std::vector<OracleConfig> UnsafeGroupingMatrix();

enum class OracleStatus {
  kOk,             // every configuration matched the oracle
  kSkipped,        // reference evaluation hit a runtime error (e.g. null
                   // arithmetic); configs were still run for crash safety
  kMismatch,       // some configuration disagreed — a real bug
  kFrontEndError,  // parse/typecheck/translate failed (caller decides
                   // whether that is expected)
};
const char* OracleStatusName(OracleStatus s);

struct OracleReport {
  OracleStatus status = OracleStatus::kOk;
  std::string query;
  std::string failing_config;  // set when status == kMismatch
  std::string detail;          // human-readable description
  int configs_checked = 0;
};

/// Runs `query` once as the paper's naive nested-loop translation (no
/// rewrites, tuple-at-a-time execution, PNHL off) — the oracle — and
/// once per matrix cell, asserting that every cell reproduces the
/// oracle's result value bit-for-bit (Value::operator==) and that the
/// rewritten plan's inferred type equals the naive plan's type. This is
/// the paper's equivalence claim, mechanized.
OracleReport RunDifferentialOracle(const Database& db,
                                   const std::string& query,
                                   const std::vector<OracleConfig>& matrix);

}  // namespace fuzz
}  // namespace n2j

#endif  // N2J_FUZZ_ORACLE_H_
