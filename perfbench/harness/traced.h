#ifndef N2J_PERFBENCH_TRACED_H_
#define N2J_PERFBENCH_TRACED_H_

// The traced query path: the same layer calls QueryEngine::Run makes,
// issued one by one from the benchmark with a span around each, plus
// the untimed references every timed value is checked against.

#include <cstdint>
#include <map>
#include <string>

#include "adl/value.h"
#include "common/result.h"
#include "core/engine.h"
#include "exec/eval.h"
#include "harness/spans.h"
#include "harness/workload.h"
#include "storage/database.h"

namespace n2j {
namespace perfbench {

/// Layer names of the traced path's spans. The catalog layers have a
/// second name for a Get that found its entry current.
inline constexpr const char* kQuerySpan = "query";
inline constexpr const char* kParseSpan = "oosql.parse";
inline constexpr const char* kTranslateSpan = "oosql.translate";
inline constexpr const char* kRewriteSpan = "rewrite.rewrite";
inline constexpr const char* kStatsCollectSpan = "stats.collect";
inline constexpr const char* kStatsHitSpan = "stats.hit";
inline constexpr const char* kPlanSpan = "opt.plan";
inline constexpr const char* kLowerSpan = "shred.lower";
inline constexpr const char* kColumnarBuildSpan = "storage.columnar";
inline constexpr const char* kColumnarHitSpan = "storage.columnar_hit";
inline constexpr const char* kShredExecSpan = "shred.exec";
inline constexpr const char* kNestedExecSpan = "exec.eval";
inline constexpr const char* kWriteSpan = "write";
inline constexpr const char* kInsertSpan = "storage.insert";

/// What a traced query produced besides its spans.
struct TracedQuery {
  Value value;
  EvalStats stats;        // executor counters (exact)
  int64_t rules_fired = 0;
  ExprPtr rewritten;      // the rewriter's output (the heuristic plan)
  int query_span = -1;    // index of the op's root span
};

/// Runs queries against one database through the traced path.
class TracedRunner {
 public:
  TracedRunner(const Database& db, const Workload& w, SpanRecorder* spans)
      : db_(db), w_(w), spans_(spans) {}

  /// Parse, translate, rewrite; under the cost strategy bring each
  /// scanned extent's statistics up to date and plan; on the shredded
  /// backend lower, bring the lowered plan's columnar projections up to
  /// date; then evaluate with shred::EvalWithBackend.
  Result<TracedQuery> Run(int64_t op, const std::string& text);

 private:
  const Database& db_;
  const Workload& w_;
  SpanRecorder* spans_;
  // Table version each columnar projection was last brought up to. The
  // shredded executor reads projections only for tables the traced path
  // has already brought current, so this mirrors the catalog.
  std::map<std::string, uint64_t> columnar_version_;
};

/// The untimed reference value for `text` per `kind`, evaluated single-
/// threaded by the nested backend.
Result<Value> ReferenceValue(const Database& db, const std::string& text,
                             Reference kind);

/// True when the traced path and QueryEngine::Run agree: both succeed
/// with equal values, or both fail with the same status. On
/// disagreement `why` says how.
bool SameResult(const Result<Value>& traced,
                const Result<QueryReport>& engine, std::string* why);

/// Tuples scanned + predicate evals + hash inserts + hash probes.
uint64_t Work(const EvalStats& s);

}  // namespace perfbench
}  // namespace n2j

#endif  // N2J_PERFBENCH_TRACED_H_
