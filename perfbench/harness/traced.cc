#include "harness/traced.h"

#include <set>
#include <utility>

#include "oosql/parser.h"
#include "oosql/translate.h"
#include "opt/optimizer.h"
#include "rewrite/rewriter.h"
#include "shred/shred.h"
#include "stats/stats.h"
#include "storage/columnar.h"

namespace n2j {
namespace perfbench {

namespace {

void CollectExtents(const ExprPtr& e, std::set<std::string>* out) {
  if (e == nullptr) return;
  if (e->kind() == ExprKind::kGetTable) out->insert(e->name());
  for (size_t i = 0; i < e->num_children(); ++i) {
    CollectExtents(e->child(i), out);
  }
}

// Runs fn inside a span named `layer` under `parent`.
template <typename F>
auto Timed(SpanRecorder* spans, int64_t op, const char* layer, int parent,
           F&& fn) {
  int span = spans->Begin(op, layer, parent);
  auto result = fn();
  spans->End(span);
  return result;
}

}  // namespace

Result<TracedQuery> TracedRunner::Run(int64_t op, const std::string& text) {
  TracedQuery out;
  const int root = spans_->Begin(op, kQuerySpan);
  out.query_span = root;
  Status status = [&]() -> Status {
    N2J_ASSIGN_OR_RETURN(QExprPtr ast,
                         Timed(spans_, op, kParseSpan, root, [&] {
                           return Parser::ParseQueryString(text);
                         }));
    Translator translator(db_.schema(), &db_);
    N2J_ASSIGN_OR_RETURN(TypedExpr typed,
                         Timed(spans_, op, kTranslateSpan, root,
                               [&] { return translator.Translate(ast); }));
    Rewriter rewriter(db_.schema(), &db_, RewriteOptions());
    N2J_ASSIGN_OR_RETURN(RewriteResult rewritten,
                         Timed(spans_, op, kRewriteSpan, root, [&] {
                           return rewriter.Rewrite(typed.expr);
                         }));
    out.rules_fired = static_cast<int64_t>(rewritten.trace.size());
    out.rewritten = rewritten.expr;

    ExprPtr to_run = rewritten.expr;
    EvalOptions opts = w_.eval;
    PhysicalPlan plan;
    if (w_.planner.strategy == PlanStrategy::kCost) {
      std::set<std::string> extents;
      CollectExtents(to_run, &extents);
      for (const std::string& name : extents) {
        const Table* t = db_.FindTable(name);
        std::shared_ptr<const ExtentStats> cached = db_.stats().Peek(name);
        bool current = t != nullptr && cached != nullptr &&
                       cached->version == t->version();
        Timed(spans_, op, current ? kStatsHitSpan : kStatsCollectSpan, root,
              [&] { return db_.stats().Get(db_, name); });
      }
      Planner planner(db_, w_.planner);
      N2J_ASSIGN_OR_RETURN(plan, Timed(spans_, op, kPlanSpan, root, [&] {
                             return planner.Plan(to_run);
                           }));
      to_run = plan.root;
      opts.plan = &plan.annotations;
    }
    const char* exec_span = kNestedExecSpan;
    if (opts.backend == Backend::kShredded) {
      exec_span = kShredExecSpan;
      shred::ShredPlan lowered = Timed(spans_, op, kLowerSpan, root, [&] {
        return shred::ShredQuery(to_run);
      });
      std::set<std::string> extents;
      for (const shred::FlatNode& node : lowered.nodes) {
        for (const shred::RangeSpec& r : node.ranges) {
          if (r.kind == shred::RangeKind::kExtent) extents.insert(r.table);
        }
      }
      for (const std::string& name : extents) {
        const Table* t = db_.FindTable(name);
        if (t == nullptr) continue;
        auto it = columnar_version_.find(name);
        bool current =
            it != columnar_version_.end() && it->second == t->version();
        columnar_version_[name] = t->version();
        Timed(spans_, op, current ? kColumnarHitSpan : kColumnarBuildSpan,
              root, [&] { return db_.columnar().Get(db_, name); });
      }
    }
    std::string plan_text;
    N2J_ASSIGN_OR_RETURN(out.value, Timed(spans_, op, exec_span, root, [&] {
                           return shred::EvalWithBackend(
                               db_, to_run, opts, &out.stats, &plan_text);
                         }));
    return Status::OK();
  }();
  spans_->End(root);
  if (!status.ok()) return status;
  return out;
}

Result<Value> ReferenceValue(const Database& db, const std::string& text,
                             Reference kind) {
  Translator translator(db.schema(), &db);
  N2J_ASSIGN_OR_RETURN(TypedExpr typed, translator.TranslateString(text));
  ExprPtr e = typed.expr;
  EvalOptions opts;
  if (kind == Reference::kNestedLoop) {
    opts.use_hash_joins = false;
    opts.enable_pnhl = false;
    opts.compiled = false;
  } else {
    Rewriter rewriter(db.schema(), &db, RewriteOptions());
    N2J_ASSIGN_OR_RETURN(RewriteResult rewritten, rewriter.Rewrite(e));
    e = rewritten.expr;
  }
  Evaluator ev(db, opts);
  return ev.Eval(e);
}

bool SameResult(const Result<Value>& traced,
                const Result<QueryReport>& engine, std::string* why) {
  if (traced.ok() != engine.ok()) {
    *why = traced.ok() ? "engine failed: " + engine.status().ToString()
                       : "traced path failed: " + traced.status().ToString();
    return false;
  }
  if (!traced.ok()) {
    if (traced.status().ToString() == engine.status().ToString()) return true;
    *why = "different errors: " + traced.status().ToString() + " vs " +
           engine.status().ToString();
    return false;
  }
  if (*traced == engine->result) return true;
  *why = "different values";
  return false;
}

uint64_t Work(const EvalStats& s) {
  return s.tuples_scanned + s.predicate_evals + s.hash_inserts +
         s.hash_probes;
}

}  // namespace perfbench
}  // namespace n2j
