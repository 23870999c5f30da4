#include "core/engine.h"

#include <algorithm>

#include "adl/printer.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "obs/drift.h"
#include "obs/metrics.h"
#include "obs/querylog.h"
#include "obs/trace.h"
#include "oosql/translate.h"
#include "shred/shred.h"
#include "stats/stats.h"

namespace n2j {

namespace {

double MsSince(int64_t t0_ns) {
  return static_cast<double>(MonotonicNanos() - t0_ns) / 1e6;
}

/// Adds every base table `e` scans to `out`, once each.
void CollectTables(const Database& db, const ExprPtr& e,
                   std::vector<const Table*>* out) {
  if (e == nullptr) return;
  if (e->kind() == ExprKind::kGetTable) {
    const Table* t = db.FindTable(e->name());
    if (t != nullptr && std::find(out->begin(), out->end(), t) == out->end()) {
      out->push_back(t);
    }
  }
  for (size_t i = 0; i < e->num_children(); ++i) {
    CollectTables(db, e->child(i), out);
  }
}

std::shared_ptr<const PreparedQuery> Prepare(const Database& db,
                                             ExprPtr translated, TypePtr type,
                                             RewriteResult rewritten) {
  auto q = std::make_shared<PreparedQuery>();
  q->translated = std::move(translated);
  q->type = std::move(type);
  q->optimized = std::move(rewritten.expr);
  q->trace = std::move(rewritten.trace);
  std::string normalized = AlgebraStr(q->translated);
  q->query_hash = Fnv1a(normalized.data(), normalized.size());
  CollectTables(db, q->translated, &q->tables);
  CollectTables(db, q->optimized, &q->tables);
  std::sort(q->tables.begin(), q->tables.end(),
            [](const Table* a, const Table* b) {
              return a->name() < b->name();
            });
  return q;
}

/// Feeds the plan-cache counters; all three are touched every time, so
/// they exist after the first query.
void RecordPlanCacheOutcome(bool hit, bool replanned) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("n2j_plan_cache_hits_total").Add(hit && !replanned);
  reg.GetCounter("n2j_plan_cache_misses_total").Add(!hit);
  reg.GetCounter("n2j_plan_cache_replans_total").Add(replanned);
}

// Estimated spans dominate the record size; a pathological plan with
// hundreds of annotated nodes should not bloat one ring slot.
constexpr size_t kMaxRecordedRoots = 16;

/// Records one finished query (success or error) into the process-wide
/// registry and the flight recorder. The per-algorithm join counters are
/// fed with Add(0) too, so every instrument exists after the first query
/// and Render() output is stable across workloads. `q` is what the
/// query was prepared into (null when that failed).
void RecordQueryOutcome(const Result<QueryReport>& r, int64_t t_start_ns,
                        const std::string& query_text,
                        const PreparedQuery* q, const Database& db,
                        const EvalOptions& eval_options,
                        const PlannerOptions& planner_options) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("n2j_queries_total").Add();
  reg.GetHistogram("n2j_query_ms").Observe(MsSince(t_start_ns));
  if (r.ok()) {
    const EvalStats& s = r->exec_stats;
    reg.GetCounter("n2j_joins_nested_loop_total").Add(s.joins_nested_loop);
    reg.GetCounter("n2j_joins_hash_total").Add(s.joins_hash);
    reg.GetCounter("n2j_joins_sortmerge_total").Add(s.joins_sortmerge);
    reg.GetCounter("n2j_joins_index_total").Add(s.joins_index);
    reg.GetCounter("n2j_joins_membership_total").Add(s.joins_membership);
    reg.GetCounter("n2j_compiled_evals_total").Add(s.compiled_evals);
    reg.GetCounter("n2j_interp_fallback_evals_total")
        .Add(s.interp_fallback_evals);
    reg.GetCounter("n2j_vec_batches_total").Add(s.vec_batches);
    reg.GetCounter("n2j_vec_pipelines_total").Add(s.vec_pipelines);
    reg.GetCounter("n2j_vec_fallbacks_total").Add(s.vec_fallbacks);
  } else {
    reg.GetCounter("n2j_query_errors_total").Add();
  }

  obs::QueryLog& qlog = obs::QueryLog::Global();
  if (!qlog.enabled()) return;
  obs::QueryLogRecord rec;
  rec.query = query_text;
  rec.strategy = PlanStrategyName(planner_options.strategy);
  rec.backend =
      eval_options.backend == Backend::kShredded ? "shredded" : "nested";
  rec.threads = eval_options.num_threads;
  rec.batch_size = eval_options.vector_batch_size;
  rec.compiled = eval_options.compiled;
  rec.vectorized = eval_options.vectorized;
  rec.wall_ms = MsSince(t_start_ns);
  if (!r.ok()) {
    rec.error = r.status().ToString();
    // No translation to normalize over — hash the raw text.
    rec.query_hash = Fnv1a(query_text.data(), query_text.size());
    qlog.Append(std::move(rec));
    return;
  }

  const QueryReport& rep = *r;
  rec.rewrite_ms = rep.rewrite_ms;
  rec.eval_ms = rep.eval_ms;
  rec.stats = rep.exec_stats;
  if (rep.result.is_set()) rec.rows_out = rep.result.set_size();
  rec.query_hash = q->query_hash;

  if (rep.profile != nullptr) {
    for (const TraceSpan& s : rep.profile->spans()) {
      if (s.est_rows < 0.0) continue;
      obs::RootEstimate e;
      e.op = s.detail.empty() ? s.op : s.op + " [" + s.detail + "]";
      e.est = s.est_rows;
      e.actual = s.rows_out;
      e.q = obs::QError(s.est_rows, static_cast<double>(s.rows_out));
      rec.max_q = std::max(rec.max_q, e.q);
      rec.roots.push_back(std::move(e));
      if (rec.roots.size() >= kMaxRecordedRoots) break;
    }
  }

  // Per-extent drift: the stats snapshot the planner would price with
  // (Peek — never forces a collection scan) against the live extent
  // size. Only extents that have been analyzed at least once can drift.
  obs::DriftMonitor& drift = obs::DriftMonitor::Global();
  for (const Table* t : q->tables) {
    const std::string& name = t->name();
    std::shared_ptr<const ExtentStats> snap = db.stats().Peek(name);
    if (snap == nullptr) continue;
    obs::ExtentEstimate e;
    e.extent = name;
    e.est = snap->row_count;
    e.actual = t->size();
    e.q = obs::QError(static_cast<double>(e.est),
                      static_cast<double>(e.actual));
    rec.max_q = std::max(rec.max_q, e.q);
    drift.Observe(name, snap->version, e.q);
    rec.extents.push_back(std::move(e));
  }
  qlog.Append(std::move(rec));
}

}  // namespace

std::string QueryReport::Explain() const {
  std::string out;
  if (!oosql.empty()) {
    out += "OOSQL:      " + oosql + "\n";
  }
  if (translated != nullptr) {
    out += "translated: " + AlgebraStr(translated) + "\n";
  }
  if (type != nullptr) {
    out += "type:       " + type->ToString() + "\n";
  }
  if (optimized != nullptr) {
    out += "optimized:  " + AlgebraStr(optimized) + "\n";
    PrintOptions pretty;
    pretty.pretty = true;
    out += "plan:\n" + ToAlgebraString(optimized, pretty) + "\n";
  }
  if (plan != nullptr) {
    out += "planner:    strategy=cost " + plan->Describe();
  }
  if (!shred_plan.empty()) {
    out += "backend:    shredded\n" + shred_plan;
  }
  if (!trace.empty()) {
    out += "rules:\n";
    for (const RuleApplication& a : trace) {
      out += "  [" + a.rule + "] " + a.detail + "\n";
    }
  }
  out += std::string("plan cache: ") +
         (!plan_cache_hit ? "miss" : plan_replanned ? "replanned" : "hit") +
         "\n";
  std::string compact = exec_stats.Compact();
  out += "stats:      " + (compact.empty() ? "(none)" : compact) + "\n";
  if (profile != nullptr) {
    // One est-vs-actual audit line per planner-estimated span — the
    // EXPLAIN ANALYZE view of the same Q-errors the flight recorder
    // logs and the drift monitor aggregates.
    for (const TraceSpan& s : profile->spans()) {
      if (s.est_rows < 0.0) continue;
      std::string op = s.detail.empty() ? s.op : s.op + " [" + s.detail + "]";
      out += StrFormat("qerror:     %s est=%.0f actual=%llu q=%.2f\n",
                       op.c_str(), s.est_rows,
                       static_cast<unsigned long long>(s.rows_out),
                       obs::QError(s.est_rows,
                                   static_cast<double>(s.rows_out)));
    }
  }
  if (profile != nullptr && !profile->spans().empty()) {
    out += "profile:\n" + profile->Render();
  }
  return out;
}

Result<QueryReport> QueryEngine::Translate(const std::string& oosql) const {
  QueryReport report;
  report.oosql = oosql;
  Translator translator(db_->schema(), db_);
  N2J_ASSIGN_OR_RETURN(TypedExpr typed, translator.TranslateString(oosql));
  report.translated = typed.expr;
  report.type = typed.type;
  return report;
}

Result<RewriteResult> QueryEngine::Optimize(const ExprPtr& adl) const {
  Rewriter rewriter(db_->schema(), db_, rewrite_options_);
  int64_t t0 = MonotonicNanos();
  Result<RewriteResult> r = rewriter.Rewrite(adl);
  obs::MetricsRegistry::Global()
      .GetHistogram("n2j_rewrite_ms")
      .Observe(MsSince(t0));
  return r;
}

Result<std::shared_ptr<const CachedPlan>> QueryEngine::Plan(
    const PreparedQuery& q) const {
  auto cached = std::make_shared<CachedPlan>();
  // Versions are read before planning, so a write racing the planner
  // leaves the entry stale rather than wrongly fresh.
  for (const Table* t : q.tables) {
    cached->versions.emplace_back(t, t->version());
  }
  Planner planner(*db_, planner_options_);
  N2J_ASSIGN_OR_RETURN(PhysicalPlan plan, planner.Plan(q.optimized));
  cached->plan = std::make_shared<const PhysicalPlan>(std::move(plan));
  return std::shared_ptr<const CachedPlan>(std::move(cached));
}

Status QueryEngine::Execute(const PreparedQuery& q,
                            QueryReport* report) const {
  report->translated = q.translated;
  report->type = q.type;
  report->optimized = q.optimized;
  report->trace = q.trace;
  if (eval_options_.trace != nullptr) {
    eval_options_.trace->Clear();
  }
  // Under the cost strategy the evaluator executes the planner's
  // (possibly join-reordered) tree and dispatches each join-family node
  // on its pinned algorithm annotation.
  ExprPtr to_run = q.optimized;
  EvalOptions opts = eval_options_;
  if (report->plan != nullptr) {
    to_run = report->plan->root;
    opts.plan = &report->plan->annotations;
  }
  int64_t t0 = MonotonicNanos();
  // Backend dispatch is strategy-orthogonal: the shredded backend runs
  // whatever expression the rewriter/planner produced, through its own
  // flat-DAG executor (shred/shred.h).
  N2J_ASSIGN_OR_RETURN(
      report->result,
      shred::EvalWithBackend(*db_, to_run, opts, &report->exec_stats,
                             &report->shred_plan));
  report->eval_ms = MsSince(t0);
  obs::MetricsRegistry::Global()
      .GetHistogram("n2j_eval_ms")
      .Observe(report->eval_ms);
  report->profile = eval_options_.trace;
  return Status::OK();
}

Result<QueryReport> QueryEngine::Run(const std::string& oosql) const {
  int64_t t_start = MonotonicNanos();
  std::shared_ptr<const PreparedQuery> prepared;
  bool hit = false, replanned = false;
  Result<QueryReport> out = [&]() -> Result<QueryReport> {
    const PlanCacheKey key{rewrite_options_, planner_options_,
                           db_->catalog_epoch()};
    PlanCache::Entry entry = plan_cache_.Find(oosql, key);
    hit = entry.query != nullptr;
    QueryReport report;
    report.oosql = oosql;
    if (!hit) {
      N2J_ASSIGN_OR_RETURN(QueryReport front, Translate(oosql));
      int64_t t_rewrite = MonotonicNanos();
      N2J_ASSIGN_OR_RETURN(RewriteResult rewritten,
                           Optimize(front.translated));
      report.rewrite_ms = MsSince(t_rewrite);
      entry.query = Prepare(*db_, std::move(front.translated),
                            std::move(front.type), std::move(rewritten));
    }
    prepared = entry.query;
    if (planner_options_.strategy == PlanStrategy::kCost &&
        (entry.plan == nullptr || !entry.plan->Fresh())) {
      replanned = hit;
      N2J_ASSIGN_OR_RETURN(entry.plan, Plan(*entry.query));
      if (replanned) plan_cache_.ReplacePlan(oosql, entry.query, entry.plan);
    }
    if (entry.plan != nullptr) report.plan = entry.plan->plan;
    report.plan_cache_hit = hit;
    report.plan_replanned = replanned;
    N2J_RETURN_IF_ERROR(Execute(*entry.query, &report));
    // Only queries that ran are cached; an error is redone every time.
    if (!hit) plan_cache_.Insert(oosql, key, std::move(entry));
    return report;
  }();
  RecordPlanCacheOutcome(hit, replanned);
  RecordQueryOutcome(out, t_start, oosql, prepared.get(), *db_,
                     eval_options_, planner_options_);
  return out;
}

Result<QueryReport> QueryEngine::RunAdl(const ExprPtr& adl) const {
  int64_t t_start = MonotonicNanos();
  std::shared_ptr<const PreparedQuery> prepared;
  Result<QueryReport> out = [&]() -> Result<QueryReport> {
    QueryReport report;
    int64_t t_rewrite = MonotonicNanos();
    N2J_ASSIGN_OR_RETURN(RewriteResult rewritten, Optimize(adl));
    report.rewrite_ms = MsSince(t_rewrite);
    prepared = Prepare(*db_, adl, nullptr, std::move(rewritten));
    if (planner_options_.strategy == PlanStrategy::kCost) {
      N2J_ASSIGN_OR_RETURN(std::shared_ptr<const CachedPlan> plan,
                           Plan(*prepared));
      report.plan = plan->plan;
    }
    N2J_RETURN_IF_ERROR(Execute(*prepared, &report));
    return report;
  }();
  RecordQueryOutcome(out, t_start, AlgebraStr(adl), prepared.get(), *db_,
                     eval_options_, planner_options_);
  return out;
}

}  // namespace n2j
