#include <algorithm>
#include <iterator>
#include <optional>
#include <utility>

#include "adl/analysis.h"
#include "common/str_util.h"
#include "exec/equi_join.h"
#include "shred/exec_internal.h"
#include "shred/shred.h"

namespace n2j {
namespace shred {

EquiSplit SplitEquiPred(const RangeSpec& r) {
  // Split p into equi-key pairs (one side a function of the range var
  // alone, the other side free of it) and residual conjuncts.
  EquiSplit s;
  std::vector<ExprPtr> conjs = SplitConjuncts(r.pred);
  for (const ExprPtr& c : conjs) {
    if (c->kind() == ExprKind::kBinary && c->bin_op() == BinOp::kEq) {
      std::set<std::string> fl = FreeVars(c->child(0));
      std::set<std::string> fr = FreeVars(c->child(1));
      if (fl.size() == 1 && fl.count(r.var) > 0 && fr.count(r.var) == 0) {
        s.scan_keys.push_back(c->child(0));
        s.probe_keys.push_back(c->child(1));
        continue;
      }
      if (fr.size() == 1 && fr.count(r.var) > 0 && fl.count(r.var) == 0) {
        s.scan_keys.push_back(c->child(1));
        s.probe_keys.push_back(c->child(0));
        continue;
      }
    }
    s.residual.push_back(c);
  }
  return s;
}

Rel ShredExecutor::Skeleton(
    const Rel& work, const RangeSpec& r,
    const std::shared_ptr<const ColumnarExtent>& columnar) {
  Rel out;
  out.cols.reserve(work.cols.size() + 1);
  for (const Col& c : work.cols) {
    Col nc;
    nc.var = c.var;
    nc.extent = c.extent;
    out.cols.push_back(std::move(nc));
  }
  Col nc;
  nc.var = r.var;
  if (r.kind == RangeKind::kExtent) nc.extent = columnar;
  out.cols.push_back(std::move(nc));
  return out;
}

void ShredExecutor::Emit(const Rel& work, size_t row, const Value& elem,
                         uint32_t elem_row_id, Rel* out) {
  for (size_t i = 0; i < work.cols.size(); ++i) {
    out->cols[i].vals.push_back(work.cols[i].vals[row]);
    if (work.cols[i].extent != nullptr) {
      out->cols[i].row_ids.push_back(work.cols[i].row_ids[row]);
    }
  }
  Col& ncol = out->cols.back();
  ncol.vals.push_back(elem);
  if (ncol.extent != nullptr) ncol.row_ids.push_back(elem_row_id);
  out->ctx.push_back(work.ctx[row]);
}

namespace {

// Concatenates `src`'s rows after `dst`'s (same skeleton). The morsel
// merge: per-morsel slots appended in morsel order reproduce the serial
// engine's row order exactly.
void AppendRel(Rel* dst, Rel&& src) {
  for (size_t i = 0; i < dst->cols.size(); ++i) {
    Col& d = dst->cols[i];
    Col& s = src.cols[i];
    std::move(s.vals.begin(), s.vals.end(), std::back_inserter(d.vals));
    d.row_ids.insert(d.row_ids.end(), s.row_ids.begin(), s.row_ids.end());
  }
  dst->ctx.insert(dst->ctx.end(), src.ctx.begin(), src.ctx.end());
}

}  // namespace

ThreadPool& ShredExecutor::pool() {
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(opts_.num_threads);
    if (opts_.trace != nullptr) {
      TraceCollector* tc = opts_.trace;
      pool_->set_morsel_sink([tc](int w, size_t m, const char* phase,
                                  int64_t t0, int64_t t1) {
        tc->AddWorkerSpan(w, m, phase, t0, t1);
      });
    }
  }
  return *pool_;
}

std::vector<std::unique_ptr<Evaluator>>& ShredExecutor::workers() {
  if (workers_.empty()) {
    const int count = pool().num_workers();
    workers_.reserve(static_cast<size_t>(count));
    for (int i = 0; i < count; ++i) workers_.push_back(inner_.ForkWorker());
  }
  return workers_;
}

void ShredExecutor::MergeWorkerStats() {
  for (const auto& w : workers_) {
    inner_.stats().Merge(w->stats());
    w->ResetStats();
  }
}

void ShredExecutor::ResetWorkerStats() {
  for (const auto& w : workers_) w->ResetStats();
}

Status ShredExecutor::ParallelRows(
    size_t nrows, const char* phase,
    const std::function<Status(Evaluator&, size_t, size_t, Rel*)>& body,
    Rel* out) {
  ThreadPool& tp = pool();
  tp.set_morsel_phase(phase);
  std::vector<std::unique_ptr<Evaluator>>& ws = workers();
  const size_t morsel = PickMorselSize(nrows, tp.num_workers());
  const size_t nm = NumMorsels(nrows, morsel);
  std::vector<Rel> slots(nm, *out);
  Status s = tp.RunMorsels(nm, [&](int w, size_t m) -> Status {
    MorselRange rg = MorselAt(nrows, morsel, m);
    return body(*ws[static_cast<size_t>(w)], rg.begin, rg.end, &slots[m]);
  });
  // Merge before the enclosing shred-node span closes so its exclusive
  // delta — and the span-sum invariant — includes the workers' counters
  // whether or not a morsel failed.
  MergeWorkerStats();
  N2J_RETURN_IF_ERROR(s);
  for (Rel& slot : slots) AppendRel(out, std::move(slot));
  return Status::OK();
}

std::vector<Value> ShredExecutor::StitchByCtx(std::vector<Value> outs,
                                              const std::vector<uint32_t>& ctx,
                                              size_t nctx) {
  // Stitch: work rows are contiguous and ascending by ctx, so one pass
  // folds each context row's outputs into its set. A context row with no
  // surviving work rows gets the empty set — exactly Map/Select over an
  // empty or fully filtered input.
  std::vector<Value> result;
  result.reserve(nctx);
  size_t j = 0;
  for (uint32_t c = 0; c < nctx; ++c) {
    std::vector<Value> elems;
    while (j < outs.size() && ctx[j] == c) {
      elems.push_back(std::move(outs[j]));
      ++j;
    }
    result.push_back(Value::Set(std::move(elems)));
  }
  return result;
}

Result<Value> ShredExecutor::Run() {
  OpSpan span(opts_.trace, inner_.stats(), "shredded");
  Environment env;
  std::vector<std::pair<std::string, Value>> lets;
  for (const auto& [var, def] : plan_.lets) {
    Result<Value> v = inner_.Eval(def, env);
    if (!v.ok()) return v.status();
    env.Push(var, *v);
    lets.emplace_back(var, *v);
  }
  if (plan_.scalar_root) {
    // Non-comprehension root: the flat DAG degenerates to one row-wise
    // evaluation under the let bindings.
    span.Annotate("scalar root");
    Result<Value> r = inner_.Eval(plan_.scalar_root_expr, env);
    span.RowsOut(r);
    return r;
  }
  const FlatNode& root = plan_.nodes[0];
  Rel ctx;
  ctx.ctx = {0};
  for (const std::string& v : root.ctx_vars) {
    for (auto it = lets.rbegin(); it != lets.rend(); ++it) {
      if (it->first == v) {
        Col c;
        c.var = v;
        c.vals = {it->second};
        ctx.cols.push_back(std::move(c));
        break;
      }
    }
  }
  N2J_ASSIGN_OR_RETURN(std::vector<Value> sets,
                       ExecNode(root, std::move(ctx)));
  span.RowsOut(sets[0].set_size());
  return std::move(sets[0]);
}

Result<std::vector<Value>> ShredExecutor::ExecNode(const FlatNode& node,
                                                   Rel ctx) {
  OpSpan span(opts_.trace, inner_.stats(), "shred-node");
  span.Label(node.label);
  const size_t nctx = ctx.size();
  span.RowsIn(nctx);
  if (nctx == 0) return std::vector<Value>{};

  if (opts_.vectorized && node.vectorizable) {
    EvalStats before = inner_.stats();
    Result<std::optional<std::vector<Value>>> v =
        TryExecNodeVectorized(node, ctx, span);
    if (v.ok() && v->has_value()) return std::move(**v);
    // Refusal (a lambda did not compile, no columnar projection): nothing
    // ran, the scalar engine does the node from scratch. Error: every
    // evaluation the pipeline performed, the scalar engine performs too
    // (unless it errors even earlier), so rerunning it surfaces the
    // row-order first error the fidelity contract promises. The failed
    // attempt's counters roll back to the pre-attempt snapshot first: a
    // parallel pipeline has already run units past the erroring one
    // (morsels don't cancel), so its partial counts are not the serial
    // engine's partial counts — discarding the attempt entirely is the
    // one accounting that is exact for every thread count. The node's
    // span nets the attempt out to zero the same way.
    if (!v.ok()) inner_.stats() = before;
    ++inner_.stats().vec_fallbacks;
  }
  return ExecNodeScalar(node, std::move(ctx), span);
}

Result<std::vector<Value>> ShredExecutor::ExecNodeScalar(const FlatNode& node,
                                                         Rel ctx,
                                                         OpSpan& span) {
  const size_t nctx = ctx.size();
  Rel work;
  work.cols = std::move(ctx.cols);
  work.ctx.resize(nctx);
  for (size_t i = 0; i < nctx; ++i) work.ctx[i] = static_cast<uint32_t>(i);

  for (const RangeSpec& r : node.ranges) {
    N2J_ASSIGN_OR_RETURN(work, ExpandRange(r, std::move(work)));
  }
  N2J_ASSIGN_OR_RETURN(std::vector<Value> outs, EvalOutputs(node.out, work));

  span.RowsOut(work.size());
  return StitchByCtx(std::move(outs), work.ctx, nctx);
}

Result<Rel> ShredExecutor::ExpandRange(const RangeSpec& r, Rel work) {
  const size_t nrows = work.size();
  RangeKind kind = r.kind;

  std::shared_ptr<const ColumnarExtent> columnar;
  if (kind == RangeKind::kExtent && nrows > 0) {
    columnar = db_.columnar().Get(db_, r.table);
    // Unknown table: evaluate the GetTable row-wise so the interpreter's
    // own error surfaces.
    if (columnar == nullptr) kind = RangeKind::kOpaque;
  }

  Rel out = Skeleton(work, r, columnar);
  if (nrows == 0) return out;  // lazy: sources of dead ranges never run

  // Shared element list: one scan serves every work row.
  const std::vector<Value>* shared = nullptr;
  Value shared_holder;
  if (kind == RangeKind::kExtent) {
    shared = &columnar->rows;
  } else if (kind == RangeKind::kConstSet) {
    // Uncorrelated: evaluated once — but only because >= 1 work row
    // exists, matching how often (at least once) the interpreter would
    // evaluate it.
    Environment env;
    PushRow(&env, work, 0);
    Result<Value> v = inner_.Eval(r.source, env);
    PopRow(&env, work);
    if (!v.ok()) return v.status();
    if (!v->is_set()) {
      return Status::RuntimeError("shredded range over non-set");
    }
    shared_holder = std::move(*v);
    shared = &shared_holder.elements();
  }

  if (shared != nullptr) {
    if (r.pred != nullptr && opts_.use_hash_joins &&
        opts_.join_algorithm != JoinAlgorithm::kNestedLoop) {
      N2J_ASSIGN_OR_RETURN(std::optional<Rel> joined,
                           TryJoinExpand(r, work, *shared, columnar));
      if (joined.has_value()) return std::move(*joined);
    }
    // Nested-loop scan: evaluate the full combined predicate per
    // (row, element) pair — bit-for-bit the interpreter's Select path,
    // including And short-circuit and error order within one row.
    // Parallel: morsels over work rows (rows are independent here), the
    // ordered slot merge keeps the serial row order.
    if (parallel() && nrows > 1) {
      N2J_RETURN_IF_ERROR(ParallelRows(
          nrows, "shred-scan",
          [&](Evaluator& ev, size_t b, size_t e, Rel* slot) {
            return NlScanRows(ev, r, work, *shared, b, e, slot);
          },
          &out));
      return out;
    }
    N2J_RETURN_IF_ERROR(NlScanRows(inner_, r, work, *shared, 0, nrows, &out));
    return out;
  }

  // Per-row element lists: CSR child slices when provenance allows,
  // row-wise interpreter evaluation otherwise.
  const ColumnarChild* csr = nullptr;
  const Col* parent = nullptr;
  if (kind == RangeKind::kChildAttr) {
    for (auto it = work.cols.rbegin(); it != work.cols.rend(); ++it) {
      if (it->var == r.parent_var) {
        parent = &*it;
        break;
      }
    }
    if (parent != nullptr && parent->extent != nullptr) {
      csr = parent->extent->Child(r.attr);
    }
    if (csr == nullptr) parent = nullptr;  // fall back to row-wise access
  }

  if (parallel() && nrows > 1) {
    N2J_RETURN_IF_ERROR(ParallelRows(
        nrows, "shred-expand",
        [&](Evaluator& ev, size_t b, size_t e, Rel* slot) {
          return PerRowExpandRows(ev, r, work, csr, parent, b, e, slot);
        },
        &out));
    return out;
  }
  N2J_RETURN_IF_ERROR(
      PerRowExpandRows(inner_, r, work, csr, parent, 0, nrows, &out));
  return out;
}

Status ShredExecutor::NlScanRows(Evaluator& ev, const RangeSpec& r,
                                 const Rel& work,
                                 const std::vector<Value>& elems,
                                 size_t row_begin, size_t row_end, Rel* out) {
  Environment env;
  for (size_t row = row_begin; row < row_end; ++row) {
    PushRow(&env, work, row);
    for (size_t idx = 0; idx < elems.size(); ++idx) {
      const Value& elem = elems[idx];
      ++ev.stats().tuples_scanned;
      if (r.pred != nullptr) {
        env.Push(r.var, elem);
        Result<Value> p = ev.Eval(r.pred, env);
        env.Pop();
        ++ev.stats().predicate_evals;
        if (!p.ok()) {
          PopRow(&env, work);
          return p.status();
        }
        if (!p->is_bool()) {
          PopRow(&env, work);
          return Status::RuntimeError("selection predicate not boolean");
        }
        if (!p->bool_value()) continue;
      }
      Emit(work, row, elem, static_cast<uint32_t>(idx), out);
    }
    PopRow(&env, work);
  }
  return Status::OK();
}

Status ShredExecutor::PerRowExpandRows(Evaluator& ev, const RangeSpec& r,
                                       const Rel& work,
                                       const ColumnarChild* csr,
                                       const Col* parent, size_t row_begin,
                                       size_t row_end, Rel* out) {
  Environment env;
  for (size_t row = row_begin; row < row_end; ++row) {
    PushRow(&env, work, row);
    const Value* elems_begin = nullptr;
    size_t elem_count = 0;
    Value holder;
    if (csr != nullptr) {
      uint32_t rid = parent->row_ids[row];
      elems_begin = csr->elems.data() + csr->begin(rid);
      elem_count = csr->fanout(rid);
    } else {
      Result<Value> v = ev.Eval(r.source, env);
      if (!v.ok()) {
        PopRow(&env, work);
        return v.status();
      }
      if (!v->is_set()) {
        PopRow(&env, work);
        return Status::RuntimeError("shredded range over non-set");
      }
      holder = std::move(*v);
      elems_begin = holder.elements().data();
      elem_count = holder.elements().size();
    }
    for (size_t idx = 0; idx < elem_count; ++idx) {
      const Value& elem = elems_begin[idx];
      ++ev.stats().tuples_scanned;
      if (r.pred != nullptr) {
        env.Push(r.var, elem);
        Result<Value> p = ev.Eval(r.pred, env);
        env.Pop();
        ++ev.stats().predicate_evals;
        if (!p.ok()) {
          PopRow(&env, work);
          return p.status();
        }
        if (!p->is_bool()) {
          PopRow(&env, work);
          return Status::RuntimeError("selection predicate not boolean");
        }
        if (!p->bool_value()) continue;
      }
      Emit(work, row, elem, 0, out);
    }
    PopRow(&env, work);
  }
  return Status::OK();
}

Result<std::optional<Rel>> ShredExecutor::TryJoinExpand(
    const RangeSpec& r, const Rel& work, const std::vector<Value>& elems,
    const std::shared_ptr<const ColumnarExtent>& columnar) {
  EquiSplit split = SplitEquiPred(r);
  std::vector<ExprPtr>& scan_keys = split.scan_keys;
  std::vector<ExprPtr>& residual = split.residual;
  if (scan_keys.empty()) return std::optional<Rel>();

  // Scan-side keys, column fast path where the projection has the field.
  std::vector<const std::vector<Value>*> key_cols(scan_keys.size(), nullptr);
  for (size_t k = 0; k < scan_keys.size(); ++k) {
    const ExprPtr& e = scan_keys[k];
    if (columnar != nullptr && e->kind() == ExprKind::kFieldAccess &&
        e->child(0)->kind() == ExprKind::kVar &&
        e->child(0)->name() == r.var) {
      key_cols[k] = columnar->Column(e->name());
    }
  }

  // Build. Key evaluation may touch elements the interpreter would have
  // short-circuited past (an earlier conjunct false), so ANY evaluation
  // error abandons the join — the nested-loop path then reproduces the
  // interpreter's exact behavior, error or not.
  std::vector<Value> keys;
  keys.reserve(elems.size());
  {
    Environment env;
    std::vector<Value> parts(scan_keys.size());
    for (size_t idx = 0; idx < elems.size(); ++idx) {
      env.Push(r.var, elems[idx]);
      bool failed = false;
      for (size_t k = 0; k < scan_keys.size(); ++k) {
        if (key_cols[k] != nullptr) {
          parts[k] = (*key_cols[k])[idx];
          continue;
        }
        Result<Value> v = inner_.Eval(scan_keys[k], env);
        if (!v.ok()) {
          failed = true;
          break;
        }
        parts[k] = std::move(*v);
      }
      env.Pop();
      if (failed) return std::optional<Rel>();
      keys.push_back(JoinKeyFromParts(parts));
    }
  }

  const bool sort_merge = opts_.join_algorithm == JoinAlgorithm::kSortMerge;
  KeyTable table;
  std::vector<std::pair<Value, uint32_t>> sorted;
  if (sort_merge) {
    sorted.reserve(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      sorted.emplace_back(keys[i], static_cast<uint32_t>(i));
    }
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const auto& a, const auto& b) {
                       return a.first.Compare(b.first) < 0;
                     });
    inner_.stats().rows_sorted += sorted.size();
    ++inner_.stats().joins_sortmerge;
  } else {
    table = KeyTable(keys);
    ++inner_.stats().joins_hash;
  }
  inner_.stats().hash_inserts += keys.size();
  inner_.stats().tuples_scanned += keys.size();
  if (opts_.trace != nullptr) {
    opts_.trace->AnnotateOpen(StrFormat(
        " %s keys=%zu residual=%zu", sort_merge ? "sortmerge" : "hash",
        scan_keys.size(), residual.size()));
    opts_.trace->NotePeakHash(sort_merge ? sorted.size() : table.distinct());
  }

  Rel out = Skeleton(work, r, columnar);
  const size_t nrows = work.size();

  if (parallel() && nrows > 1) {
    // Parallel probe with a per-morsel ledger. The complication is the
    // abandon path: the serial engine stops at the first failing
    // probe-key row having fully processed every earlier row, discards
    // the join, and lets the nested-loop scan reproduce the
    // interpreter's behavior — so its stats hold a strict prefix of the
    // probe work. RunMorsels cannot cancel later morsels, so each
    // morsel records its exact stats delta (workers run morsels one at
    // a time; snapshotting around the morsel needs no synchronization)
    // and the coordinator merges only what the serial engine would have
    // done: everything up to the lowest abandoning morsel, or all of it
    // when an error (which aborts the query) comes first.
    ThreadPool& tp = pool();
    tp.set_morsel_phase("shred-probe");
    std::vector<std::unique_ptr<Evaluator>>& ws = workers();
    const size_t morsel = PickMorselSize(nrows, tp.num_workers());
    const size_t nm = NumMorsels(nrows, morsel);
    std::vector<Rel> slots(nm, out);
    std::vector<EvalStats> deltas(nm);
    std::vector<char> abandons(nm, 0);
    size_t err_m = nm;  // sentinel: no erroring morsel
    Status s = tp.RunMorsels(
        nm,
        [&](int w, size_t m) -> Status {
          Evaluator& ev = *ws[static_cast<size_t>(w)];
          EvalStats before = ev.stats();
          MorselRange rg = MorselAt(nrows, morsel, m);
          bool ab = false;
          Status st = ProbeRows(ev, r, work, elems, split, sort_merge,
                                table, sorted, rg.begin, rg.end,
                                &slots[m], &ab);
          deltas[m] = ev.stats();
          deltas[m].Subtract(before);
          abandons[m] = ab ? 1 : 0;
          return st;
        },
        &err_m);
    size_t ab_m = nm;
    for (size_t m = 0; m < nm; ++m) {
      if (abandons[m] != 0) {
        ab_m = m;
        break;
      }
    }
    if (ab_m < err_m) {
      // Serial row order hits this morsel's failing probe key before any
      // erroring row: abandon with exactly the serial prefix accounted
      // (full deltas before it plus its own partial delta); later
      // morsels ran only because the pool does not cancel, and their
      // counters are discarded with their slots.
      for (size_t m = 0; m <= ab_m; ++m) inner_.stats().Merge(deltas[m]);
      ResetWorkerStats();
      return std::optional<Rel>();
    }
    MergeWorkerStats();
    N2J_RETURN_IF_ERROR(s);
    for (Rel& slot : slots) AppendRel(&out, std::move(slot));
    return std::optional<Rel>(std::move(out));
  }

  bool abandoned = false;
  N2J_RETURN_IF_ERROR(ProbeRows(inner_, r, work, elems, split, sort_merge,
                                table, sorted, 0, nrows, &out,
                                &abandoned));
  if (abandoned) return std::optional<Rel>();
  return std::optional<Rel>(std::move(out));
}

Status ShredExecutor::ProbeRows(
    Evaluator& ev, const RangeSpec& r, const Rel& work,
    const std::vector<Value>& elems, const EquiSplit& split, bool sort_merge,
    const KeyTable& table,
    const std::vector<std::pair<Value, uint32_t>>& sorted, size_t row_begin,
    size_t row_end, Rel* out, bool* abandoned) {
  const std::vector<ExprPtr>& probe_keys = split.probe_keys;
  const std::vector<ExprPtr>& residual = split.residual;
  Environment env;
  std::vector<Value> parts(probe_keys.size());
  std::vector<uint32_t> cands;
  for (size_t row = row_begin; row < row_end; ++row) {
    PushRow(&env, work, row);
    bool failed = false;
    for (size_t k = 0; k < probe_keys.size(); ++k) {
      Result<Value> v = ev.Eval(probe_keys[k], env);
      if (!v.ok()) {
        failed = true;
        break;
      }
      parts[k] = std::move(*v);
    }
    if (failed) {
      PopRow(&env, work);
      *abandoned = true;
      return Status::OK();
    }
    Value key = JoinKeyFromParts(parts);
    ++ev.stats().hash_probes;

    cands.clear();
    if (sort_merge) {
      auto lo = std::lower_bound(sorted.begin(), sorted.end(), key,
                                 [](const auto& p, const Value& k) {
                                   return p.first.Compare(k) < 0;
                                 });
      auto hi = std::upper_bound(lo, sorted.end(), key,
                                 [](const Value& k, const auto& p) {
                                   return k.Compare(p.first) < 0;
                                 });
      for (auto it = lo; it != hi; ++it) cands.push_back(it->second);
    } else {
      for (int32_t e = table.Probe(key); e != -1; e = table.Next(e)) {
        cands.push_back(static_cast<uint32_t>(e));
      }
    }

    for (uint32_t c : cands) {
      const Value& elem = elems[c];
      bool pass = true;
      if (!residual.empty()) {
        // Residual conjuncts run in source order with short-circuit —
        // identical to the And chain the interpreter would walk once the
        // (already verified) key equalities held. Errors here imply the
        // interpreter errors on the same pair, so they propagate.
        env.Push(r.var, elem);
        ++ev.stats().predicate_evals;
        for (const ExprPtr& rc : residual) {
          Result<Value> p = ev.Eval(rc, env);
          if (!p.ok()) {
            env.Pop();
            PopRow(&env, work);
            return p.status();
          }
          if (!p->is_bool()) {
            env.Pop();
            PopRow(&env, work);
            return Status::RuntimeError("selection predicate not boolean");
          }
          if (!p->bool_value()) {
            pass = false;
            break;
          }
        }
        env.Pop();
      }
      if (pass) Emit(work, row, elem, c, out);
    }
    PopRow(&env, work);
  }
  return Status::OK();
}

Result<std::vector<Value>> ShredExecutor::EvalOutputs(const OutputSpec& out,
                                                      const Rel& work) {
  const size_t n = work.size();
  switch (out.kind) {
    case OutputSpec::Kind::kScalar: {
      std::vector<Value> vals(n);
      if (parallel() && n > 1) {
        // Each morsel writes disjoint vals[row] slots, so the output is
        // positionally identical to the serial loop with no merge step.
        ThreadPool& tp = pool();
        tp.set_morsel_phase("shred-out");
        std::vector<std::unique_ptr<Evaluator>>& ws = workers();
        const size_t morsel = PickMorselSize(n, tp.num_workers());
        const size_t nm = NumMorsels(n, morsel);
        Status s = tp.RunMorsels(nm, [&](int w, size_t m) -> Status {
          Evaluator& ev = *ws[static_cast<size_t>(w)];
          MorselRange rg = MorselAt(n, morsel, m);
          Environment env;
          for (size_t row = rg.begin; row < rg.end; ++row) {
            PushRow(&env, work, row);
            Result<Value> v = ev.Eval(out.scalar, env);
            PopRow(&env, work);
            if (!v.ok()) return v.status();
            vals[row] = std::move(*v);
          }
          return Status::OK();
        });
        MergeWorkerStats();
        N2J_RETURN_IF_ERROR(s);
        return vals;
      }
      Environment env;
      for (size_t row = 0; row < n; ++row) {
        PushRow(&env, work, row);
        Result<Value> v = inner_.Eval(out.scalar, env);
        PopRow(&env, work);
        if (!v.ok()) return v.status();
        vals[row] = std::move(*v);
      }
      return vals;
    }
    case OutputSpec::Kind::kChild: {
      const FlatNode& child = plan_.nodes[static_cast<size_t>(out.child)];
      if (child.ctx_vars.empty()) {
        // Uncorrelated subquery: one execution, broadcast — but only
        // when at least one work row exists (laziness again).
        if (n == 0) return std::vector<Value>{};
        Rel unit;
        unit.ctx = {0};
        N2J_ASSIGN_OR_RETURN(std::vector<Value> one,
                             ExecNode(child, std::move(unit)));
        return std::vector<Value>(n, one[0]);
      }
      Rel ctx;
      ctx.cols.reserve(child.ctx_vars.size());
      for (const std::string& v : child.ctx_vars) {
        // Innermost binding wins, like Environment::Lookup.
        for (auto it = work.cols.rbegin(); it != work.cols.rend(); ++it) {
          if (it->var == v) {
            ctx.cols.push_back(*it);
            break;
          }
        }
      }
      ctx.ctx.resize(n);
      for (size_t i = 0; i < n; ++i) ctx.ctx[i] = static_cast<uint32_t>(i);
      return ExecNode(child, std::move(ctx));
    }
    case OutputSpec::Kind::kTuple: {
      std::vector<std::vector<Value>> field_vals;
      field_vals.reserve(out.fields.size());
      for (const OutputSpec& f : out.fields) {
        N2J_ASSIGN_OR_RETURN(std::vector<Value> fv, EvalOutputs(f, work));
        field_vals.push_back(std::move(fv));
      }
      std::vector<Value> vals;
      vals.reserve(n);
      for (size_t row = 0; row < n; ++row) {
        std::vector<Field> fields;
        fields.reserve(out.fields.size());
        for (size_t f = 0; f < out.fields.size(); ++f) {
          fields.emplace_back(out.field_names[f],
                              std::move(field_vals[f][row]));
        }
        vals.push_back(Value::Tuple(std::move(fields)));
      }
      return vals;
    }
  }
  return Status::Internal("unreachable output kind");
}

Result<Value> EvalShredded(const Database& db, const ExprPtr& query,
                           const EvalOptions& opts, EvalStats* stats,
                           std::string* plan_text) {
  ShredPlan plan = ShredQuery(query);
  if (plan_text != nullptr) *plan_text = plan.Describe();
  ShredExecutor ex(db, plan, opts);
  Result<Value> r = ex.Run();
  if (stats != nullptr) *stats = ex.stats();
  return r;
}

Result<Value> EvalWithBackend(const Database& db, const ExprPtr& query,
                              const EvalOptions& opts, EvalStats* stats,
                              std::string* plan_text) {
  if (opts.backend == Backend::kShredded) {
    return EvalShredded(db, query, opts, stats, plan_text);
  }
  Evaluator ev(db, opts);
  Result<Value> r = ev.Eval(query);
  if (stats != nullptr) *stats = ev.stats();
  return r;
}

}  // namespace shred
}  // namespace n2j
