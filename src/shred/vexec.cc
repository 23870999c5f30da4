// Vectorized batch engine of the shredded executor.
//
// A flat node whose ranges are all structural (extent / CSR child /
// constant set) runs as ONE fused pipeline: context rows enter in
// column batches of EvalOptions::vector_batch_size, each range expands
// candidates in chunks, the range predicate runs through the BatchVm
// over parameter columns, and only survivor indices flow to the next
// range — values materialize at the output stage. The pipeline is
// depth-first: a survivor chunk of range j advances to range j+1 before
// the next chunk of range j is generated, so work rows reach the final
// relation in exactly the scalar engine's lexicographic row order and
// the context column stays non-decreasing for single-pass stitching.
//
// Equi-join ranges build one KeyTable (exec/join_kernels.h) over the
// whole element domain (whole-column key extraction when the projection
// has the key field), then probe it with a key column per batch through
// the kernel's two-pass batch probe — the same table and candidates the
// scalar engine's join produces, in the same survivor set.
//
// Fidelity: every evaluation this engine performs, the scalar engine
// also performs unless it errors even earlier. So ANY error here makes
// the caller rerun the node row-wise, which reproduces the canonical
// scalar-order first error; no Status produced here ever reaches the
// user directly. Gating failures (Setup returning false) evaluate
// nothing at all.

#include <algorithm>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <utility>

#include "adl/analysis.h"
#include "common/str_util.h"
#include "exec/compile.h"
#include "shred/exec_internal.h"

namespace n2j {
namespace shred {
namespace {

// Where a free variable of a compiled fragment gets its column from.
struct Bind {
  enum Kind {
    kSelfVar,  // the range's own variable: the candidate element column
    kLevel,    // an earlier range of this node
    kCtxCol,   // a context column of the node
  };
  Kind kind = kCtxCol;
  int index = 0;  // level index / context column index
};

// A batch-compiled expression plus the binding of each parameter column.
struct Frag {
  CompiledBatchLambda prog;
  std::vector<Bind> binds;
  bool present = false;
};

// A batch of work rows mid-pipeline. Per completed range level, rows
// carry either an index into that level's shared element base (`idx`) or
// a materialized element value (`vals`) — never both.
struct VBatch {
  size_t n = 0;
  std::vector<uint32_t> ctx;               // context row ids, non-decreasing
  std::vector<std::vector<uint32_t>> idx;  // one (possibly unused) per level
  std::vector<std::vector<Value>> vals;
};

// Candidate (input row, element) pairs of one range, buffered up to the
// batch size before the predicate runs.
struct CandChunk {
  std::vector<uint32_t> rows;
  std::vector<uint32_t> elems;
  std::vector<Value> elem_vals;  // materialized levels only
  size_t size() const { return rows.size(); }
  void clear() {
    rows.clear();
    elems.clear();
    elem_vals.clear();
  }
};

// Per-range state of the pipeline.
struct VecLevel {
  const RangeSpec* r = nullptr;

  enum Mode {
    kShared,        // extent scan or constant set: one element base
    kCsr,           // CSR child slice per parent row id
    kMaterialized,  // per-row set from a batch-evaluated field access
  };
  Mode mode = kShared;

  // kShared element base. Constant sets fill these lazily, on the first
  // non-empty batch — the same at-least-one-work-row condition under
  // which the scalar engine evaluates the source.
  const std::vector<Value>* shared = nullptr;
  Value shared_holder;
  bool shared_ready = false;
  std::shared_ptr<const ColumnarExtent> extent;  // kExtent provenance

  // kCsr / kMaterialized parent binding.
  const ColumnarChild* csr = nullptr;
  Bind parent;

  bool has_pred = false;    // r.pred != nullptr (lane frag compiled)
  bool has_source = false;  // kMaterialized source (lane frag compiled)

  // Batch hash join (kShared with equi-keys only). The build state below
  // is shared across worker lanes; hash_decided / hash_ok and the table
  // are written only under the pipeline mutex by whichever lane arrives
  // first, and the table is read-only once built.
  bool try_hash = false;
  bool hash_decided = false;
  bool hash_ok = false;
  EquiSplit split;
  ExprPtr residual_all;  // AndAll(split.residual), compiled per lane
  bool has_scan_key = false;  // key_col missed: lanes carry a scan_key frag
  bool has_residual = false;
  const std::vector<Value>* key_col = nullptr;  // whole-column fast path
  KeyTable table;
};

// The compiled fragments of one range level, owned by one lane (below).
struct LaneLevel {
  Frag pred;      // full range predicate (the non-join path)
  Frag source;    // kMaterialized: the set-valued access, batch-compiled
  Frag scan_key;  // hash build keys (when no whole-column fast path)
  Frag probe_key;
  Frag residual;
};

// Everything one executing thread needs privately: a row-wise evaluator
// (whose stats the BatchVm bumps — bound at compile time), the compiled
// fragments, and the probe scratch. Lane 0 wraps the coordinator's
// inner evaluator and is the only lane a serial execution touches;
// worker lanes are compiled only when the pipeline goes parallel.
struct VecLane {
  Evaluator* ev = nullptr;
  std::vector<LaneLevel> lv;
  std::map<const OutputSpec*, Frag> out_frags;
  KeyTable::BatchScratch probe_scratch;
  EvalStats& stats() { return ev->stats(); }
};

// One independently-runnable piece of the expansion: a context batch,
// optionally narrowed to a window of the level-0 candidate sequence.
// Units are exactly the serial engine's chunk boundaries, so every
// BatchVm::Run the workers issue has the same size and count as the
// serial execution — the per-batch counters merge to identical totals.
struct Unit {
  size_t lo = 0, hi = 0;            // context row range [lo, hi)
  size_t cand_lo = 0, cand_hi = 0;  // flattened candidate window
  bool windowed = false;
};

}  // namespace

// The per-node pipeline object. Lives for one TryExecNodeVectorized
// call; Setup() compiles every fragment (pure — no evaluation, so a
// refusal leaves no trace in results or errors), Execute() streams the
// batches and evaluates the outputs.
class VecPipeline {
 public:
  VecPipeline(ShredExecutor& ex, const FlatNode& node, const Rel& ctx,
              OpSpan& span)
      : ex_(ex),
        node_(node),
        ctx_(ctx),
        span_(span),
        nlevels_(node.ranges.size()),
        batch_(static_cast<size_t>(
            std::max(1, ex.opts().vector_batch_size))) {}

  bool Setup();
  Result<std::vector<Value>> Execute();

 private:
  std::optional<Bind> ResolveVar(const std::string& name, size_t upto) const {
    for (size_t l = upto; l-- > 0;) {
      if (node_.ranges[l].var == name) {
        return Bind{Bind::kLevel, static_cast<int>(l)};
      }
    }
    for (size_t c = ctx_.cols.size(); c-- > 0;) {
      if (ctx_.cols[c].var == name) {
        return Bind{Bind::kCtxCol, static_cast<int>(c)};
      }
    }
    return std::nullopt;
  }

  // Parameter selection: one column per *resolvable* free variable,
  // innermost binding first per name (duplicates shadow exactly like
  // Environment::Lookup). An unresolvable free variable is left to the
  // compiler, which fails on it — and the scalar rerun then reproduces
  // the interpreter's unbound-variable error.
  void CollectBinds(const std::set<std::string>& fv, size_t upto,
                    const std::string* self_var, Frag* f,
                    std::vector<std::string>* params) const {
    for (const std::string& v : fv) {
      if (self_var != nullptr && v == *self_var) {
        params->push_back(v);
        f->binds.push_back(Bind{Bind::kSelfVar, 0});
        continue;
      }
      std::optional<Bind> b = ResolveVar(v, upto);
      if (!b.has_value()) continue;
      params->push_back(v);
      f->binds.push_back(*b);
    }
  }

  bool CompileFrag(Evaluator& ev, Frag* f, const ExprPtr& body, size_t upto,
                   const std::string* self_var) {
    std::vector<std::string> params;
    CollectBinds(FreeVars(body), upto, self_var, f, &params);
    Environment empty;
    f->prog.Compile(ev, *body, params, empty);
    if (!f->prog.ok()) return false;
    f->present = true;
    return true;
  }

  bool CompileKeyFrag(Evaluator& ev, Frag* f, const std::vector<ExprPtr>& keys,
                      size_t upto, const std::string* self_var) {
    std::set<std::string> fv;
    for (const ExprPtr& k : keys) {
      std::set<std::string> kv = FreeVars(k);
      fv.insert(kv.begin(), kv.end());
    }
    std::vector<std::string> params;
    CollectBinds(fv, upto, self_var, f, &params);
    Environment empty;
    f->prog.CompileKey(ev, keys, params, empty);
    if (!f->prog.ok()) return false;
    f->present = true;
    return true;
  }

  bool CompileLaneOutputs(VecLane& ln, const OutputSpec& o) {
    switch (o.kind) {
      case OutputSpec::Kind::kScalar: {
        Frag& f = ln.out_frags[&o];
        return CompileFrag(*ln.ev, &f, o.scalar, nlevels_, nullptr);
      }
      case OutputSpec::Kind::kChild:
        return true;  // the child node gates independently via ExecNode
      case OutputSpec::Kind::kTuple:
        for (const OutputSpec& fo : o.fields) {
          if (!CompileLaneOutputs(ln, fo)) return false;
        }
        return true;
    }
    return false;
  }

  // Re-runs lane 0's compile recipe against a worker's evaluator. A
  // failure here (theoretical — workers share the coordinator's options)
  // just keeps the pipeline serial.
  bool CompileLane(VecLane& ln, Evaluator& ev) {
    ln.ev = &ev;
    ln.lv.resize(nlevels_);
    for (size_t j = 0; j < nlevels_; ++j) {
      const LaneLevel& proto = lane0_.lv[j];
      const VecLevel& lvl = levels_[j];
      LaneLevel& out = ln.lv[j];
      if (proto.source.present &&
          !CompileFrag(ev, &out.source, lvl.r->source, j, nullptr)) {
        return false;
      }
      if (proto.pred.present &&
          !CompileFrag(ev, &out.pred, lvl.r->pred, j, &lvl.r->var)) {
        return false;
      }
      if (proto.scan_key.present &&
          !CompileKeyFrag(ev, &out.scan_key, lvl.split.scan_keys, 0,
                          &lvl.r->var)) {
        return false;
      }
      if (proto.probe_key.present &&
          !CompileKeyFrag(ev, &out.probe_key, lvl.split.probe_keys, j,
                          nullptr)) {
        return false;
      }
      if (proto.residual.present &&
          !CompileFrag(ev, &out.residual, lvl.residual_all, j, &lvl.r->var)) {
        return false;
      }
    }
    return CompileLaneOutputs(ln, node_.out);
  }

  const Value& LevelVal(const VBatch& b, size_t l, uint32_t row) const {
    const VecLevel& lv = levels_[l];
    if (lv.mode == VecLevel::kMaterialized) return b.vals[l][row];
    if (lv.mode == VecLevel::kCsr) return lv.csr->elems[b.idx[l][row]];
    return (*lv.shared)[b.idx[l][row]];
  }

  // Fills the fragment's parameter columns for `m` rows. Rows come from
  // `cand->rows` when a chunk is given, else they are the identity range
  // [row_offset, row_offset + m) of `b`. The self column (candidate
  // elements) comes from the chunk.
  void BindFrag(Frag& f, const VBatch& b, size_t m, size_t row_offset,
                const CandChunk* cand, size_t self_level) {
    const uint32_t* rows = cand != nullptr ? cand->rows.data() : nullptr;
    for (size_t p = 0; p < f.binds.size(); ++p) {
      std::vector<Value>& col = f.prog.vm().ParamColumn(p);
      col.resize(m);
      const Bind& bd = f.binds[p];
      switch (bd.kind) {
        case Bind::kSelfVar: {
          const VecLevel& lv = levels_[self_level];
          if (lv.mode == VecLevel::kMaterialized) {
            for (size_t t = 0; t < m; ++t) col[t] = cand->elem_vals[t];
          } else {
            const std::vector<Value>& base = lv.mode == VecLevel::kCsr
                                                 ? lv.csr->elems
                                                 : *lv.shared;
            for (size_t t = 0; t < m; ++t) col[t] = base[cand->elems[t]];
          }
          break;
        }
        case Bind::kLevel: {
          const size_t l = static_cast<size_t>(bd.index);
          for (size_t t = 0; t < m; ++t) {
            const uint32_t row =
                rows != nullptr ? rows[t]
                                : static_cast<uint32_t>(row_offset + t);
            col[t] = LevelVal(b, l, row);
          }
          break;
        }
        case Bind::kCtxCol: {
          const Col& cc = ctx_.cols[static_cast<size_t>(bd.index)];
          for (size_t t = 0; t < m; ++t) {
            const uint32_t row =
                rows != nullptr ? rows[t]
                                : static_cast<uint32_t>(row_offset + t);
            col[t] = cc.vals[b.ctx[row]];
          }
          break;
        }
      }
    }
  }

  uint32_t ParentRowId(const VBatch& b, const Bind& parent,
                       uint32_t row) const {
    if (parent.kind == Bind::kLevel) {
      return b.idx[static_cast<size_t>(parent.index)][row];
    }
    const Col& cc = ctx_.cols[static_cast<size_t>(parent.index)];
    return cc.row_ids[b.ctx[row]];
  }

  VBatch MakeCtxBatch(size_t lo, size_t hi) const;
  Status ExpandFrom(VecLane& ln, size_t j, VBatch& b, VBatch* sink);
  Status FlushChunk(VecLane& ln, size_t j, const VBatch& b, CandChunk& chunk,
                    Frag* pred, VBatch* sink);
  Status EnsureShared(VecLane& ln, size_t j, VecLevel& lvl, const VBatch& b);
  void EnsureBuild(VecLane& ln, size_t j, VecLevel& lvl, bool allow_trace);
  Status HashExpand(VecLane& ln, size_t j, VecLevel& lvl, const VBatch& b,
                    VBatch* sink);
  Status NLExpand(VecLane& ln, size_t j, VecLevel& lvl, const VBatch& b,
                  VBatch* sink);
  Status CsrExpand(VecLane& ln, size_t j, VecLevel& lvl, const VBatch& b,
                   VBatch* sink);
  Status MatExpand(VecLane& ln, size_t j, const VBatch& b, VBatch* sink);
  Status RunUnit(VecLane& ln, const Unit& u, VBatch* sink);
  void AppendTo(VBatch* dst, VBatch b);
  Result<std::vector<Value>> EvalOut(const OutputSpec& out);

  ShredExecutor& ex_;
  const FlatNode& node_;
  const Rel& ctx_;
  OpSpan& span_;
  const size_t nlevels_;
  const size_t batch_;
  std::vector<VecLevel> levels_;
  VecLane lane0_;            // the coordinator's lane (ev = inner_)
  std::vector<VecLane> wl_;  // worker lanes, compiled only under mt_
  bool mt_ = false;
  // Guards every lazily-built piece of shared level state: constant-set
  // element bases and hash builds. One mutex for the whole pipeline —
  // lazy inits are per-level one-shots, not hot paths.
  std::mutex mu_;
  VBatch final_;
};

bool VecPipeline::Setup() {
  if (nlevels_ == 0) return false;
  levels_.resize(nlevels_);
  lane0_.ev = &ex_.inner();
  lane0_.lv.resize(nlevels_);
  const EvalOptions& opts = ex_.opts();
  for (size_t j = 0; j < nlevels_; ++j) {
    VecLevel& lvl = levels_[j];
    LaneLevel& ll = lane0_.lv[j];
    const RangeSpec& r = node_.ranges[j];
    lvl.r = &r;
    switch (r.kind) {
      case RangeKind::kExtent: {
        lvl.extent = ex_.db().columnar().Get(ex_.db(), r.table);
        // No projection (unknown table included): the scalar engine's
        // row-wise path owns the error behavior.
        if (lvl.extent == nullptr) return false;
        lvl.mode = VecLevel::kShared;
        lvl.shared = &lvl.extent->rows;
        lvl.shared_ready = true;
        break;
      }
      case RangeKind::kConstSet:
        lvl.mode = VecLevel::kShared;
        break;
      case RangeKind::kChildAttr: {
        std::optional<Bind> parent = ResolveVar(r.parent_var, j);
        const ColumnarExtent* pext = nullptr;
        if (parent.has_value()) {
          if (parent->kind == Bind::kLevel) {
            const VecLevel& pl = levels_[static_cast<size_t>(parent->index)];
            pext = pl.extent.get();
          } else {
            pext = ctx_.cols[static_cast<size_t>(parent->index)].extent.get();
          }
        }
        if (pext != nullptr) lvl.csr = pext->Child(r.attr);
        if (lvl.csr != nullptr) {
          lvl.mode = VecLevel::kCsr;
          lvl.parent = *parent;
        } else {
          lvl.mode = VecLevel::kMaterialized;
          if (!CompileFrag(ex_.inner(), &ll.source, r.source, j, nullptr)) {
            return false;
          }
          lvl.has_source = true;
        }
        break;
      }
      case RangeKind::kOpaque:
        return false;  // never marked vectorizable; defensive
    }
    if (r.pred != nullptr) {
      if (!CompileFrag(ex_.inner(), &ll.pred, r.pred, j, &r.var)) return false;
      lvl.has_pred = true;
      if (lvl.mode == VecLevel::kShared && opts.use_hash_joins &&
          opts.join_algorithm != JoinAlgorithm::kNestedLoop) {
        lvl.split = SplitEquiPred(r);
        if (!lvl.split.scan_keys.empty()) {
          if (opts.join_algorithm == JoinAlgorithm::kSortMerge) {
            // Sort-merge stays a scalar-engine feature; refusing keeps
            // its behavior (and joins_sortmerge accounting) intact.
            return false;
          }
          lvl.try_hash = true;
          if (lvl.split.scan_keys.size() == 1 && lvl.extent != nullptr) {
            const ExprPtr& e = lvl.split.scan_keys[0];
            if (e->kind() == ExprKind::kFieldAccess &&
                e->child(0)->kind() == ExprKind::kVar &&
                e->child(0)->name() == r.var) {
              lvl.key_col = lvl.extent->Column(e->name());
            }
          }
          if (lvl.key_col == nullptr) {
            if (!CompileKeyFrag(ex_.inner(), &ll.scan_key, lvl.split.scan_keys,
                                0, &r.var)) {
              lvl.try_hash = false;
            } else {
              lvl.has_scan_key = true;
            }
          }
          if (lvl.try_hash &&
              !CompileKeyFrag(ex_.inner(), &ll.probe_key, lvl.split.probe_keys,
                              j, nullptr)) {
            lvl.try_hash = false;
          }
          if (lvl.try_hash && !lvl.split.residual.empty()) {
            lvl.residual_all = Expr::AndAll(lvl.split.residual);
            if (!CompileFrag(ex_.inner(), &ll.residual, lvl.residual_all, j,
                             &r.var)) {
              lvl.try_hash = false;
            } else {
              lvl.has_residual = true;
            }
          }
          // A hash-side compile failure is not a node refusal: the fused
          // nested-loop path below still runs the full predicate.
        }
      }
    }
  }
  return CompileLaneOutputs(lane0_, node_.out);
}

VBatch VecPipeline::MakeCtxBatch(size_t lo, size_t hi) const {
  VBatch b;
  b.n = hi - lo;
  b.idx.resize(nlevels_);
  b.vals.resize(nlevels_);
  b.ctx.reserve(b.n);
  for (size_t i = lo; i < hi; ++i) b.ctx.push_back(static_cast<uint32_t>(i));
  return b;
}

Status VecPipeline::ExpandFrom(VecLane& ln, size_t j, VBatch& b,
                               VBatch* sink) {
  if (b.n == 0) return Status::OK();
  if (j == nlevels_) {
    AppendTo(sink, std::move(b));
    return Status::OK();
  }
  VecLevel& lvl = levels_[j];
  switch (lvl.mode) {
    case VecLevel::kShared:
      N2J_RETURN_IF_ERROR(EnsureShared(ln, j, lvl, b));
      if (lvl.try_hash) {
        EnsureBuild(ln, j, lvl, /*allow_trace=*/!mt_);
        if (lvl.hash_ok) return HashExpand(ln, j, lvl, b, sink);
      }
      return NLExpand(ln, j, lvl, b, sink);
    case VecLevel::kCsr:
      return CsrExpand(ln, j, lvl, b, sink);
    case VecLevel::kMaterialized:
      return MatExpand(ln, j, b, sink);
  }
  return Status::Internal("unreachable range mode");
}

Status VecPipeline::FlushChunk(VecLane& ln, size_t j, const VBatch& b,
                               CandChunk& chunk, Frag* pred, VBatch* sink) {
  const size_t m = chunk.size();
  if (m == 0) return Status::OK();
  std::vector<uint32_t> keep;
  keep.reserve(m);
  if (pred != nullptr) {
    BindFrag(*pred, b, m, 0, &chunk, j);
    ln.stats().predicate_evals += m;
    if (!pred->prog.vm().Run(m)) return pred->prog.status();
    const std::vector<Value>& res = pred->prog.vm().ResultColumn();
    for (uint32_t t = 0; t < m; ++t) {
      if (!res[t].is_bool()) {
        return Status::RuntimeError("selection predicate not boolean");
      }
      if (res[t].bool_value()) keep.push_back(t);
    }
  } else {
    for (uint32_t t = 0; t < m; ++t) keep.push_back(t);
  }
  if (keep.empty()) return Status::OK();

  VBatch nb;
  nb.n = keep.size();
  nb.idx.resize(nlevels_);
  nb.vals.resize(nlevels_);
  nb.ctx.reserve(nb.n);
  for (uint32_t t : keep) nb.ctx.push_back(b.ctx[chunk.rows[t]]);
  for (size_t l = 0; l < j; ++l) {
    if (levels_[l].mode == VecLevel::kMaterialized) {
      nb.vals[l].reserve(nb.n);
      for (uint32_t t : keep) nb.vals[l].push_back(b.vals[l][chunk.rows[t]]);
    } else {
      nb.idx[l].reserve(nb.n);
      for (uint32_t t : keep) nb.idx[l].push_back(b.idx[l][chunk.rows[t]]);
    }
  }
  if (levels_[j].mode == VecLevel::kMaterialized) {
    nb.vals[j].reserve(nb.n);
    for (uint32_t t : keep) nb.vals[j].push_back(std::move(chunk.elem_vals[t]));
  } else {
    nb.idx[j].reserve(nb.n);
    for (uint32_t t : keep) nb.idx[j].push_back(chunk.elems[t]);
  }
  return ExpandFrom(ln, j + 1, nb, sink);
}

Status VecPipeline::EnsureShared(VecLane& ln, size_t j, VecLevel& lvl,
                                 const VBatch& b) {
  std::lock_guard<std::mutex> lock(mu_);
  if (lvl.shared_ready) return Status::OK();
  // Constant set, evaluated once under the first surviving row's
  // bindings — the same row (and at-least-once condition) as the scalar
  // engine's PushRow(work, 0). Const-sets are uncorrelated by
  // classification, so which lane's surviving row supplies the bindings
  // cannot change the value; under mt_ the first-arriving lane builds
  // and everyone else reuses the cached base.
  Environment env;
  for (const Col& c : ctx_.cols) env.Push(c.var, c.vals[b.ctx[0]]);
  for (size_t l = 0; l < j; ++l) {
    env.Push(node_.ranges[l].var, LevelVal(b, l, 0));
  }
  Result<Value> v = ln.ev->Eval(lvl.r->source, env);
  if (!v.ok()) return v.status();
  if (!v->is_set()) {
    return Status::RuntimeError("shredded range over non-set");
  }
  lvl.shared_holder = std::move(*v);
  lvl.shared = &lvl.shared_holder.elements();
  lvl.shared_ready = true;
  return Status::OK();
}

void VecPipeline::EnsureBuild(VecLane& ln, size_t j, VecLevel& lvl,
                              bool allow_trace) {
  std::lock_guard<std::mutex> lock(mu_);
  if (lvl.hash_decided) return;
  lvl.hash_decided = true;
  const std::vector<Value>& base = *lvl.shared;
  const size_t n = base.size();
  std::vector<Value> keys_own;
  if (lvl.key_col == nullptr) {
    // Key evaluation may touch elements the predicate would have
    // short-circuited past, so any error abandons the join — the fused
    // nested-loop path reproduces the scalar engine's behavior exactly.
    keys_own.reserve(n);
    Frag& sk = ln.lv[j].scan_key;
    for (size_t lo = 0; lo < n; lo += batch_) {
      const size_t m = std::min(batch_, n - lo);
      std::vector<Value>& col = sk.prog.vm().ParamColumn(0);
      col.resize(m);
      for (size_t t = 0; t < m; ++t) col[t] = base[lo + t];
      if (!sk.prog.vm().Run(m)) return;  // hash_ok stays false
      std::vector<Value>& res = sk.prog.vm().ResultColumn();
      for (size_t t = 0; t < m; ++t) keys_own.push_back(std::move(res[t]));
    }
  }
  lvl.table = KeyTable(lvl.key_col != nullptr ? *lvl.key_col : keys_own);

  ln.stats().joins_hash += 1;
  ln.stats().hash_inserts += n;
  ln.stats().tuples_scanned += n;
  // Worker lanes skip the annotation: the trace collector's span stack
  // is coordinator-only. Level-0 builds (the common case) run eagerly on
  // the coordinator before any morsel launches, so parallel runs only
  // lose the annotation for hash levels deeper in the pipeline.
  if (allow_trace && ex_.opts().trace != nullptr) {
    ex_.opts().trace->AnnotateOpen(
        StrFormat(" vec-hash keys=%zu residual=%zu",
                  lvl.split.scan_keys.size(), lvl.split.residual.size()));
    ex_.opts().trace->NotePeakHash(lvl.table.distinct());
  }
  lvl.hash_ok = true;
}

Status VecPipeline::HashExpand(VecLane& ln, size_t j, VecLevel& lvl,
                               const VBatch& b, VBatch* sink) {
  Frag& pk = ln.lv[j].probe_key;
  BindFrag(pk, b, b.n, 0, nullptr, j);
  if (!pk.prog.vm().Run(b.n)) {
    // Probe-key error: fall back to the nested loop for THIS batch only
    // and let the full predicate decide — erroring only where the
    // interpreter does. hash_ok stays set: which batches fall back must
    // not depend on the order lanes reach them, and a per-batch
    // probe-key error is deterministic, so every execution (serial or
    // parallel) downgrades exactly the same batches.
    return NLExpand(ln, j, lvl, b, sink);
  }
  const std::vector<Value>& kc = pk.prog.vm().ResultColumn();
  ln.stats().hash_probes += b.n;

  CandChunk chunk;
  Frag* res_pred = ln.lv[j].residual.present ? &ln.lv[j].residual : nullptr;
  auto add = [&](uint32_t row, uint32_t elem) -> Status {
    chunk.rows.push_back(row);
    chunk.elems.push_back(elem);
    if (chunk.size() >= batch_) {
      N2J_RETURN_IF_ERROR(FlushChunk(ln, j, b, chunk, res_pred, sink));
      chunk.clear();
    }
    return Status::OK();
  };

  N2J_RETURN_IF_ERROR(lvl.table.ProbeBatch(
      kc.data(), b.n, &ln.probe_scratch, [&](size_t i, int32_t e) {
        return add(static_cast<uint32_t>(i), static_cast<uint32_t>(e));
      }));
  return FlushChunk(ln, j, b, chunk, res_pred, sink);
}

Status VecPipeline::NLExpand(VecLane& ln, size_t j, VecLevel& lvl,
                             const VBatch& b, VBatch* sink) {
  const std::vector<Value>& base = *lvl.shared;
  Frag* pred = ln.lv[j].pred.present ? &ln.lv[j].pred : nullptr;
  CandChunk chunk;
  for (uint32_t i = 0; i < b.n; ++i) {
    for (size_t e = 0; e < base.size(); ++e) {
      chunk.rows.push_back(i);
      chunk.elems.push_back(static_cast<uint32_t>(e));
      if (chunk.size() >= batch_) {
        ln.stats().tuples_scanned += chunk.size();
        N2J_RETURN_IF_ERROR(FlushChunk(ln, j, b, chunk, pred, sink));
        chunk.clear();
      }
    }
  }
  ln.stats().tuples_scanned += chunk.size();
  return FlushChunk(ln, j, b, chunk, pred, sink);
}

Status VecPipeline::CsrExpand(VecLane& ln, size_t j, VecLevel& lvl,
                              const VBatch& b, VBatch* sink) {
  Frag* pred = ln.lv[j].pred.present ? &ln.lv[j].pred : nullptr;
  CandChunk chunk;
  for (uint32_t i = 0; i < b.n; ++i) {
    const uint32_t rid = ParentRowId(b, lvl.parent, i);
    const uint32_t lo = lvl.csr->begin(rid);
    const uint32_t hi = lvl.csr->end(rid);
    for (uint32_t e = lo; e < hi; ++e) {
      chunk.rows.push_back(i);
      chunk.elems.push_back(e);  // global index into csr->elems
      if (chunk.size() >= batch_) {
        ln.stats().tuples_scanned += chunk.size();
        N2J_RETURN_IF_ERROR(FlushChunk(ln, j, b, chunk, pred, sink));
        chunk.clear();
      }
    }
  }
  ln.stats().tuples_scanned += chunk.size();
  return FlushChunk(ln, j, b, chunk, pred, sink);
}

Status VecPipeline::MatExpand(VecLane& ln, size_t j, const VBatch& b,
                              VBatch* sink) {
  Frag& src = ln.lv[j].source;
  BindFrag(src, b, b.n, 0, nullptr, j);
  if (!src.prog.vm().Run(b.n)) return src.prog.status();
  std::vector<Value>& res = src.prog.vm().ResultColumn();
  std::vector<Value> sets;
  sets.reserve(b.n);
  for (size_t i = 0; i < b.n; ++i) sets.push_back(std::move(res[i]));

  Frag* pred = ln.lv[j].pred.present ? &ln.lv[j].pred : nullptr;
  CandChunk chunk;
  for (uint32_t i = 0; i < b.n; ++i) {
    if (!sets[i].is_set()) {
      return Status::RuntimeError("shredded range over non-set");
    }
    for (const Value& elem : sets[i].elements()) {
      chunk.rows.push_back(i);
      chunk.elem_vals.push_back(elem);
      if (chunk.size() >= batch_) {
        ln.stats().tuples_scanned += chunk.size();
        N2J_RETURN_IF_ERROR(FlushChunk(ln, j, b, chunk, pred, sink));
        chunk.clear();
      }
    }
  }
  ln.stats().tuples_scanned += chunk.size();
  return FlushChunk(ln, j, b, chunk, pred, sink);
}

// One morsel of the parallel expansion. Non-windowed units run a whole
// context batch through the full pipeline; windowed units (nested-loop
// and CSR level 0) carve one serial-chunk-sized window out of the
// flattened (row × element) candidate sequence, which parallelizes even
// a single-context-row node over a large scan.
Status VecPipeline::RunUnit(VecLane& ln, const Unit& u, VBatch* sink) {
  VBatch b = MakeCtxBatch(u.lo, u.hi);
  if (!u.windowed) return ExpandFrom(ln, 0, b, sink);
  VecLevel& lvl = levels_[0];
  CandChunk chunk;
  if (lvl.mode == VecLevel::kShared) {
    const size_t S = lvl.shared->size();
    for (size_t pos = u.cand_lo; pos < u.cand_hi; ++pos) {
      chunk.rows.push_back(static_cast<uint32_t>(pos / S));
      chunk.elems.push_back(static_cast<uint32_t>(pos % S));
    }
  } else {  // kCsr
    size_t pos = 0;
    for (uint32_t i = 0; i < b.n && pos < u.cand_hi; ++i) {
      const uint32_t rid = ParentRowId(b, lvl.parent, i);
      const size_t lo0 = lvl.csr->begin(rid);
      const size_t n_i = lvl.csr->fanout(rid);
      const size_t from = std::max(u.cand_lo, pos);
      const size_t to = std::min(u.cand_hi, pos + n_i);
      for (size_t k = from; k < to; ++k) {
        chunk.rows.push_back(i);
        chunk.elems.push_back(static_cast<uint32_t>(lo0 + (k - pos)));
      }
      pos += n_i;
    }
  }
  ln.stats().tuples_scanned += chunk.size();
  Frag* pred = ln.lv[0].pred.present ? &ln.lv[0].pred : nullptr;
  return FlushChunk(ln, 0, b, chunk, pred, sink);
}

void VecPipeline::AppendTo(VBatch* dst, VBatch b) {
  dst->n += b.n;
  dst->ctx.insert(dst->ctx.end(), b.ctx.begin(), b.ctx.end());
  for (size_t l = 0; l < nlevels_; ++l) {
    if (levels_[l].mode == VecLevel::kMaterialized) {
      for (Value& v : b.vals[l]) dst->vals[l].push_back(std::move(v));
    } else {
      dst->idx[l].insert(dst->idx[l].end(), b.idx[l].begin(), b.idx[l].end());
    }
  }
}

Result<std::vector<Value>> VecPipeline::EvalOut(const OutputSpec& out) {
  const size_t n = final_.n;
  switch (out.kind) {
    case OutputSpec::Kind::kScalar: {
      std::vector<Value> vals(n);
      if (mt_ && n > batch_) {
        // The serial windows [lo, lo + batch_) are independent, and each
        // writes a disjoint slice of vals — the batch boundaries (and so
        // the per-batch counters) stay exactly the serial ones.
        ThreadPool& tp = ex_.pool();
        tp.set_morsel_phase("vec-out");
        const size_t nwin = (n + batch_ - 1) / batch_;
        Status s = tp.RunMorsels(nwin, [&](int w, size_t m) -> Status {
          const size_t lo = m * batch_;
          const size_t mm = std::min(batch_, n - lo);
          VecLane& ln = wl_[static_cast<size_t>(w)];
          Frag& f = ln.out_frags[&out];
          BindFrag(f, final_, mm, lo, nullptr, 0);
          if (!f.prog.vm().Run(mm)) return f.prog.status();
          std::vector<Value>& res = f.prog.vm().ResultColumn();
          for (size_t t = 0; t < mm; ++t) vals[lo + t] = std::move(res[t]);
          return Status::OK();
        });
        ex_.MergeWorkerStats();
        N2J_RETURN_IF_ERROR(s);
        return vals;
      }
      Frag& f = lane0_.out_frags[&out];
      for (size_t lo = 0; lo < n; lo += batch_) {
        const size_t m = std::min(batch_, n - lo);
        BindFrag(f, final_, m, lo, nullptr, 0);
        if (!f.prog.vm().Run(m)) return f.prog.status();
        std::vector<Value>& res = f.prog.vm().ResultColumn();
        for (size_t t = 0; t < m; ++t) vals[lo + t] = std::move(res[t]);
      }
      return vals;
    }
    case OutputSpec::Kind::kChild: {
      const FlatNode& child =
          ex_.plan().nodes[static_cast<size_t>(out.child)];
      if (child.ctx_vars.empty()) {
        // Uncorrelated subquery: one execution, broadcast — but only
        // when at least one work row exists (laziness, as scalar).
        if (n == 0) return std::vector<Value>{};
        Rel unit;
        unit.ctx = {0};
        N2J_ASSIGN_OR_RETURN(std::vector<Value> one,
                             ex_.ExecNode(child, std::move(unit)));
        return std::vector<Value>(n, one[0]);
      }
      Rel cctx;
      cctx.cols.reserve(child.ctx_vars.size());
      for (const std::string& v : child.ctx_vars) {
        std::optional<Bind> bd = ResolveVar(v, nlevels_);
        if (!bd.has_value()) continue;  // scalar skips unknown vars too
        Col col;
        col.var = v;
        col.vals.reserve(n);
        if (bd->kind == Bind::kLevel) {
          const size_t l = static_cast<size_t>(bd->index);
          for (size_t i = 0; i < n; ++i) {
            col.vals.push_back(LevelVal(final_, l, static_cast<uint32_t>(i)));
          }
          // Extent provenance flows to the child exactly as the scalar
          // engine's Skeleton/Emit propagate it.
          if (levels_[l].extent != nullptr) {
            col.extent = levels_[l].extent;
            col.row_ids = final_.idx[l];
          }
        } else {
          const Col& cc = ctx_.cols[static_cast<size_t>(bd->index)];
          for (size_t i = 0; i < n; ++i) {
            col.vals.push_back(cc.vals[final_.ctx[i]]);
          }
          if (cc.extent != nullptr) {
            col.extent = cc.extent;
            col.row_ids.reserve(n);
            for (size_t i = 0; i < n; ++i) {
              col.row_ids.push_back(cc.row_ids[final_.ctx[i]]);
            }
          }
        }
        cctx.cols.push_back(std::move(col));
      }
      cctx.ctx.resize(n);
      for (size_t i = 0; i < n; ++i) cctx.ctx[i] = static_cast<uint32_t>(i);
      return ex_.ExecNode(child, std::move(cctx));
    }
    case OutputSpec::Kind::kTuple: {
      std::vector<std::vector<Value>> field_vals;
      field_vals.reserve(out.fields.size());
      for (const OutputSpec& f : out.fields) {
        N2J_ASSIGN_OR_RETURN(std::vector<Value> fv, EvalOut(f));
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

Result<std::vector<Value>> VecPipeline::Execute() {
  ++ex_.inner().stats().vec_pipelines;
  final_.idx.resize(nlevels_);
  final_.vals.resize(nlevels_);
  const size_t nctx = ctx_.size();

  mt_ = ex_.parallel() && nctx > 0;
  if (mt_) {
    // Level-0 lazy state is built eagerly on the coordinator — exactly
    // what the serial engine does at its first batch, before any other
    // work, so the build's evaluations, counters, and trace annotations
    // land identically. (Deeper levels stay lazy behind the pipeline
    // mutex; reaching them at all requires surviving rows, which the
    // coordinator cannot know without evaluating.)
    VecLevel& l0 = levels_[0];
    if (l0.mode == VecLevel::kShared) {
      VBatch first = MakeCtxBatch(0, std::min(nctx, batch_));
      N2J_RETURN_IF_ERROR(EnsureShared(lane0_, 0, l0, first));
      if (l0.try_hash) EnsureBuild(lane0_, 0, l0, /*allow_trace=*/true);
    }
    std::vector<std::unique_ptr<Evaluator>>& ws = ex_.workers();
    wl_.resize(ws.size());
    for (size_t w = 0; w < ws.size() && mt_; ++w) {
      if (!CompileLane(wl_[w], *ws[w])) mt_ = false;
    }
  }

  if (!mt_) {
    for (size_t lo = 0; lo < nctx; lo += batch_) {
      VBatch b = MakeCtxBatch(lo, std::min(nctx, lo + batch_));
      N2J_RETURN_IF_ERROR(ExpandFrom(lane0_, 0, b, &final_));
    }
  } else {
    const VecLevel& l0 = levels_[0];
    std::vector<Unit> units;
    for (size_t lo = 0; lo < nctx; lo += batch_) {
      const size_t hi = std::min(nctx, lo + batch_);
      if (l0.mode == VecLevel::kShared && !(l0.try_hash && l0.hash_ok)) {
        const size_t total = (hi - lo) * l0.shared->size();
        for (size_t c = 0; c < total; c += batch_) {
          units.push_back(Unit{lo, hi, c, std::min(total, c + batch_), true});
        }
      } else if (l0.mode == VecLevel::kCsr) {
        const Col& cc = ctx_.cols[static_cast<size_t>(l0.parent.index)];
        size_t total = 0;
        for (size_t i = lo; i < hi; ++i) total += l0.csr->fanout(cc.row_ids[i]);
        for (size_t c = 0; c < total; c += batch_) {
          units.push_back(Unit{lo, hi, c, std::min(total, c + batch_), true});
        }
      } else {
        units.push_back(Unit{lo, hi, 0, 0, false});
      }
    }
    if (!units.empty()) {
      ThreadPool& tp = ex_.pool();
      tp.set_morsel_phase("vec-expand");
      std::vector<VBatch> sinks(units.size());
      for (VBatch& s : sinks) {
        s.idx.resize(nlevels_);
        s.vals.resize(nlevels_);
      }
      Status s = tp.RunMorsels(units.size(), [&](int w, size_t m) -> Status {
        return RunUnit(wl_[static_cast<size_t>(w)], units[m], &sinks[m]);
      });
      // Merge even on error: the caller rolls the whole attempt back
      // before the scalar rerun, and the worker-stats-are-zero invariant
      // must hold either way.
      ex_.MergeWorkerStats();
      N2J_RETURN_IF_ERROR(s);
      // Units concatenate in plan order, which is the serial engine's
      // generation order — row order is bit-identical, and the ctx
      // column stays non-decreasing for single-pass stitching.
      for (VBatch& sk : sinks) AppendTo(&final_, std::move(sk));
    }
  }

  N2J_ASSIGN_OR_RETURN(std::vector<Value> outs, EvalOut(node_.out));
  span_.Annotate("vec");
  span_.RowsOut(final_.n);
  return ShredExecutor::StitchByCtx(std::move(outs), final_.ctx, nctx);
}

Result<std::optional<std::vector<Value>>> ShredExecutor::TryExecNodeVectorized(
    const FlatNode& node, const Rel& ctx, OpSpan& span) {
  VecPipeline p(*this, node, ctx, span);
  if (!p.Setup()) return std::optional<std::vector<Value>>();
  N2J_ASSIGN_OR_RETURN(std::vector<Value> stitched, p.Execute());
  return std::optional<std::vector<Value>>(std::move(stitched));
}

}  // namespace shred
}  // namespace n2j
