#ifndef N2J_SHRED_EXEC_INTERNAL_H_
#define N2J_SHRED_EXEC_INTERNAL_H_

// Internals shared by the two engines of the shredded executor: the
// row-wise scalar engine (exec.cc) and the vectorized batch engine
// (vexec.cc). Both are member-function families of one ShredExecutor so
// they share the working-relation representation, the row-wise delegate
// evaluator (and with it ONE EvalStats struct — the span-sum invariant
// depends on every counter bump landing there), and the per-node
// dispatch: ExecNode tries the batch pipeline when the node qualifies
// and falls back to the scalar path otherwise. Not part of the public
// shred API — include shred.h instead.

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "adl/expr.h"
#include "adl/value.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "exec/eval.h"
#include "exec/join_kernels.h"
#include "obs/trace.h"
#include "shred/shred.h"
#include "storage/columnar.h"

namespace n2j {
namespace shred {

// One column of the working relation. `extent`/`row_ids` are provenance:
// set when the column's values are rows of a columnar extent, so a later
// kChildAttr range can slice the CSR child relation instead of
// re-evaluating the field access per row.
struct Col {
  std::string var;
  std::vector<Value> vals;
  std::shared_ptr<const ColumnarExtent> extent;
  std::vector<uint32_t> row_ids;
};

// The working relation of one DAG node: context columns plus one column
// per expanded range. `ctx[i]` is row i's synthetic parent id — the
// index of the context row it descends from. Rows stay sorted by ctx,
// which makes stitching a single linear pass.
struct Rel {
  std::vector<Col> cols;
  std::vector<uint32_t> ctx;
  size_t size() const { return ctx.size(); }
};

inline void PushRow(Environment* env, const Rel& rel, size_t row) {
  for (const Col& c : rel.cols) env->Push(c.var, c.vals[row]);
}

inline void PopRow(Environment* env, const Rel& rel) {
  for (size_t i = 0; i < rel.cols.size(); ++i) env->Pop();
}

// A range predicate split into equi-join keys and residual conjuncts:
// scan_keys[i] is a function of the range variable alone, probe_keys[i]
// of the outer bindings alone. Shared by the scalar TryJoinExpand and
// the vectorized batch hash join so both engines agree on when a range
// is a join.
struct EquiSplit {
  std::vector<ExprPtr> scan_keys;
  std::vector<ExprPtr> probe_keys;
  std::vector<ExprPtr> residual;
};

/// Splits r.pred (non-null) by r.var. scan_keys empty = not a join.
EquiSplit SplitEquiPred(const RangeSpec& r);

class ShredExecutor {
 public:
  ShredExecutor(const Database& db, const ShredPlan& plan,
                const EvalOptions& opts)
      : db_(db), plan_(plan), opts_(opts), inner_(db, InnerOpts(opts)) {}

  Result<Value> Run();
  EvalStats& stats() { return inner_.stats(); }

  // Accessors for the batch pipeline (vexec.cc builds a helper object
  // around the executor rather than friending into it).
  const Database& db() const { return db_; }
  const ShredPlan& plan() const { return plan_; }
  const EvalOptions& opts() const { return opts_; }
  Evaluator& inner() { return inner_; }

  // ---- Morsel parallelism (shared by both engines) -------------------
  // Both engines parallelize the same way: the coordinator partitions
  // row ranges (scalar) or candidate windows (vec) into morsels, each
  // worker runs its morsels with a private row-wise delegate and a
  // private output slot, and the coordinator concatenates the slots in
  // morsel order — so output row order, and with it stitching and set
  // semantics, is bit-identical to the serial engine.

  /// True when EvalOptions asks for intra-query parallelism.
  bool parallel() const { return opts_.num_threads > 1; }
  /// The executor's pool (lazy; sink wired to the trace collector's
  /// thread-safe worker-span timeline, like Evaluator::pool()).
  ThreadPool& pool();
  /// Per-worker row-wise delegates, forked lazily from inner_ and
  /// reused across parallel sections. Invariant: their stats are zero
  /// outside a parallel section — every section ends in
  /// MergeWorkerStats() or ResetWorkerStats().
  std::vector<std::unique_ptr<Evaluator>>& workers();
  /// Folds every worker's counters into inner_.stats() — before the
  /// enclosing span closes, so span exclusive deltas keep summing to
  /// the globals — then zeroes the workers for the next section.
  void MergeWorkerStats();
  /// Zeroes worker stats without merging (the join-abandon ledger merges
  /// a per-morsel prefix itself and discards the rest).
  void ResetWorkerStats();

  /// Executes one DAG node over its context rows: dispatches to the
  /// vectorized pipeline when the node qualifies, else (or on any
  /// mid-batch error, for exact first-error order) to the scalar
  /// engine. Returns one stitched set per context row.
  Result<std::vector<Value>> ExecNode(const FlatNode& node, Rel ctx);

  /// Folds per-work-row outputs into one set per context row. `ctx` must
  /// be non-decreasing (work rows stay sorted by context id).
  static std::vector<Value> StitchByCtx(std::vector<Value> outs,
                                        const std::vector<uint32_t>& ctx,
                                        size_t nctx);

 private:
  // The row-wise delegate shares opts (threads, compiled, tracing) but
  // never re-dispatches to the shredded backend. Every counter this
  // executor bumps goes through inner_.stats(), so all trace spans —
  // the per-node spans here and the operator spans the delegate opens —
  // measure deltas of ONE stats struct and their exclusive sums match
  // the global counters by construction.
  static EvalOptions InnerOpts(EvalOptions o) {
    o.backend = Backend::kNested;
    o.plan = nullptr;
    return o;
  }

  // ---- Scalar engine (exec.cc) --------------------------------------
  Result<std::vector<Value>> ExecNodeScalar(const FlatNode& node, Rel ctx,
                                            OpSpan& span);
  Result<Rel> ExpandRange(const RangeSpec& r, Rel work);
  Result<std::optional<Rel>> TryJoinExpand(
      const RangeSpec& r, const Rel& work, const std::vector<Value>& elems,
      const std::shared_ptr<const ColumnarExtent>& columnar);
  Result<std::vector<Value>> EvalOutputs(const OutputSpec& out,
                                         const Rel& work);

  // Row-range loop bodies, shared verbatim by the serial whole-range
  // calls (delegate = inner_) and the parallel per-morsel calls
  // (delegate = one worker, emitting into a private slot).
  Status NlScanRows(Evaluator& ev, const RangeSpec& r, const Rel& work,
                    const std::vector<Value>& elems, size_t row_begin,
                    size_t row_end, Rel* out);
  Status PerRowExpandRows(Evaluator& ev, const RangeSpec& r, const Rel& work,
                          const ColumnarChild* csr, const Col* parent,
                          size_t row_begin, size_t row_end, Rel* out);
  /// The probe half of the scalar hash / sort-merge join. Sets
  /// *abandoned (with an OK status) when a probe-key evaluation fails:
  /// the caller falls back to the nested-loop scan, which reproduces
  /// the interpreter's behavior exactly. Residual errors propagate.
  Status ProbeRows(Evaluator& ev, const RangeSpec& r, const Rel& work,
                   const std::vector<Value>& elems, const EquiSplit& split,
                   bool sort_merge, const KeyTable& table,
                   const std::vector<std::pair<Value, uint32_t>>& sorted,
                   size_t row_begin, size_t row_end, Rel* out,
                   bool* abandoned);
  /// Runs `body(worker_delegate, row_begin, row_end, slot)` over morsels
  /// of [0, nrows), each slot a copy of the (empty) skeleton `*out`,
  /// merges worker stats, and appends the slots to `out` in morsel
  /// order. Returns the lowest-numbered failing morsel's error.
  Status ParallelRows(
      size_t nrows, const char* phase,
      const std::function<Status(Evaluator&, size_t, size_t, Rel*)>& body,
      Rel* out);

  Rel Skeleton(const Rel& work, const RangeSpec& r,
               const std::shared_ptr<const ColumnarExtent>& columnar);
  static void Emit(const Rel& work, size_t row, const Value& elem,
                   uint32_t elem_row_id, Rel* out);

  // ---- Vectorized engine (vexec.cc) ---------------------------------
  // Fused batch pipeline over the node's ranges. Three-way outcome:
  //   ok + value    — the node ran vectorized; stitched sets returned.
  //   ok + nullopt  — the node refused vectorization (a lambda did not
  //                   compile, an extent has no columnar projection);
  //                   nothing was evaluated, run the scalar engine.
  //   error         — the pipeline hit an evaluation error. Every
  //                   evaluation the pipeline performs, the scalar
  //                   engine also performs (unless it errors earlier),
  //                   so the caller reruns scalar to surface the
  //                   row-order first error the fidelity contract
  //                   promises. The query aborts either way.
  Result<std::optional<std::vector<Value>>> TryExecNodeVectorized(
      const FlatNode& node, const Rel& ctx, OpSpan& span);

  const Database& db_;
  const ShredPlan& plan_;
  EvalOptions opts_;
  Evaluator inner_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<Evaluator>> workers_;
};

}  // namespace shred
}  // namespace n2j

#endif  // N2J_SHRED_EXEC_INTERNAL_H_
