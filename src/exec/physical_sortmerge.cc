// Sort-merge implementation of the join family. Both operands are
// sorted on their evaluated equi keys and merged; equal-key runs pair up
// and the residual predicate filters within a run. The nestjoin adapts
// naturally: each left tuple's group is the filtered right run —
// "common join implementation methods like the sort-merge join ... can
// be adapted" (Section 6.1).

#include <algorithm>

#include "adl/analysis.h"
#include "exec/compile.h"
#include "exec/equi_join.h"
#include "exec/eval.h"
#include "obs/trace.h"

namespace n2j {

namespace {

struct Keyed {
  Value key;
  const Value* row;
};

}  // namespace

Result<Value> Evaluator::SortMergeJoin(const Expr& e, const Value& l,
                                       const Value& r, Environment& env) {
  EquiJoinKeys keys = ExtractEquiKeys(e.pred(), e.var(), e.var2());
  if (!keys.usable()) {
    return Status::Unsupported("no equi keys in join predicate");
  }
  // Committed: no kUnsupported return past the key extraction.
  if (opts_.trace != nullptr) opts_.trace->AnnotateOpen(keys.Describe());

  ExprPtr residual = Expr::AndAll(keys.residual);
  bool trivial_residual = keys.residual.empty();
  JoinLambdas jl;
  if (opts_.compiled) {
    if (r.set_size() > 0) {
      jl.right_key.CompileKey(*this, keys.right_keys, e.var2(), env,
                              FirstElemShape(r));
    }
    if (l.set_size() > 0) {
      jl.left_key.CompileKey(*this, keys.left_keys, e.var(), env,
                             FirstElemShape(l));
      if (!trivial_residual) {
        jl.residual.Compile(*this, *residual, {e.var(), e.var2()}, env,
                            FirstElemShape(l));
      }
      if (e.kind() == ExprKind::kNestJoin) {
        jl.inner.Compile(*this, *e.inner(), {e.var(), e.var2()}, env,
                         FirstElemShape(l));
      }
    }
  }

  auto build_keyed = [&](const Value& operand, const std::string& var,
                         const std::vector<ExprPtr>& key_exprs,
                         CompiledLambda& key_cl,
                         std::vector<Keyed>* out) -> Status {
    out->reserve(operand.set_size());
    for (const Value& row : operand.elements()) {
      ++stats_.tuples_scanned;
      N2J_ASSIGN_OR_RETURN(Value k, JoinKey(key_cl, key_exprs, var, row, env));
      out->push_back({std::move(k), &row});
    }
    stats_.rows_sorted += out->size();
    std::sort(out->begin(), out->end(),
              [](const Keyed& a, const Keyed& b) {
                return a.key.Compare(b.key) < 0;
              });
    return Status::OK();
  };

  std::vector<Keyed> left;
  std::vector<Keyed> right;
  N2J_RETURN_IF_ERROR(
      build_keyed(l, e.var(), keys.left_keys, jl.left_key, &left));
  N2J_RETURN_IF_ERROR(
      build_keyed(r, e.var2(), keys.right_keys, jl.right_key, &right));

  std::vector<Value> out;
  size_t i = 0;
  size_t j = 0;
  while (i < left.size()) {
    // Advance the right cursor to the left key.
    int cmp = -1;
    while (j < right.size() &&
           (cmp = right[j].key.Compare(left[i].key)) < 0) {
      ++j;
    }
    // The right run matching this key: [j, run_end).
    size_t run_end = j;
    if (j < right.size() && cmp == 0) {
      while (run_end < right.size() &&
             right[run_end].key == left[i].key) {
        ++run_end;
      }
    }
    // Every left tuple with this key pairs against the same run.
    const Value& key = left[i].key;
    while (i < left.size() && left[i].key == key) {
      const Value& x = *left[i].row;
      std::vector<const Value*> matches;
      if (run_end > j) {
        if (trivial_residual) {
          for (size_t k = j; k < run_end; ++k) {
            matches.push_back(right[k].row);
          }
        } else {
          for (size_t k = j; k < run_end; ++k) {
            N2J_ASSIGN_OR_RETURN(bool keep,
                                 ResidualHolds(e, *residual, jl.residual, x,
                                               *right[k].row, env));
            if (keep) matches.push_back(right[k].row);
          }
        }
      }
      N2J_RETURN_IF_ERROR(EmitJoinResult(e, x, matches, env, &out, &jl.inner));
      ++i;
    }
    j = run_end;
  }
  return Value::Set(std::move(out));
}

}  // namespace n2j
