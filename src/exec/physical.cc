// Hash-based and index-based physical implementations of the join
// family, including the nestjoin (Section 6.1: "To implement the
// nestjoin, common join implementation methods like the sort-merge
// join, or the hash join can be adapted"). The evaluator dispatches here
// when the join predicate contains extractable equi keys; otherwise
// joins run as nested loops. The sort-merge variant lives in
// physical_sortmerge.cc.

#include "adl/analysis.h"
#include "exec/compile.h"
#include "exec/equi_join.h"
#include "exec/eval.h"
#include "exec/join_kernels.h"
#include "obs/trace.h"
#include "storage/index.h"

namespace n2j {

Status Evaluator::EmitJoinResult(const Expr& e, const Value& x,
                                 const std::vector<const Value*>& matches,
                                 Environment& env, std::vector<Value>* out,
                                 CompiledLambda* inner) {
  switch (e.kind()) {
    case ExprKind::kJoin:
      for (const Value* y : matches) {
        N2J_ASSIGN_OR_RETURN(Value combined, ConcatTuples(x, *y));
        out->push_back(std::move(combined));
      }
      return Status::OK();
    case ExprKind::kSemiJoin:
      if (!matches.empty()) out->push_back(x);
      return Status::OK();
    case ExprKind::kAntiJoin:
      if (matches.empty()) out->push_back(x);
      return Status::OK();
    case ExprKind::kNestJoin: {
      if (!x.is_tuple()) {
        return Status::RuntimeError("nestjoin element not a tuple");
      }
      if (x.FindField(e.name()) != nullptr) {
        return Status::RuntimeError("nestjoin result attribute '" +
                                    e.name() + "' collides");
      }
      std::vector<Value> group;
      group.reserve(matches.size());
      if (inner != nullptr && inner->ok()) {
        for (const Value* y : matches) {
          Value* iv = inner->Run(x, *y);
          if (iv == nullptr) return inner->status();
          group.push_back(std::move(*iv));
        }
      } else {
        bool count_fallback = inner != nullptr && inner->fallback();
        env.Push(e.var(), x);
        for (const Value* y : matches) {
          if (count_fallback) ++stats_.interp_fallback_evals;
          env.Push(e.var2(), *y);
          Result<Value> iv = EvalNode(*e.inner(), env);
          env.Pop();
          if (!iv.ok()) {
            env.Pop();
            return iv.status();
          }
          group.push_back(std::move(iv).value());
        }
        env.Pop();
      }
      const TupleShape* shape = x.tuple_shape()->ExtendedWith(e.name());
      std::vector<Value> values = x.tuple_values();
      values.push_back(Value::Set(std::move(group)));
      out->push_back(Value::TupleFromShape(shape, std::move(values)));
      return Status::OK();
    }
    default:
      return Status::Internal("EmitJoinResult on non-join node");
  }
}

Result<Value> Evaluator::JoinKey(CompiledLambda& cl,
                                 const std::vector<ExprPtr>& keys,
                                 const std::string& var, const Value& row,
                                 Environment& env) {
  if (cl.ok()) {
    Value* k = cl.Run(row);
    if (k == nullptr) return cl.status();
    return std::move(*k);
  }
  if (cl.fallback()) ++stats_.interp_fallback_evals;
  env.Push(var, row);
  std::vector<Value> parts;
  parts.reserve(keys.size());
  for (const ExprPtr& k : keys) {
    Result<Value> kv = Eval(k, env);
    if (!kv.ok()) {
      env.Pop();
      return kv.status();
    }
    parts.push_back(std::move(kv).value());
  }
  env.Pop();
  return JoinKeyFromParts(std::move(parts));
}

Result<bool> Evaluator::ResidualHolds(const Expr& e, const Expr& residual,
                                      CompiledLambda& cl, const Value& x,
                                      const Value& y, Environment& env) {
  ++stats_.predicate_evals;
  Value holder;
  const Value* p = nullptr;
  if (cl.ok()) {
    p = cl.Run(x, y);
    if (p == nullptr) return cl.status();
  } else {
    if (cl.fallback()) ++stats_.interp_fallback_evals;
    env.Push(e.var(), x);
    env.Push(e.var2(), y);
    Result<Value> r = EvalNode(residual, env);
    env.Pop();
    env.Pop();
    if (!r.ok()) return r.status();
    holder = std::move(r).value();
    p = &holder;
  }
  if (!p->is_bool()) {
    return Status::RuntimeError("join residual not boolean");
  }
  return p->bool_value();
}

namespace {

// The probe side's per-evaluator state: compiled lambdas and the match
// buffer, reused across left tuples.
struct HashProbeFrame {
  JoinLambdas jl;
  std::vector<const Value*> matches;
};

}  // namespace

// Three steps, each indexed by input position so the result and (after
// the per-worker merge) every counter are independent of scheduling:
// the build-key column (morsels when num_threads > 1), one KeyTable
// over it, then probe morsels over the left operand sharing the table.
Result<Value> Evaluator::HashJoin(const Expr& e, const Value& l,
                                  const Value& r, Environment& env) {
  EquiJoinKeys keys = ExtractEquiKeys(e.pred(), e.var(), e.var2());
  if (!keys.usable()) {
    return Status::Unsupported("no equi keys in join predicate");
  }
  // Committed from here on: no kUnsupported return below, so the
  // dispatcher's span keeps this annotation.
  if (opts_.trace != nullptr) opts_.trace->AnnotateOpen(keys.Describe());
  const std::vector<Value>& build = r.elements();
  const std::vector<Value>& probe = l.elements();

  Result<std::vector<Value>> build_keys = DriveMorsels<CompiledLambda>(
      build.size(), "join/build-keys", env,
      [&](Evaluator& ev, Environment& wenv, CompiledLambda* key) {
        if (opts_.compiled && !build.empty()) {
          key->CompileKey(ev, keys.right_keys, e.var2(), wenv,
                          FirstElemShape(r));
        }
      },
      [&](Evaluator& ev, Environment& wenv, CompiledLambda& key,
          size_t begin, size_t end, std::vector<Value>* out) -> Status {
        for (size_t i = begin; i < end; ++i) {
          ++ev.stats_.tuples_scanned;
          Result<Value> k =
              ev.JoinKey(key, keys.right_keys, e.var2(), build[i], wenv);
          if (!k.ok()) return k.status();
          ++ev.stats_.hash_inserts;
          out->push_back(std::move(k).value());
        }
        return Status::OK();
      });
  if (!build_keys.ok()) return build_keys.status();
  const KeyTable table(*build_keys);
  if (opts_.trace != nullptr) opts_.trace->NotePeakHash(table.distinct());

  ExprPtr residual = Expr::AndAll(keys.residual);
  const bool trivial_residual = keys.residual.empty();
  Result<std::vector<Value>> out = DriveMorsels<HashProbeFrame>(
      probe.size(), "join/probe", env,
      [&](Evaluator& ev, Environment& wenv, HashProbeFrame* f) {
        if (!opts_.compiled || probe.empty()) return;
        f->jl.left_key.CompileKey(ev, keys.left_keys, e.var(), wenv,
                                  FirstElemShape(l));
        if (!trivial_residual) {
          f->jl.residual.Compile(ev, *residual, {e.var(), e.var2()}, wenv,
                                 FirstElemShape(l));
        }
        if (e.kind() == ExprKind::kNestJoin) {
          f->jl.inner.Compile(ev, *e.inner(), {e.var(), e.var2()}, wenv,
                              FirstElemShape(l));
        }
      },
      [&](Evaluator& ev, Environment& wenv, HashProbeFrame& f, size_t begin,
          size_t end, std::vector<Value>* out) -> Status {
        for (size_t i = begin; i < end; ++i) {
          const Value& x = probe[i];
          ++ev.stats_.tuples_scanned;
          Result<Value> key =
              ev.JoinKey(f.jl.left_key, keys.left_keys, e.var(), x, wenv);
          if (!key.ok()) return key.status();
          ++ev.stats_.hash_probes;
          f.matches.clear();
          for (int32_t y = table.Probe(*key); y != -1; y = table.Next(y)) {
            const Value& row = build[static_cast<size_t>(y)];
            if (!trivial_residual) {
              Result<bool> keep =
                  ev.ResidualHolds(e, *residual, f.jl.residual, x, row, wenv);
              if (!keep.ok()) return keep.status();
              if (!*keep) continue;
            }
            f.matches.push_back(&row);
          }
          N2J_RETURN_IF_ERROR(
              ev.EmitJoinResult(e, x, f.matches, wenv, out, &f.jl.inner));
        }
        return Status::OK();
      });
  if (!out.ok()) return out.status();
  return Value::Set(std::move(out).value());
}

Result<Value> Evaluator::IndexJoin(const Expr& e, const Value& l,
                                   Environment& env) {
  // Preconditions: the right operand is a base table with a prebuilt
  // index on the single right key attribute, i.e. the key expression is
  // exactly y.<field>.
  const ExprPtr& right = e.child(1);
  if (right->kind() != ExprKind::kGetTable) {
    return Status::Unsupported("index join needs a base-table right side");
  }
  EquiJoinKeys keys = ExtractEquiKeys(e.pred(), e.var(), e.var2());
  if (keys.left_keys.size() != 1) {
    return Status::Unsupported("index join needs exactly one equi key");
  }
  const ExprPtr& rk = keys.right_keys[0];
  if (!(rk->kind() == ExprKind::kFieldAccess &&
        rk->child(0)->kind() == ExprKind::kVar &&
        rk->child(0)->name() == e.var2())) {
    return Status::Unsupported("right key is not a plain attribute");
  }
  const HashIndex* index = db_.FindIndex(right->name(), rk->name());
  if (index == nullptr) {
    return Status::Unsupported("no index on " + right->name() + "." +
                               rk->name());
  }
  const Table* table = db_.FindTable(right->name());
  N2J_CHECK(table != nullptr);
  // Committed: every return below is a real result or a real error.
  if (opts_.trace != nullptr) {
    opts_.trace->AnnotateOpen("index=" + right->name() + "." + rk->name());
  }

  std::vector<Value> out;
  ExprPtr residual = Expr::AndAll(keys.residual);
  bool trivial_residual = keys.residual.empty();
  JoinLambdas jl;
  if (opts_.compiled && l.set_size() > 0) {
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
  for (const Value& x : l.elements()) {
    ++stats_.tuples_scanned;
    N2J_ASSIGN_OR_RETURN(
        Value key, JoinKey(jl.left_key, keys.left_keys, e.var(), x, env));
    ++stats_.index_probes;
    const std::vector<size_t>* rows = index->Lookup(key);
    std::vector<const Value*> matches;
    if (rows != nullptr) {
      for (size_t row : *rows) {
        const Value& y = table->rows()[row];
        if (!trivial_residual) {
          N2J_ASSIGN_OR_RETURN(
              bool keep, ResidualHolds(e, *residual, jl.residual, x, y, env));
          if (!keep) continue;
        }
        matches.push_back(&y);
      }
    }
    N2J_RETURN_IF_ERROR(EmitJoinResult(e, x, matches, env, &out, &jl.inner));
  }
  return Value::Set(std::move(out));
}

}  // namespace n2j
