// Hash implementation for membership join predicates:
//
//   X ⊗_{x,y : f(y) ∈ x.c ∧ residual} Y            (⊗ any of ⋈, ⋉, ▷, ⊣)
//   X ⊗_{x,y : (∃v ∈ x.c · k(v) = f(y)) ∧ residual} Y
//
// Builds a hash table on f(y) over the right operand, then probes it
// once per *element* of each left tuple's set attribute — |X|·fanout
// probes instead of |X|·|Y| predicate evaluations. This is the access
// pattern of the paper's Example Query 6 (σ[p : p[pid] ∈ s.parts](PART)
// under the nestjoin) and of Example Query 5's semijoin
// (∃x ∈ s.parts · x.pid = p.pid).

#include "exec/compile.h"
#include "exec/equi_join.h"
#include "exec/eval.h"
#include "exec/join_kernels.h"
#include "obs/trace.h"

namespace n2j {

namespace {

// The probe side's per-evaluator state. `stamp[row]` holds the index + 1
// of the last left tuple that matched build row `row` — the dedup of
// the element-key form, where two elements can share a key.
struct MembershipFrame {
  JoinLambdas jl;
  std::vector<const Value*> matches;
  std::vector<size_t> stamp;
};

}  // namespace

Result<Value> Evaluator::MembershipJoin(const Expr& e, const Value& l,
                                        const Value& r, Environment& env) {
  MembershipKey key = ExtractMembershipKey(e.pred(), e.var(), e.var2());
  if (!key.found) {
    return Status::Unsupported("no membership conjunct");
  }
  // Committed: no kUnsupported return past conjunct recognition.
  if (opts_.trace != nullptr) {
    opts_.trace->AnnotateOpen("attr=" + key.attr);
  }
  const std::vector<Value>& build = r.elements();
  const std::vector<Value>& probe = l.elements();

  // Build: f(y) per right tuple, on this evaluator (serial even under
  // morsel parallelism: the probe side dominates).
  CompiledLambda build_key;
  if (opts_.compiled && !build.empty()) {
    build_key.Compile(*this, *key.right_key, {e.var2()}, env,
                      FirstElemShape(r));
  }
  const std::vector<ExprPtr> right_key = {key.right_key};
  const std::vector<ExprPtr> elem_key = {key.elem_key};
  std::vector<Value> build_keys;
  build_keys.reserve(build.size());
  for (const Value& y : build) {
    ++stats_.tuples_scanned;
    N2J_ASSIGN_OR_RETURN(Value kv,
                         JoinKey(build_key, right_key, e.var2(), y, env));
    ++stats_.hash_inserts;
    build_keys.push_back(std::move(kv));
  }
  const KeyTable table(build_keys);
  if (opts_.trace != nullptr) opts_.trace->NotePeakHash(table.distinct());

  ExprPtr residual = Expr::AndAll(key.residual);
  bool trivial_residual = key.residual.empty();

  // Probe-side element shape: the elements of the first left tuple's
  // set attribute seed the element-key program's inline caches.
  const TupleShape* elem_shape = nullptr;
  if (!probe.empty()) {
    const Value& x0 = probe[0];
    if (x0.is_tuple()) {
      const Value* a = x0.FindField(key.attr);
      if (a != nullptr && a->is_set()) elem_shape = FirstElemShape(*a);
    }
  }
  auto prepare = [&](Evaluator& ev, Environment& wenv, MembershipFrame* f) {
    if (key.elem_key != nullptr) f->stamp.assign(build.size(), 0);
    if (!opts_.compiled || probe.empty()) return;
    if (key.elem_key != nullptr) {
      f->jl.elem_key.Compile(ev, *key.elem_key, {key.elem_var}, wenv,
                             elem_shape);
    }
    if (!trivial_residual) {
      f->jl.residual.Compile(ev, *residual, {e.var(), e.var2()}, wenv,
                             FirstElemShape(l));
    }
    if (e.kind() == ExprKind::kNestJoin) {
      f->jl.inner.Compile(ev, *e.inner(), {e.var(), e.var2()}, wenv,
                          FirstElemShape(l));
    }
  };

  // Matches of left tuple i (bound in wenv): the table is probed once
  // per element of its set attribute.
  auto collect = [&](Evaluator& ev, Environment& wenv, MembershipFrame& f,
                     size_t i, const Value& attr) -> Status {
    const Value& x = probe[i];
    for (const Value& elem : attr.elements()) {
      ++ev.stats_.hash_probes;
      const Value* probe_key = &elem;
      Value k;
      if (key.elem_key != nullptr) {
        N2J_ASSIGN_OR_RETURN(
            k, ev.JoinKey(f.jl.elem_key, elem_key, key.elem_var, elem, wenv));
        probe_key = &k;
      }
      for (int32_t y = table.Probe(*probe_key); y != -1; y = table.Next(y)) {
        if (key.elem_key != nullptr) {
          size_t& seen = f.stamp[static_cast<size_t>(y)];
          if (seen == i + 1) continue;
          seen = i + 1;
        }
        const Value& row = build[static_cast<size_t>(y)];
        if (!trivial_residual) {
          N2J_ASSIGN_OR_RETURN(bool keep,
                               ev.ResidualHolds(e, *residual, f.jl.residual,
                                                x, row, wenv));
          if (!keep) continue;
        }
        f.matches.push_back(&row);
      }
    }
    return Status::OK();
  };

  Result<std::vector<Value>> out = DriveMorsels<MembershipFrame>(
      probe.size(), "membership/probe", env, prepare,
      [&](Evaluator& ev, Environment& wenv, MembershipFrame& f, size_t begin,
          size_t end, std::vector<Value>* out) -> Status {
        for (size_t i = begin; i < end; ++i) {
          const Value& x = probe[i];
          ++ev.stats_.tuples_scanned;
          if (!x.is_tuple()) {
            return Status::RuntimeError("join element not a tuple");
          }
          const Value* attr = x.FindField(key.attr);
          if (attr == nullptr || !attr->is_set()) {
            return Status::RuntimeError("membership attribute '" + key.attr +
                                        "' is not a set");
          }
          f.matches.clear();
          wenv.Push(e.var(), x);
          Status s = collect(ev, wenv, f, i, *attr);
          wenv.Pop();
          N2J_RETURN_IF_ERROR(s);
          N2J_RETURN_IF_ERROR(
              ev.EmitJoinResult(e, x, f.matches, wenv, out, &f.jl.inner));
        }
        return Status::OK();
      });
  if (!out.ok()) return out.status();
  return Value::Set(std::move(out).value());
}

}  // namespace n2j
