#include "exec/equi_join.h"

#include <array>
#include <atomic>

#include "adl/analysis.h"
#include "common/str_util.h"

namespace n2j {

std::string EquiJoinKeys::Describe() const {
  std::string out = StrFormat("keys=%zu", left_keys.size());
  if (!residual.empty()) {
    out += StrFormat(" residual=%zu", residual.size());
  }
  return out;
}

EquiJoinKeys ExtractEquiKeys(const ExprPtr& pred, const std::string& lvar,
                             const std::string& rvar) {
  EquiJoinKeys out;
  for (const ExprPtr& conjunct : SplitConjuncts(pred)) {
    if (conjunct->kind() == ExprKind::kBinary &&
        conjunct->bin_op() == BinOp::kEq) {
      const ExprPtr& a = conjunct->child(0);
      const ExprPtr& b = conjunct->child(1);
      bool a_has_l = IsFreeIn(lvar, a);
      bool a_has_r = IsFreeIn(rvar, a);
      bool b_has_l = IsFreeIn(lvar, b);
      bool b_has_r = IsFreeIn(rvar, b);
      if (a_has_l && !a_has_r && b_has_r && !b_has_l) {
        out.left_keys.push_back(a);
        out.right_keys.push_back(b);
        continue;
      }
      if (b_has_l && !b_has_r && a_has_r && !a_has_l) {
        out.left_keys.push_back(b);
        out.right_keys.push_back(a);
        continue;
      }
    }
    out.residual.push_back(conjunct);
  }
  return out;
}

namespace {

bool IsLeftAttr(const ExprPtr& e, const std::string& lvar) {
  return e->kind() == ExprKind::kFieldAccess &&
         e->child(0)->kind() == ExprKind::kVar &&
         e->child(0)->name() == lvar;
}

}  // namespace

MembershipKey ExtractMembershipKey(const ExprPtr& pred,
                                   const std::string& lvar,
                                   const std::string& rvar) {
  MembershipKey out;
  for (const ExprPtr& c : SplitConjuncts(pred)) {
    if (!out.found && c->kind() == ExprKind::kBinary &&
        c->bin_op() == BinOp::kIn) {
      const ExprPtr& lhs = c->child(0);
      const ExprPtr& rhs = c->child(1);
      if (IsLeftAttr(rhs, lvar) && !IsFreeIn(lvar, lhs) &&
          IsFreeIn(rvar, lhs)) {
        out.right_key = lhs;
        out.attr = rhs->name();
        out.found = true;
        continue;
      }
    }
    // ∃v ∈ x.attr · k(v) = f(y)  (either orientation of the equality).
    if (!out.found && c->kind() == ExprKind::kQuantifier &&
        c->quant_kind() == QuantKind::kExists &&
        IsLeftAttr(c->child(0), lvar) &&
        c->child(1)->kind() == ExprKind::kBinary &&
        c->child(1)->bin_op() == BinOp::kEq) {
      const std::string& v = c->var();
      ExprPtr a = c->child(1)->child(0);
      ExprPtr b = c->child(1)->child(1);
      bool a_elem = IsFreeIn(v, a) && !IsFreeIn(rvar, a) &&
                    !IsFreeIn(lvar, a);
      bool b_right = IsFreeIn(rvar, b) && !IsFreeIn(v, b) &&
                     !IsFreeIn(lvar, b);
      if (!(a_elem && b_right)) {
        std::swap(a, b);
        a_elem = IsFreeIn(v, a) && !IsFreeIn(rvar, a) && !IsFreeIn(lvar, a);
        b_right = IsFreeIn(rvar, b) && !IsFreeIn(v, b) &&
                  !IsFreeIn(lvar, b);
      }
      if (a_elem && b_right) {
        out.elem_var = v;
        out.elem_key = a;
        out.right_key = b;
        out.attr = c->child(0)->name();
        out.found = true;
        continue;
      }
    }
    out.residual.push_back(c);
  }
  return out;
}

// Cached per arity so the per-row path never rebuilds name strings.
const TupleShape* JoinKeyShape(size_t n) {
  constexpr size_t kMaxCached = 16;
  static std::array<std::atomic<const TupleShape*>, kMaxCached> cache{};
  if (n < kMaxCached) {
    const TupleShape* s = cache[n].load(std::memory_order_acquire);
    if (s != nullptr) return s;
  }
  std::vector<std::string> names;
  names.reserve(n);
  for (size_t i = 0; i < n; ++i) names.push_back("k" + std::to_string(i));
  const TupleShape* s = TupleShape::Intern(std::move(names));
  if (n < kMaxCached) cache[n].store(s, std::memory_order_release);
  return s;
}

Value JoinKeyFromParts(std::vector<Value> parts) {
  if (parts.size() == 1) return std::move(parts[0]);
  const TupleShape* shape = JoinKeyShape(parts.size());
  return Value::TupleFromShape(shape, std::move(parts));
}

}  // namespace n2j
