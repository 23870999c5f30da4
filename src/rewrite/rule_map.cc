// Rule 2 of the paper (nesting in the map operator):
//
//   ⋃(α[x : α[y : G](σ[y : p](Y))](X))  =  α[t : G'](X' ⋈_{p'} Y')
//
// The nested map creates a set of sets that is flattened immediately
// afterwards; the join produces the same result set-at-a-time. This is
// also the shape the translator emits for multi-variable from-clauses,
// so `select G from x in X, y in Y where p` becomes a join here.
//
// For the pairing body G = x∘y the join alone is the result (the form
// the paper states). For any other body, each binder must be used only
// through field accesses: X and Y are then projected to the fields G
// and p read, under collision-free names (X' = α[x : (x_a = x.a)](X)),
// and the map on top rebuilds G from the join tuple t. Projecting
// before the join is safe under set semantics because the result
// depends only on the fields read. A conjunct of p that mentions a
// variable bound outside the ⋃ stays in a selection above the join, so
// the join itself is uncorrelated and the enclosing level matches this
// rule again: applied bottom-up, k independent ranges become k−1 joins.
// An operand that is already a join keeps its attribute names when
// they do not collide, so the chain stays flat for the join-order DP.

#include <algorithm>
#include <map>

#include "rewrite/rules_internal.h"

namespace n2j {
namespace rewrite_internal {

namespace {

bool IsPairing(const ExprPtr& body, const std::string& x,
               const std::string& y) {
  return body->kind() == ExprKind::kTupleConcat &&
         body->child(0)->kind() == ExprKind::kVar &&
         body->child(0)->name() == x &&
         body->child(1)->kind() == ExprKind::kVar &&
         body->child(1)->name() == y;
}

/// One side of the join: its operand, the fields the query reads from
/// it (in first-use order) and the attribute name each gets in the
/// join tuple.
struct Side {
  std::string binder;
  std::string var;  // fresh placeholder standing for the binder
  ExprPtr operand;
  std::vector<std::string> schema;
  std::vector<std::string> fields;
  std::map<std::string, std::string> rename;
  bool keep = false;  // operand enters the join unprojected
};

/// Appends the fields read through `var` in `e` to `side->fields`.
/// False if one of them is not an attribute of the operand.
bool CollectFields(const ExprPtr& e, Side* side) {
  bool ok = true;
  VisitPreOrder(e, [&](const ExprPtr& n) {
    if (n->kind() != ExprKind::kFieldAccess ||
        n->child(0)->kind() != ExprKind::kVar ||
        n->child(0)->name() != side->var) {
      return;
    }
    const std::string& f = n->name();
    if (std::find(side->schema.begin(), side->schema.end(), f) ==
        side->schema.end()) {
      ok = false;
    } else if (std::find(side->fields.begin(), side->fields.end(), f) ==
               side->fields.end()) {
      side->fields.push_back(f);
    }
  });
  return ok;
}

/// Rewrites every s.var.f of each side into Access(Var(to), rename[f]).
ExprPtr RouteFields(const ExprPtr& e, const Side& a, const Side& b,
                    const std::string& to_a, const std::string& to_b) {
  return TransformBottomUp(e, [&](const ExprPtr& n) -> ExprPtr {
    if (n->kind() != ExprKind::kFieldAccess ||
        n->child(0)->kind() != ExprKind::kVar) {
      return nullptr;
    }
    const std::string& v = n->child(0)->name();
    const Side* s = v == a.var ? &a : v == b.var ? &b : nullptr;
    if (s == nullptr) return nullptr;
    return Expr::Access(Expr::Var(s == &a ? to_a : to_b),
                        s->rename.at(n->name()));
  });
}

/// α[v : (rename[f] = v.f, ...)](operand), or the operand itself.
ExprPtr Projected(const Side& s, const std::string& v) {
  if (s.keep) return s.operand;
  std::vector<std::string> names;
  std::vector<ExprPtr> values;
  for (const std::string& f : s.fields) {
    names.push_back(s.rename.at(f));
    values.push_back(Expr::Access(Expr::Var(v), f));
  }
  return Expr::Map(v, Expr::TupleConstruct(std::move(names),
                                           std::move(values)),
                   s.operand);
}

ExprPtr ApplyRule2(const ExprPtr& e, RewriteContext& ctx) {
  if (e->kind() != ExprKind::kFlatten) return nullptr;
  const ExprPtr& outer = e->child(0);
  if (outer->kind() != ExprKind::kMap) return nullptr;
  const std::string& x = outer->var();
  const ExprPtr& X = outer->child(0);
  const ExprPtr& inner = outer->child(1);
  if (inner->kind() != ExprKind::kMap) return nullptr;
  std::string y = inner->var();
  if (y == x) return nullptr;  // shadowed; not the Rule 2 shape
  const ExprPtr& body = inner->child(1);

  // Inner operand: σ[w : p](Y) or bare Y.
  ExprPtr Y = inner->child(0);
  ExprPtr p = Expr::True();
  if (Y->kind() == ExprKind::kSelect) {
    p = Substitute(Y->child(1), Y->var(), Expr::Var(y));
    Y = Y->child(0);
  }
  // Y must be uncorrelated (x not free) — otherwise this is iteration
  // over a set-valued attribute and stays nested — and must involve a
  // base table to be worth lifting to a top-level join.
  if (IsFreeIn(x, Y) || !ContainsBaseTable(Y)) return nullptr;

  if (IsPairing(body, x, y)) {
    ctx.Note("Rule2-MapNestingToJoin", AlgebraStr(e));
    return Expr::Join(X, Y, x, y, p);
  }

  // General body: both binders only through field accesses, both
  // operands closed sets of tuples (their schemas name the fields).
  if (!OnlyFieldAccesses(body, x) || !OnlyFieldAccesses(body, y) ||
      !OnlyFieldAccesses(p, x) || !OnlyFieldAccesses(p, y)) {
    return nullptr;
  }
  TypeChecker checker = ctx.MakeChecker();
  TypeEnv env;
  Result<std::vector<std::string>> x_sch = checker.SchemaOf(X, env);
  Result<std::vector<std::string>> y_sch = checker.SchemaOf(Y, env);
  if (!x_sch.ok() || !y_sch.ok() || x_sch->empty() || y_sch->empty()) {
    return nullptr;
  }

  // Placeholders make the binders unique in G and p, so field routing
  // needs no scoping of its own.
  Side sx{x, FreshVar(x, e), X, *x_sch, {}, {}};
  Side sy{y, FreshVar(y, std::vector<ExprPtr>{e, Expr::Var(sx.var)}), Y,
          *y_sch, {}, {}};
  ExprPtr g = Substitute(Substitute(body, x, Expr::Var(sx.var)), y,
                         Expr::Var(sy.var));
  p = Substitute(Substitute(p, x, Expr::Var(sx.var)), y, Expr::Var(sy.var));
  if (!CollectFields(g, &sx) || !CollectFields(p, &sx) ||
      !CollectFields(g, &sy) || !CollectFields(p, &sy)) {
    return nullptr;
  }
  // A range read by nothing still multiplies: keep one attribute.
  if (sx.fields.empty()) sx.fields.push_back(sx.schema[0]);
  if (sy.fields.empty()) sy.fields.push_back(sy.schema[0]);

  // Names. A join operand keeps its own when no attribute of the other
  // operand shares one; projected fields become binder_field, made
  // unique against every name already in the join tuple.
  auto shares_name = [](const std::vector<std::string>& a,
                        const std::vector<std::string>& b) {
    for (const std::string& n : a) {
      if (std::find(b.begin(), b.end(), n) != b.end()) return true;
    }
    return false;
  };
  sx.keep = X->kind() == ExprKind::kJoin;
  sy.keep = Y->kind() == ExprKind::kJoin &&
            !(sx.keep && shares_name(sx.schema, sy.schema));
  std::set<std::string> taken;
  for (Side* s : {&sx, &sy}) {
    if (!s->keep) continue;
    for (const std::string& f : s->schema) {
      s->rename[f] = f;
      taken.insert(f);
    }
  }
  for (Side* s : {&sx, &sy}) {
    if (s->keep) continue;
    for (const std::string& f : s->fields) {
      std::string base = s->binder + "_" + f;
      std::string n = base;
      for (int i = 1; taken.count(n) > 0; ++i) n = base + std::to_string(i);
      taken.insert(n);
      s->rename[f] = n;
    }
  }

  // Conjuncts over x, y and constants join; the rest (correlated with an
  // enclosing binder) filter the join's output.
  std::vector<ExprPtr> local;
  std::vector<ExprPtr> correlated;
  bool linked = false;
  for (const ExprPtr& c : SplitConjuncts(p)) {
    std::set<std::string> free = FreeVars(c);
    bool reads_x = free.erase(sx.var) > 0;
    bool reads_y = free.erase(sy.var) > 0;
    if (free.empty()) {
      local.push_back(c);
      linked = linked || (reads_x && reads_y);
    } else {
      correlated.push_back(c);
    }
  }
  // With no conjunct linking x and y the join is a cross product. When
  // correlated conjuncts filter it (a star around an enclosing binder),
  // the nested original never builds it, so leave the block nested.
  if (!linked && !correlated.empty()) return nullptr;

  std::vector<ExprPtr> scope{e, Expr::Var(sx.var), Expr::Var(sy.var)};
  std::string lv = FreshVar(x, scope);
  scope.push_back(Expr::Var(lv));
  std::string rv = FreshVar(y, scope);
  scope.push_back(Expr::Var(rv));
  std::string t = FreshVar("t", scope);

  ExprPtr join = Expr::Join(Projected(sx, lv), Projected(sy, rv), lv, rv,
                            RouteFields(Expr::AndAll(local), sx, sy, lv, rv));
  if (!correlated.empty()) {
    join = Expr::Select(
        t, RouteFields(Expr::AndAll(correlated), sx, sy, t, t), join);
  }
  ctx.Note("Rule2-MapNestingToJoin", AlgebraStr(e));
  return Expr::Map(t, RouteFields(g, sx, sy, t, t), join);
}

}  // namespace

ExprPtr PassRule2(const ExprPtr& e, RewriteContext& ctx) {
  return TransformBottomUp(
      e, [&ctx](const ExprPtr& n) { return ApplyRule2(n, ctx); });
}

}  // namespace rewrite_internal
}  // namespace n2j
