// Rule 2 in its general form: multi-range from-clauses over independent
// ranges become flat equi-join chains under a map that rebuilds the
// select-clause body. Every case is checked against the nested-loop
// interpreter on the naive translation.

#include <gtest/gtest.h>

#include "adl/analysis.h"
#include "adl/typecheck.h"
#include "tests/test_util.h"

namespace n2j {
namespace {

using testutil::CheckEquivalence;
using testutil::TranslateOrDie;

constexpr const char* kRule2 = "Rule2-MapNestingToJoin";

/// X(a, c) and Y(a, e), plus Z(a, c) and W(a, e) sized as in the
/// strategy-ablation benchmark.
std::unique_ptr<Database> ChainDb(int n) {
  auto db = std::make_unique<Database>();
  XYConfig xy;
  xy.seed = 5;
  xy.x_rows = n;
  xy.y_rows = n;
  xy.key_domain = n / 2;
  xy.value_domain = n;
  EXPECT_TRUE(AddRandomXY(db.get(), xy).ok());
  XYConfig zw;
  zw.seed = 37;
  zw.x_rows = n / 2;
  zw.y_rows = n * 2;
  zw.key_domain = n;
  zw.value_domain = n;
  EXPECT_TRUE(AddRandomXY(db.get(), zw, "Z", "W").ok());
  return db;
}

int CountKind(const ExprPtr& e, ExprKind kind) {
  int n = 0;
  VisitPreOrder(e, [&](const ExprPtr& c) { n += c->kind() == kind; });
  return n;
}

/// True if some join-family node's predicate reads a variable it does
/// not bind itself (it would be rebuilt per outer binding).
bool HasCorrelatedJoin(const ExprPtr& e) {
  bool found = false;
  VisitPreOrder(e, [&](const ExprPtr& n) {
    if (n->kind() != ExprKind::kJoin && n->kind() != ExprKind::kSemiJoin &&
        n->kind() != ExprKind::kAntiJoin &&
        n->kind() != ExprKind::kNestJoin) {
      return;
    }
    std::set<std::string> free = FreeVars(n->pred());
    free.erase(n->var());
    free.erase(n->var2());
    if (!free.empty()) found = true;
  });
  return found;
}

size_t CountSubstr(const std::string& s, const std::string& needle) {
  size_t n = 0;
  for (size_t p = s.find(needle); p != std::string::npos;
       p = s.find(needle, p + 1)) {
    ++n;
  }
  return n;
}

TEST(Rule2Test, Chain3JoinBecomesTwoJoins) {
  auto db = ChainDb(64);
  const std::string q =
      "select (xa = x.a, we = w.e) from x in X, y in Y, w in W "
      "where x.a = y.a and y.e = w.a and w.e < 40";
  RewriteResult r = CheckEquivalence(*db, TranslateOrDie(*db, q));
  EXPECT_TRUE(r.Fired(kRule2)) << r.TraceToString();
  EXPECT_FALSE(r.Fired("NestJoinRewrite")) << r.TraceToString();
  EXPECT_EQ(CountKind(r.expr, ExprKind::kJoin), 2) << AlgebraStr(r.expr);
  EXPECT_EQ(CountKind(r.expr, ExprKind::kNestJoin), 0) << AlgebraStr(r.expr);
  EXPECT_FALSE(HasCorrelatedJoin(r.expr)) << AlgebraStr(r.expr);
  // The one-sided conjunct filters W itself, reading w.e directly rather
  // than through the projection's tuple constructor.
  bool filters_w = false;
  VisitPreOrder(r.expr, [&](const ExprPtr& n) {
    if (n->kind() == ExprKind::kSelect &&
        n->child(0)->kind() == ExprKind::kGetTable &&
        n->child(0)->name() == "W") {
      filters_w = CountKind(n->child(1), ExprKind::kTupleConstruct) == 0;
    }
  });
  EXPECT_TRUE(filters_w) << AlgebraStr(r.expr);
}

TEST(Rule2Test, Chain3JoinPlansTwoHashJoinsAtBenchmarkSize) {
  // The cost-small benchmark's size. The answer must match the route
  // without Rule 2 (a correlated nestjoin); the interpreter on the naive
  // translation is too slow here and is compared at n = 64 above.
  auto db = ChainDb(256);
  const std::string q =
      "select (xa = x.a, we = w.e) from x in X, y in Y, w in W "
      "where x.a = y.a and y.e = w.a and w.e < 128";
  PlannerOptions po;
  po.strategy = PlanStrategy::kCost;
  QueryEngine engine(db.get(), RewriteOptions(), EvalOptions(), po);
  Result<QueryReport> rep = engine.Run(q);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  std::string explain = rep->Explain();
  EXPECT_EQ(CountSubstr(explain, "join[hash]"), 2u) << explain;
  EXPECT_EQ(CountSubstr(explain, "nestjoin"), 0u) << explain;
  EXPECT_EQ(CountSubstr(explain, "correlated"), 0u) << explain;
  EXPECT_NE(rep->result.set_size(), 0u);

  RewriteOptions no_rule2;
  no_rule2.enable_map_join = false;
  Result<QueryReport> old = QueryEngine(db.get(), no_rule2).Run(q);
  ASSERT_TRUE(old.ok()) << old.status().ToString();
  EXPECT_EQ(rep->result, old->result);
}

TEST(Rule2Test, FourRangesBecomeThreeJoins) {
  auto db = ChainDb(24);
  RewriteResult r = CheckEquivalence(
      *db, TranslateOrDie(*db,
                          "select (xa = x.a, ze = w.e) from x in X, y in Y, "
                          "z in Z, w in W where x.a = y.a and y.e = z.a "
                          "and z.a = w.a"));
  EXPECT_EQ(CountKind(r.expr, ExprKind::kJoin), 3) << AlgebraStr(r.expr);
  EXPECT_FALSE(HasCorrelatedJoin(r.expr)) << AlgebraStr(r.expr);
}

TEST(Rule2Test, JoinOrderDpSeesTheChain) {
  // Rule 2 builds A' ⋈ (B' ⋈ C'), whose inner join fans out (every B row
  // meets 16 C rows). Joining the selective pair A, B first is cheaper:
  // the DP plans over Rule 2's projected ranges, prices the tree as
  // written and rebuilds it left-deep.
  auto db = std::make_unique<Database>();
  ASSERT_TRUE(db->CreateTable("A", Type::Tuple({{"k", Type::Int()}})).ok());
  ASSERT_TRUE(db->CreateTable("B", Type::Tuple({{"k", Type::Int()},
                                                {"v", Type::Int()}}))
                  .ok());
  ASSERT_TRUE(db->CreateTable("C", Type::Tuple({{"k", Type::Int()},
                                                {"w", Type::Int()}}))
                  .ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(db->Insert("A", Value::Tuple({Field("k", Value::Int(i))}))
                    .ok());
  }
  for (int i = 0; i < 512; ++i) {
    ASSERT_TRUE(db->Insert("B", Value::Tuple({Field("k", Value::Int(i)),
                                              Field("v", Value::Int(i % 4))}))
                    .ok());
  }
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(db->Insert("C", Value::Tuple({Field("k", Value::Int(i % 4)),
                                              Field("w", Value::Int(i))}))
                    .ok());
  }
  const std::string q =
      "select (ak = x.k, cw = z.w) from x in A, y in B, z in C "
      "where x.k = y.k and y.v = z.k";
  PlannerOptions po;
  po.strategy = PlanStrategy::kCost;
  Result<QueryReport> rep =
      QueryEngine(db.get(), RewriteOptions(), EvalOptions(), po).Run(q);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  ASSERT_NE(rep->plan, nullptr);
  EXPECT_TRUE(rep->plan->reordered) << rep->Explain();
  EXPECT_EQ(CountKind(rep->plan->root, ExprKind::kJoin), 2);
  EXPECT_EQ(rep->result, testutil::EvalExpr(*db, rep->translated));
  EXPECT_EQ(rep->result.set_size(), 128u);
}

TEST(Rule2Test, RightDeepTreeKeptWhenAlreadyCheapest) {
  // A is big, B and C small: Rule 2's A' ⋈ (B' ⋈ C') already joins the
  // small pair first and builds its hash table on their result, so no
  // left-deep order beats it.
  auto db = std::make_unique<Database>();
  ASSERT_TRUE(db->CreateTable("A", Type::Tuple({{"k", Type::Int()},
                                                {"v", Type::Int()}}))
                  .ok());
  ASSERT_TRUE(db->CreateTable("B", Type::Tuple({{"k", Type::Int()},
                                                {"v", Type::Int()}}))
                  .ok());
  ASSERT_TRUE(db->CreateTable("C", Type::Tuple({{"k", Type::Int()}})).ok());
  for (int i = 0; i < 512; ++i) {
    ASSERT_TRUE(db->Insert("A", Value::Tuple({Field("k", Value::Int(i % 64)),
                                              Field("v", Value::Int(i))}))
                    .ok());
  }
  for (int i = 0; i < 48; ++i) {
    ASSERT_TRUE(db->Insert("B", Value::Tuple({Field("k", Value::Int(i % 64)),
                                              Field("v", Value::Int(i % 8))}))
                    .ok());
    ASSERT_TRUE(
        db->Insert("C", Value::Tuple({Field("k", Value::Int(i % 64))})).ok());
  }
  PlannerOptions po;
  po.strategy = PlanStrategy::kCost;
  Result<QueryReport> rep =
      QueryEngine(db.get(), RewriteOptions(), EvalOptions(), po)
          .Run("select (av = x.v, ck = z.k) from x in A, y in B, z in C "
               "where x.k = y.k and y.v = z.k");
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  ASSERT_NE(rep->plan, nullptr);
  EXPECT_FALSE(rep->plan->reordered) << rep->Explain();
  EXPECT_EQ(CountKind(rep->plan->root, ExprKind::kJoin), 2);
}

TEST(Rule2Test, StarAroundAnEnclosingBinderStaysNested) {
  // y and w meet only through x: joining them first would build the
  // cross product Y × W, which the nested plan never does.
  auto db = ChainDb(32);
  RewriteResult r = CheckEquivalence(
      *db, TranslateOrDie(*db,
                          "select (xa = x.a, we = w.e) from x in X, y in Y, "
                          "w in W where x.a = y.a and x.a = w.a"));
  EXPECT_FALSE(r.Fired(kRule2)) << r.TraceToString();
}

TEST(Rule2Test, ClashingAttributeNamesAreRenamed) {
  // X and Y share `a`: a plain X ⋈ Y would not type-check.
  auto db = ChainDb(32);
  ExprPtr e = TranslateOrDie(
      *db,
      "select (xa = x.a, ya = y.a, e = y.e) from x in X, y in Y "
      "where x.a = y.a and y.e > 3");
  RewriteResult r = CheckEquivalence(*db, e);
  EXPECT_TRUE(r.Fired(kRule2)) << r.TraceToString();
  EXPECT_EQ(CountKind(r.expr, ExprKind::kJoin), 1) << AlgebraStr(r.expr);
  TypeChecker tc(db->schema(), db.get());
  Result<TypePtr> before = tc.Infer(e);
  Result<TypePtr> after = tc.Infer(r.expr);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_TRUE((*before)->Equals(**after));
}

TEST(Rule2Test, CorrelatedConjunctStaysAboveTheJoin) {
  // y.e = z.a reads the enclosing binder z: it filters the join's output
  // instead of entering the join, which stays uncorrelated.
  auto db = ChainDb(32);
  RewriteResult r = CheckEquivalence(
      *db, TranslateOrDie(
               *db,
               "select (za = z.a, n = count(select (xa = x.a, ye = y.e) "
               "from x in X, y in Y where x.a = y.a and y.e = z.a)) "
               "from z in Z"));
  EXPECT_TRUE(r.Fired(kRule2)) << r.TraceToString();
  EXPECT_GE(CountKind(r.expr, ExprKind::kJoin), 1) << AlgebraStr(r.expr);
  EXPECT_FALSE(HasCorrelatedJoin(r.expr)) << AlgebraStr(r.expr);
}

TEST(Rule2Test, BinderUsedWholesaleKeepsTodaysRoute) {
  // `select x` needs the whole X tuple: no projection is possible, so
  // the general form does not apply.
  auto db = ChainDb(32);
  RewriteResult r = CheckEquivalence(
      *db, TranslateOrDie(
               *db, "select x from x in X, y in Y where x.a = y.a"));
  EXPECT_FALSE(r.Fired(kRule2)) << r.TraceToString();
}

TEST(Rule2Test, EmptyRangeGivesTheEmptySet) {
  auto db = ChainDb(32);
  ASSERT_TRUE(db->CreateTable("E", db->FindTable("Y")->row_type()).ok());
  for (const char* q :
       {"select (xa = x.a, ee = v.e) from x in X, v in E where x.a = v.a",
        "select (xa = x.a, ee = v.e) from v in E, x in X where x.a = v.a"}) {
    RewriteResult r = CheckEquivalence(*db, TranslateOrDie(*db, q));
    EXPECT_TRUE(r.Fired(kRule2)) << q << "\n" << r.TraceToString();
    EXPECT_EQ(testutil::EvalExpr(*db, r.expr).set_size(), 0u);
  }
}

TEST(Rule2Test, DependentRangeIsLeftNested) {
  // Example Query 3.1: x ranges over t.parts, which depends on t.
  auto db = testutil::SmallSupplierDb();
  RewriteResult r = CheckEquivalence(
      *db, TranslateOrDie(
               *db,
               "select s.sname from s in SUPPLIER where s.parts supseteq "
               "(select x from t in SUPPLIER, x in t.parts "
               "where t.sname = \"s3\")"));
  EXPECT_FALSE(r.Fired(kRule2)) << r.TraceToString();
}

}  // namespace
}  // namespace n2j
