#include "exec/eval.h"

#include <gtest/gtest.h>

#include "storage/datagen.h"
#include "tests/test_util.h"

namespace n2j {
namespace {

using testutil::EvalExpr;

class EvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeFigure2Database();      // X(a, c:{(d)}), Y(a, e)
    fig3_ = MakeFigure3Database();    // X(a, b), Y(c, d) — disjoint SCH
  }
  std::unique_ptr<Database> db_;
  std::unique_ptr<Database> fig3_;
};

TEST_F(EvalTest, ConstAndArithmetic) {
  EXPECT_EQ(EvalExpr(*db_, Expr::Bin(BinOp::kAdd, Expr::Const(Value::Int(2)),
                                     Expr::Const(Value::Int(3)))),
            Value::Int(5));
  EXPECT_EQ(EvalExpr(*db_, Expr::Bin(BinOp::kMul, Expr::Const(Value::Int(4)),
                                     Expr::Const(Value::Double(0.5)))),
            Value::Double(2.0));
  Evaluator ev(*db_);
  Result<Value> div0 = ev.Eval(Expr::Bin(
      BinOp::kDiv, Expr::Const(Value::Int(1)), Expr::Const(Value::Int(0))));
  EXPECT_FALSE(div0.ok());
  EXPECT_EQ(div0.status().code(), StatusCode::kRuntimeError);
}

TEST_F(EvalTest, GetTableReturnsRows) {
  Value x = EvalExpr(*db_, Expr::Table("X"));
  EXPECT_EQ(x.set_size(), 3u);
  Value y = EvalExpr(*db_, Expr::Table("Y"));
  EXPECT_EQ(y.set_size(), 4u);
  Evaluator ev(*db_);
  EXPECT_FALSE(ev.Eval(Expr::Table("NOPE")).ok());
}

TEST_F(EvalTest, SelectFiltersRows) {
  // σ[x : x.a = 1](X)
  ExprPtr e = Expr::Select(
      "x", Expr::Eq(Expr::Access(Expr::Var("x"), "a"),
                    Expr::Const(Value::Int(1))),
      Expr::Table("X"));
  Value v = EvalExpr(*db_, e);
  ASSERT_EQ(v.set_size(), 1u);
  EXPECT_EQ(v.elements()[0].FindField("a")->int_value(), 1);
}

TEST_F(EvalTest, MapProjectsAndDeduplicates) {
  // α[y : y.a](Y) over Y with a-values {1,1,1,3}.
  ExprPtr e = Expr::Map("y", Expr::Access(Expr::Var("y"), "a"),
                        Expr::Table("Y"));
  Value v = EvalExpr(*db_, e);
  EXPECT_EQ(v, Value::Set({Value::Int(1), Value::Int(3)}));
}

TEST_F(EvalTest, QuantifierSemantics) {
  // ∃y ∈ Y · y.e = 3 → true ; ∀y ∈ Y · y.e < 3 → false
  ExprPtr ex = Expr::Quant(QuantKind::kExists, "y", Expr::Table("Y"),
                           Expr::Eq(Expr::Access(Expr::Var("y"), "e"),
                                    Expr::Const(Value::Int(3))));
  EXPECT_EQ(EvalExpr(*db_, ex), Value::Bool(true));
  ExprPtr fa = Expr::Quant(QuantKind::kForall, "y", Expr::Table("Y"),
                           Expr::Bin(BinOp::kLt,
                                     Expr::Access(Expr::Var("y"), "e"),
                                     Expr::Const(Value::Int(3))));
  EXPECT_EQ(EvalExpr(*db_, fa), Value::Bool(false));
}

TEST_F(EvalTest, QuantifierOverEmptySet) {
  ExprPtr empty = Expr::Const(Value::EmptySet());
  EXPECT_EQ(EvalExpr(*db_, Expr::Quant(QuantKind::kExists, "v", empty,
                                       Expr::True())),
            Value::Bool(false));
  EXPECT_EQ(EvalExpr(*db_, Expr::Quant(QuantKind::kForall, "v", empty,
                                       Expr::False())),
            Value::Bool(true));
}

TEST_F(EvalTest, Aggregates) {
  ExprPtr ycol = Expr::Map("y", Expr::Access(Expr::Var("y"), "e"),
                           Expr::Table("Y"));  // {1,2,3} deduped
  EXPECT_EQ(EvalExpr(*db_, Expr::Agg(AggKind::kCount, ycol)), Value::Int(3));
  EXPECT_EQ(EvalExpr(*db_, Expr::Agg(AggKind::kSum, ycol)), Value::Int(6));
  EXPECT_EQ(EvalExpr(*db_, Expr::Agg(AggKind::kMin, ycol)), Value::Int(1));
  EXPECT_EQ(EvalExpr(*db_, Expr::Agg(AggKind::kMax, ycol)), Value::Int(3));
  EXPECT_EQ(EvalExpr(*db_, Expr::Agg(AggKind::kAvg, ycol)),
            Value::Double(2.0));
  // Aggregates over the empty set.
  ExprPtr empty = Expr::Const(Value::EmptySet());
  EXPECT_EQ(EvalExpr(*db_, Expr::Agg(AggKind::kCount, empty)), Value::Int(0));
  EXPECT_EQ(EvalExpr(*db_, Expr::Agg(AggKind::kSum, empty)), Value::Int(0));
  EXPECT_EQ(EvalExpr(*db_, Expr::Agg(AggKind::kMin, empty)), Value::Null());
}

TEST_F(EvalTest, ProjectAndFlatten) {
  ExprPtr proj = Expr::Project(Expr::Table("Y"), {"a"});
  EXPECT_EQ(EvalExpr(*db_, proj).set_size(), 2u);  // {(a=1),(a=3)}
  // Flatten over the c-attributes of X.
  ExprPtr sets = Expr::Map("x", Expr::Access(Expr::Var("x"), "c"),
                           Expr::Table("X"));
  Value flat = EvalExpr(*db_, Expr::Flatten(sets));
  EXPECT_EQ(flat.set_size(), 3u);  // {1,2,3} as (d=_) tuples
}

TEST_F(EvalTest, NestUnnestRoundTripOnPnfData) {
  // µ then ν on Y (grouping e by a).
  ExprPtr nested = Expr::Nest(Expr::Table("Y"), {"e"}, "es");
  Value v = EvalExpr(*db_, nested);
  ASSERT_EQ(v.set_size(), 2u);  // a=1 and a=3 groups
  for (const Value& t : v.elements()) {
    if (t.FindField("a")->int_value() == 1) {
      EXPECT_EQ(t.FindField("es")->set_size(), 3u);
    } else {
      EXPECT_EQ(t.FindField("es")->set_size(), 1u);
    }
  }
  // Unnesting again restores Y.
  Value back = EvalExpr(*db_, Expr::Unnest(nested, "es"));
  EXPECT_EQ(back, EvalExpr(*db_, Expr::Table("Y")));
}

TEST_F(EvalTest, UnnestDropsEmptySets) {
  // µ_c(X): the (a=2, c=∅) tuple disappears — the paper's reason to
  // restrict option 1 to existential contexts.
  Value v = EvalExpr(*db_, Expr::Unnest(Expr::Table("X"), "c"));
  EXPECT_EQ(v.set_size(), 4u);  // 2 + 0 + 2 elements
  for (const Value& t : v.elements()) {
    EXPECT_NE(t.FindField("a")->int_value(), 2);
  }
}

TEST_F(EvalTest, ProductConcatenatesTuples) {
  Value v = EvalExpr(*fig3_,
                     Expr::Product(Expr::Table("X"), Expr::Table("Y")));
  EXPECT_EQ(v.set_size(), 9u);
  EXPECT_NE(v.elements()[0].FindField("a"), nullptr);
  EXPECT_NE(v.elements()[0].FindField("d"), nullptr);
  // Colliding schemas are a runtime error (Figure 2's X and Y share a).
  Evaluator ev(*db_);
  EXPECT_FALSE(
      ev.Eval(Expr::Product(Expr::Table("X"), Expr::Table("Y"))).ok());
}

// Figure 3's equijoin "on the second attribute": x.b = y.d.
ExprPtr EqJoinPred() {
  return Expr::Eq(Expr::Access(Expr::Var("x"), "b"),
                  Expr::Access(Expr::Var("y"), "d"));
}

TEST_F(EvalTest, JoinSemiAntiAgreeBetweenHashAndNestedLoop) {
  for (bool hash : {false, true}) {
    EvalOptions opts;
    opts.use_hash_joins = hash;
    Value join = EvalExpr(
        *fig3_, Expr::Join(Expr::Table("X"), Expr::Table("Y"), "x", "y",
                           EqJoinPred()),
        opts);
    // b=1 matches d=1 twice (x=(1,1),(2,1) x y=(1,1),(2,1)); b=3: none.
    EXPECT_EQ(join.set_size(), 4u) << "hash=" << hash;
    Value semi = EvalExpr(
        *fig3_, Expr::SemiJoin(Expr::Table("X"), Expr::Table("Y"), "x", "y",
                               EqJoinPred()),
        opts);
    EXPECT_EQ(semi.set_size(), 2u) << "hash=" << hash;
    Value anti = EvalExpr(
        *fig3_, Expr::AntiJoin(Expr::Table("X"), Expr::Table("Y"), "x", "y",
                               EqJoinPred()),
        opts);
    ASSERT_EQ(anti.set_size(), 1u) << "hash=" << hash;
    EXPECT_EQ(anti.elements()[0].FindField("a")->int_value(), 3);
  }
}

TEST_F(EvalTest, NestJoinReproducesFigure3) {
  for (bool hash : {false, true}) {
    EvalOptions opts;
    opts.use_hash_joins = hash;
    Value v = EvalExpr(
        *fig3_, Expr::NestJoin(Expr::Table("X"), Expr::Table("Y"), "x", "y",
                               EqJoinPred(), "ys"),
        opts);
    ASSERT_EQ(v.set_size(), 3u) << "hash=" << hash;
    for (const Value& t : v.elements()) {
      int64_t a = t.FindField("a")->int_value();
      size_t group = t.FindField("ys")->set_size();
      // Figure 3: x=(1,1) and x=(2,1) each collect {(1,1),(2,1)};
      // x=(3,3) is dangling and keeps the empty set.
      if (a == 1 || a == 2) {
        EXPECT_EQ(group, 2u);
      }
      if (a == 3) {
        EXPECT_EQ(group, 0u);
      }
    }
  }
}

TEST_F(EvalTest, NestJoinWithInnerFunction) {
  // Collect just the c-values of matching Y tuples.
  ExprPtr inner = Expr::Access(Expr::Var("y"), "c");
  Value v = EvalExpr(
      *fig3_, Expr::NestJoin(Expr::Table("X"), Expr::Table("Y"), "x", "y",
                             EqJoinPred(), "cs", inner));
  for (const Value& t : v.elements()) {
    if (t.FindField("a")->int_value() == 1) {
      EXPECT_EQ(*t.FindField("cs"),
                Value::Set({Value::Int(1), Value::Int(2)}));
    }
  }
}

TEST_F(EvalTest, NonEquiJoinFallsBackToNestedLoop) {
  // x.b < y.c has no equi keys; hash path must defer to nested loop.
  ExprPtr pred = Expr::Bin(BinOp::kLt, Expr::Access(Expr::Var("x"), "b"),
                           Expr::Access(Expr::Var("y"), "c"));
  Value v = EvalExpr(*fig3_, Expr::Join(Expr::Table("X"), Expr::Table("Y"),
                                        "x", "y", pred));
  // b=1 < c in {2,3} for two x rows -> 4 pairs; b=3: none.
  EXPECT_EQ(v.set_size(), 4u);
}

TEST_F(EvalTest, ResidualPredicateAppliesAfterHashMatch) {
  // Equi key b=d plus residual c >= 2.
  ExprPtr pred = Expr::And(
      EqJoinPred(), Expr::Bin(BinOp::kGe, Expr::Access(Expr::Var("y"), "c"),
                              Expr::Const(Value::Int(2))));
  for (bool hash : {false, true}) {
    EvalOptions opts;
    opts.use_hash_joins = hash;
    Value v = EvalExpr(*fig3_, Expr::Join(Expr::Table("X"), Expr::Table("Y"),
                                          "x", "y", pred),
                       opts);
    EXPECT_EQ(v.set_size(), 2u) << "hash=" << hash;
  }
}

TEST_F(EvalTest, DivideImplementsRelationalDivision) {
  // Y(a,e) ÷ {(e=1),(e=2)} = a-values related to both 1 and 2 → {1}.
  ExprPtr divisor = Expr::Const(Value::Set(
      {Value::Tuple({Field("e", Value::Int(1))}),
       Value::Tuple({Field("e", Value::Int(2))})}));
  Value v = EvalExpr(*db_, Expr::Divide(Expr::Table("Y"), divisor));
  ASSERT_EQ(v.set_size(), 1u);
  EXPECT_EQ(v.elements()[0].FindField("a")->int_value(), 1);
}

TEST_F(EvalTest, SetOperators) {
  ExprPtr a = Expr::Const(Value::Set({Value::Int(1), Value::Int(2)}));
  ExprPtr b = Expr::Const(Value::Set({Value::Int(2), Value::Int(3)}));
  EXPECT_EQ(EvalExpr(*db_, Expr::Union(a, b)).set_size(), 3u);
  EXPECT_EQ(EvalExpr(*db_, Expr::Intersect(a, b)).set_size(), 1u);
  EXPECT_EQ(EvalExpr(*db_, Expr::Difference(a, b)).set_size(), 1u);
  EXPECT_EQ(EvalExpr(*db_, Expr::Bin(BinOp::kSubsetEq, a, a)),
            Value::Bool(true));
  EXPECT_EQ(EvalExpr(*db_, Expr::Bin(BinOp::kSubset, a, a)),
            Value::Bool(false));
}

TEST_F(EvalTest, LetBindsValueOnce) {
  ExprPtr e = Expr::Let(
      "v", Expr::Table("Y"),
      Expr::Agg(AggKind::kCount, Expr::Var("v")));
  EXPECT_EQ(EvalExpr(*db_, e), Value::Int(4));
}

TEST_F(EvalTest, TupleOpsInExpressions) {
  ExprPtr t = Expr::TupleConstruct(
      {"a", "b"}, {Expr::Const(Value::Int(1)), Expr::Const(Value::Int(2))});
  EXPECT_EQ(EvalExpr(*db_, Expr::Access(t, "b")), Value::Int(2));
  Value projected = EvalExpr(*db_, Expr::TupleProject(t, {"b"}));
  EXPECT_EQ(projected.FieldNames(), (std::vector<std::string>{"b"}));
  Value updated = EvalExpr(
      *db_, Expr::ExceptOp(t, {"a", "c"},
                           {Expr::Const(Value::Int(10)),
                            Expr::Const(Value::Int(3))}));
  EXPECT_EQ(updated.FindField("a")->int_value(), 10);
  EXPECT_EQ(updated.FindField("c")->int_value(), 3);
}

TEST_F(EvalTest, DerefResolvesOids) {
  auto sp = testutil::SmallSupplierDb();
  // deref of the first part oid yields the part object.
  const Table* parts = sp->FindTable("PART");
  ASSERT_NE(parts, nullptr);
  Oid first = parts->rows()[0].FindField("pid")->oid_value();
  Value obj = EvalExpr(
      *sp, Expr::Deref(Expr::Const(Value::MakeOidValue(first)), "Part"));
  EXPECT_NE(obj.FindField("pname"), nullptr);
  // Implicit deref through field access.
  Value name = EvalExpr(
      *sp, Expr::Access(Expr::Const(Value::MakeOidValue(first)), "pname"));
  EXPECT_TRUE(name.is_string());
}

TEST_F(EvalTest, StatsCountNestedLoopWork) {
  EvalOptions nl;
  nl.use_hash_joins = false;
  Evaluator ev(*fig3_, nl);
  ASSERT_TRUE(ev.Eval(Expr::Join(Expr::Table("X"), Expr::Table("Y"), "x",
                                 "y", EqJoinPred()))
                  .ok());
  EXPECT_EQ(ev.stats().predicate_evals, 9u);  // 3 x 3

  Evaluator ev2(*fig3_);
  ASSERT_TRUE(ev2.Eval(Expr::Join(Expr::Table("X"), Expr::Table("Y"), "x",
                                  "y", EqJoinPred()))
                  .ok());
  EXPECT_EQ(ev2.stats().hash_inserts, 3u);
  EXPECT_EQ(ev2.stats().hash_probes, 3u);
  EXPECT_EQ(ev2.stats().predicate_evals, 0u);  // no residual
}

TEST_F(EvalTest, ErrorsSurfaceAsStatuses) {
  Evaluator ev(*db_);
  EXPECT_FALSE(ev.Eval(Expr::Var("unbound")).ok());
  EXPECT_FALSE(ev.Eval(Expr::Access(Expr::Const(Value::Int(1)), "a")).ok());
  EXPECT_FALSE(
      ev.Eval(Expr::Un(UnOp::kNot, Expr::Const(Value::Int(1)))).ok());
  EXPECT_FALSE(ev.Eval(Expr::Flatten(Expr::Table("Y"))).ok());
}

}  // namespace
}  // namespace n2j
