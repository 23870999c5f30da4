#include "harness/traced.h"

#include <gtest/gtest.h>

#include <set>

#include "core/engine.h"
#include "harness/workload.h"

namespace n2j {
namespace perfbench {
namespace {

std::unique_ptr<QueryEngine> EngineFor(const Workload& w,
                                       const Database* db) {
  return std::make_unique<QueryEngine>(db, RewriteOptions(), w.eval,
                                       w.planner);
}

// The traced layer calls give QueryEngine::Run's value and exact
// counters for every class of every workload, across a write batch.
TEST(TracedPath, AgreesWithQueryEngineRun) {
  for (const std::string& name : WorkloadNames()) {
    SCOPED_TRACE(name);
    const Workload& w = *FindWorkload(name);
    std::unique_ptr<Database> traced_db = MakeDatabase(w, 5);
    std::unique_ptr<Database> engine_db = MakeDatabase(w, 5);
    std::unique_ptr<QueryEngine> engine = EngineFor(w, engine_db.get());
    SpanRecorder spans;
    TracedRunner runner(*traced_db, w, &spans);
    int64_t id = 0;
    for (const Op& op : MakeOps(w, 5, 2)) {
      if (op.kind == Op::Kind::kWrite) {
        ASSERT_TRUE(ApplyWriteBatch(traced_db.get(), w, 5, op.pass).ok());
        ASSERT_TRUE(ApplyWriteBatch(engine_db.get(), w, 5, op.pass).ok());
        continue;
      }
      SCOPED_TRACE(op.text);
      Result<TracedQuery> t = runner.Run(id++, op.text);
      Result<QueryReport> r = engine->Run(op.text);
      ASSERT_TRUE(t.ok()) << t.status().ToString();
      std::string why;
      EXPECT_TRUE(SameResult(Result<Value>(t->value), r, &why)) << why;
      EXPECT_EQ(t->stats, r->exec_stats);
      EXPECT_EQ(t->rules_fired, static_cast<int64_t>(r->trace.size()));
      EXPECT_GT(Work(t->stats), 0u);
    }
  }
}

TEST(TracedPath, SpansNestUnderOneQuerySpanPerOp) {
  const Workload& w = *FindWorkload("shred-writes");
  std::unique_ptr<Database> db = MakeDatabase(w, 2);
  SpanRecorder spans;
  TracedRunner runner(*db, w, &spans);
  // Two rounds of every class; op ids are the round number.
  for (int64_t round = 0; round < 2; ++round) {
    for (const Op& op : MakeOps(w, 2, 1)) {
      if (op.kind == Op::Kind::kQuery) {
        ASSERT_TRUE(runner.Run(round, op.text).ok());
      }
    }
  }
  std::set<std::string> first, second;
  for (const Span& s : spans.spans()) {
    if (s.parent < 0) {
      EXPECT_EQ(s.layer, kQuerySpan);
      continue;
    }
    const Span& root = spans.spans()[static_cast<size_t>(s.parent)];
    EXPECT_EQ(root.parent, -1);
    EXPECT_EQ(root.op, s.op);
    EXPECT_LE(root.start_ns, s.start_ns);
    EXPECT_GE(root.end_ns, s.end_ns);
    (s.op == 0 ? first : second).insert(s.layer);
  }
  // The first round brings statistics and projections current; the
  // second finds them current.
  EXPECT_TRUE(first.count(kStatsCollectSpan));
  EXPECT_TRUE(first.count(kColumnarBuildSpan));
  EXPECT_FALSE(second.count(kStatsCollectSpan));
  EXPECT_FALSE(second.count(kColumnarBuildSpan));
  EXPECT_TRUE(second.count(kStatsHitSpan));
  EXPECT_TRUE(second.count(kColumnarHitSpan));
  for (const char* layer : {kParseSpan, kTranslateSpan, kRewriteSpan,
                            kPlanSpan, kLowerSpan, kShredExecSpan}) {
    EXPECT_TRUE(second.count(layer)) << layer;
  }
}

TEST(SameResult, FlagsEveryDisagreement) {
  Value a = Value::Set({Value::Int(1), Value::Int(2)});
  Value b = Value::Set({Value::Int(1)});
  QueryReport report;
  report.result = a;
  Result<QueryReport> ok(report);
  Result<QueryReport> failed(Status::RuntimeError("boom"));
  std::string why;

  EXPECT_TRUE(SameResult(Result<Value>(a), ok, &why));
  EXPECT_FALSE(SameResult(Result<Value>(b), ok, &why));
  EXPECT_EQ(why, "different values");
  EXPECT_FALSE(SameResult(Result<Value>(a), failed, &why));
  EXPECT_NE(why.find("engine failed"), std::string::npos);
  EXPECT_FALSE(
      SameResult(Result<Value>(Status::RuntimeError("boom")), ok, &why));
  EXPECT_TRUE(
      SameResult(Result<Value>(Status::RuntimeError("boom")), failed, &why));
  EXPECT_FALSE(
      SameResult(Result<Value>(Status::RuntimeError("other")), failed, &why));
}

TEST(Reference, BothReferencesAgreeWithTheEngine) {
  const Workload& w = *FindWorkload("cost-small");
  std::unique_ptr<Database> db = MakeDatabase(w, 3);
  std::unique_ptr<QueryEngine> engine = EngineFor(w, db.get());
  for (const Op& op : MakeOps(w, 3, 1)) {
    SCOPED_TRACE(op.text);
    Result<QueryReport> r = engine->Run(op.text);
    ASSERT_TRUE(r.ok());
    Result<Value> heuristic =
        ReferenceValue(*db, op.text, Reference::kHeuristicNested);
    ASSERT_TRUE(heuristic.ok());
    EXPECT_TRUE(*heuristic == r->result);
    if (w.classes[static_cast<size_t>(op.cls)].reference ==
        Reference::kNestedLoop) {
      Result<Value> nl = ReferenceValue(*db, op.text, Reference::kNestedLoop);
      ASSERT_TRUE(nl.ok());
      EXPECT_TRUE(*nl == r->result);
    }
  }
}

TEST(Workload, SequenceDependsOnlyOnWorkloadAndSeed) {
  for (const std::string& name : WorkloadNames()) {
    SCOPED_TRACE(name);
    const Workload& w = *FindWorkload(name);
    std::vector<Op> a = MakeOps(w, 9, 3);
    EXPECT_EQ(OpsFingerprint(a), OpsFingerprint(MakeOps(w, 9, 3)));
    const size_t per_pass = w.classes.size() + (w.writes() ? 1 : 0);
    ASSERT_EQ(a.size(), 3 * per_pass);
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].pass, static_cast<int>(i / per_pass));
      EXPECT_EQ(a[i].kind == Op::Kind::kWrite,
                w.writes() && i % per_pass == 0);
    }
    // A longer run extends the sequence; it never reshuffles it.
    std::vector<Op> longer = MakeOps(w, 9, 4);
    for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].text, longer[i].text);
  }
  // Paper texts repeat every pass; cost-small's literals vary.
  const Workload& paper = *FindWorkload("paper-default");
  EXPECT_EQ(OpsFingerprint(MakeOps(paper, 1, 2)),
            OpsFingerprint(MakeOps(paper, 2, 2)));
  const Workload& small = *FindWorkload("cost-small");
  EXPECT_NE(OpsFingerprint(MakeOps(small, 1, 2)),
            OpsFingerprint(MakeOps(small, 2, 2)));
}

TEST(Workload, WriteBatchesAreDeterministic) {
  const Workload& w = *FindWorkload("shred-writes");
  std::unique_ptr<Database> a = MakeDatabase(w, 4);
  std::unique_ptr<Database> b = MakeDatabase(w, 4);
  const std::string before = ExtentSizes(*a);
  int inserts = 0;
  for (int pass = 0; pass < 3; ++pass) {
    ASSERT_TRUE(ApplyWriteBatch(a.get(), w, 4, pass,
                                [&](int64_t t0, int64_t t1) {
                                  EXPECT_LE(t0, t1);
                                  ++inserts;
                                })
                    .ok());
    ASSERT_TRUE(ApplyWriteBatch(b.get(), w, 4, pass).ok());
  }
  EXPECT_EQ(inserts, 3 * w.batch.objects());
  EXPECT_NE(ExtentSizes(*a), before);
  EXPECT_EQ(ExtentSizes(*a), ExtentSizes(*b));
  for (const std::string& t : a->TableNames()) {
    EXPECT_TRUE(a->FindTable(t)->AsSetValue() == b->FindTable(t)->AsSetValue())
        << t;
  }
}

}  // namespace
}  // namespace perfbench
}  // namespace n2j
