// QueryEngine's plan cache: a repeated query text skips parse, translate,
// rewrite and (under the cost strategy) planning. Every test checks that
// a hit answers exactly what a fresh run answers, and that each thing
// that may change the answer or the best plan (a write, a new index, a
// new table, a rewrite option) is noticed.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "adl/analysis.h"
#include "core/engine.h"
#include "obs/metrics.h"
#include "storage/datagen.h"
#include "tests/test_util.h"

namespace n2j {
namespace {

using testutil::EvalExpr;
using testutil::SmallSupplierDb;

const char* kQuery6 =
    "select (sname = s.sname, "
    "        partssuppl = select p from p in PART "
    "                     where p[pid] in s.parts) "
    "from s in SUPPLIER";

const char* kRedParts =
    "select p.pname from p in PART where p.color = \"red\"";

PlannerOptions CostPlanner() {
  PlannerOptions po;
  po.strategy = PlanStrategy::kCost;
  return po;
}

/// The answer of the naive translation under the nested-loop
/// interpreter: the paper's semantics, independent of any cache.
Value Reference(const Database& db, const QueryReport& r) {
  EvalOptions nl;
  nl.use_hash_joins = false;
  return EvalExpr(db, r.translated, nl);
}

/// Explain() without its "plan cache:" line.
std::string ExplainWithoutCacheLine(const QueryReport& r) {
  std::string out = r.Explain();
  size_t at = out.find("plan cache: ");
  if (at != std::string::npos) out.erase(at, out.find('\n', at) + 1 - at);
  return out;
}

bool ContainsKind(const ExprPtr& e, ExprKind kind) {
  bool found = false;
  VisitPreOrder(e, [&](const ExprPtr& n) {
    if (n->kind() == kind) found = true;
  });
  return found;
}

Result<QueryReport> MustRun(const QueryEngine& engine,
                            const std::string& q) {
  Result<QueryReport> r = engine.Run(q);
  EXPECT_TRUE(r.ok()) << q << "\n" << r.status().ToString();
  return r;
}

TEST(PlanCacheTest, HitIsBitEqualAndExplainsTheSame) {
  auto db = SmallSupplierDb();
  for (PlanStrategy strategy :
       {PlanStrategy::kHeuristic, PlanStrategy::kCost}) {
    PlannerOptions po;
    po.strategy = strategy;
    QueryEngine engine(db.get(), RewriteOptions(), EvalOptions(), po);
    Result<QueryReport> miss = MustRun(engine, kQuery6);
    Result<QueryReport> hit = MustRun(engine, kQuery6);
    ASSERT_TRUE(miss.ok() && hit.ok());
    EXPECT_FALSE(miss->plan_cache_hit);
    EXPECT_TRUE(hit->plan_cache_hit);
    EXPECT_FALSE(hit->plan_replanned);
    EXPECT_EQ(hit->rewrite_ms, 0.0);
    EXPECT_EQ(hit->result, miss->result);
    EXPECT_EQ(hit->result, Reference(*db, *hit));
    EXPECT_EQ(hit->exec_stats.Compact(), miss->exec_stats.Compact());
    EXPECT_EQ(ExplainWithoutCacheLine(*hit), ExplainWithoutCacheLine(*miss));
    EXPECT_NE(miss->Explain().find("plan cache: miss\n"), std::string::npos);
    EXPECT_NE(hit->Explain().find("plan cache: hit\n"), std::string::npos);
    // The cost plan itself is shared, not rebuilt.
    EXPECT_EQ(hit->plan, miss->plan);
    EXPECT_EQ(engine.plan_cache_size(), 1u);
  }
}

TEST(PlanCacheTest, ErrorsAreNotCached) {
  auto db = SmallSupplierDb();
  QueryEngine engine(db.get());
  EXPECT_FALSE(engine.Run("select x from x in NOPE").ok());
  EXPECT_FALSE(engine.Run("select x from x in NOPE").ok());
  EXPECT_EQ(engine.plan_cache_size(), 0u);
}

TEST(PlanCacheTest, WriteReplansUnderCostAndKeepsTheHeuristicEntry) {
  auto db = SmallSupplierDb();
  QueryEngine cost(db.get(), RewriteOptions(), EvalOptions(), CostPlanner());
  QueryEngine heuristic(db.get());
  ASSERT_TRUE(MustRun(cost, kRedParts).ok());
  ASSERT_TRUE(MustRun(heuristic, kRedParts).ok());

  Value attrs = Value::Tuple({Field("pname", Value::String("new-red")),
                              Field("price", Value::Int(5)),
                              Field("color", Value::String("red"))});
  ASSERT_TRUE(db->NewObject("Part", attrs).ok());

  Result<QueryReport> c = MustRun(cost, kRedParts);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->plan_cache_hit);
  EXPECT_TRUE(c->plan_replanned);
  EXPECT_NE(c->Explain().find("plan cache: replanned\n"), std::string::npos);
  EXPECT_EQ(c->result, Reference(*db, *c));
  EXPECT_TRUE(c->result.SetContains(Value::String("new-red")));
  // The re-priced plan replaced the stale one.
  Result<QueryReport> again = MustRun(cost, kRedParts);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->plan_cache_hit);
  EXPECT_FALSE(again->plan_replanned);
  EXPECT_EQ(again->plan, c->plan);

  Result<QueryReport> h = MustRun(heuristic, kRedParts);
  ASSERT_TRUE(h.ok());
  EXPECT_TRUE(h->plan_cache_hit);
  EXPECT_FALSE(h->plan_replanned);
  EXPECT_EQ(h->result, c->result);
}

TEST(PlanCacheTest, CreateIndexLetsTheNextCostRunPickTheIndexJoin) {
  // A small probe side against a big build side: once Y.a has an index,
  // probing it beats hashing all of Y.
  auto db = std::make_unique<Database>();
  XYConfig xy;
  xy.x_rows = 16;
  xy.y_rows = 4096;
  xy.key_domain = 64;
  ASSERT_TRUE(AddRandomXY(db.get(), xy).ok());
  QueryEngine engine(db.get(), RewriteOptions(), EvalOptions(),
                     CostPlanner());
  const std::string q =
      "select x.a from x in X where exists y in Y : y.a = x.a";
  Result<QueryReport> before = MustRun(engine, q);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->Explain().find("join[index]"), std::string::npos)
      << before->Explain();

  ASSERT_TRUE(db->CreateIndex("Y", "a").ok());
  Result<QueryReport> after = MustRun(engine, q);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->plan_cache_hit);
  EXPECT_NE(after->Explain().find("join[index]"), std::string::npos)
      << after->Explain();
  EXPECT_EQ(after->exec_stats.joins_index, 1u);
  EXPECT_EQ(after->result, before->result);
  EXPECT_EQ(after->result, Reference(*db, *after));
}

TEST(PlanCacheTest, CreateTableResolvesAnIdentifierThatFailedBefore) {
  auto db = SmallSupplierDb();
  QueryEngine engine(db.get());
  const std::string q = "select t.k from t in T where t.k > 1";
  ASSERT_TRUE(MustRun(engine, kRedParts).ok());
  EXPECT_FALSE(engine.Run(q).ok());

  ASSERT_TRUE(
      db->CreateTable("T", Type::Tuple({{"k", Type::Int()}})).ok());
  for (int k : {1, 2, 3}) {
    ASSERT_TRUE(db->Insert("T", Value::Tuple({Field("k", Value::Int(k))}))
                    .ok());
  }
  Result<QueryReport> r = MustRun(engine, q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->result, Value::Set({Value::Int(2), Value::Int(3)}));
  // The new table moved the catalog epoch: older entries are rebuilt.
  Result<QueryReport> red = MustRun(engine, kRedParts);
  ASSERT_TRUE(red.ok());
  EXPECT_FALSE(red->plan_cache_hit);
}

TEST(PlanCacheTest, RewriteOptionsArePartOfTheKey) {
  // Rule 2 turns the two-range block into a join; without it the block
  // takes the nestjoin route.
  auto db = std::make_unique<Database>();
  XYConfig xy;
  xy.x_rows = 32;
  xy.y_rows = 32;
  ASSERT_TRUE(AddRandomXY(db.get(), xy).ok());
  const std::string q =
      "select (xa = x.a, ye = y.e) from x in X, y in Y where x.a = y.a";
  QueryEngine engine(db.get());
  Result<QueryReport> rule2 = MustRun(engine, q);
  ASSERT_TRUE(rule2.ok());
  EXPECT_TRUE(ContainsKind(rule2->optimized, ExprKind::kJoin));
  EXPECT_FALSE(ContainsKind(rule2->optimized, ExprKind::kNestJoin));

  engine.rewrite_options().enable_map_join = false;
  Result<QueryReport> nested = MustRun(engine, q);
  ASSERT_TRUE(nested.ok());
  EXPECT_FALSE(nested->plan_cache_hit);
  EXPECT_TRUE(ContainsKind(nested->optimized, ExprKind::kNestJoin))
      << AlgebraStr(nested->optimized);
  EXPECT_EQ(nested->result, rule2->result);
  EXPECT_EQ(nested->result, Reference(*db, *nested));
}

TEST(PlanCacheTest, EvictsOneEntryAtATime) {
  auto db = SmallSupplierDb();
  QueryEngine engine(db.get());
  auto text = [](size_t i) {
    return "select p.pname from p in PART where p.price < " +
           std::to_string(i);
  };
  const size_t n = PlanCache::kCapacity + 8;
  for (size_t i = 0; i < n; ++i) ASSERT_TRUE(MustRun(engine, text(i)).ok());
  EXPECT_EQ(engine.plan_cache_size(), PlanCache::kCapacity);
  // The most recent texts stay; the oldest went first.
  Result<QueryReport> recent = MustRun(engine, text(n - 1));
  ASSERT_TRUE(recent.ok());
  EXPECT_TRUE(recent->plan_cache_hit);
  Result<QueryReport> oldest = MustRun(engine, text(0));
  ASSERT_TRUE(oldest.ok());
  EXPECT_FALSE(oldest->plan_cache_hit);
  EXPECT_EQ(engine.plan_cache_size(), PlanCache::kCapacity);
}

TEST(PlanCacheTest, CountersSplitHitsMissesAndReplans) {
  auto db = SmallSupplierDb();
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter& hits = reg.GetCounter("n2j_plan_cache_hits_total");
  obs::Counter& misses = reg.GetCounter("n2j_plan_cache_misses_total");
  obs::Counter& replans = reg.GetCounter("n2j_plan_cache_replans_total");
  uint64_t h0 = hits.value(), m0 = misses.value(), r0 = replans.value();
  QueryEngine engine(db.get(), RewriteOptions(), EvalOptions(),
                     CostPlanner());
  ASSERT_TRUE(MustRun(engine, kRedParts).ok());
  ASSERT_TRUE(MustRun(engine, kRedParts).ok());
  Value attrs = Value::Tuple({Field("pname", Value::String("p")),
                              Field("price", Value::Int(1)),
                              Field("color", Value::String("blue"))});
  ASSERT_TRUE(db->NewObject("Part", attrs).ok());
  ASSERT_TRUE(MustRun(engine, kRedParts).ok());
  EXPECT_EQ(misses.value() - m0, 1u);
  EXPECT_EQ(hits.value() - h0, 1u);
  EXPECT_EQ(replans.value() - r0, 1u);
}

TEST(PlanCacheTest, FourThreadsShareOneEngine) {
  auto db = SmallSupplierDb();
  QueryEngine engine(db.get(), RewriteOptions(), EvalOptions(),
                     CostPlanner());
  const std::vector<std::string> texts = {
      kQuery6, kRedParts,
      "select s from s in SUPPLIER where "
      "exists x in s.parts : exists p in PART : "
      "x.pid = p.pid and p.color = \"red\"",
      "select p.pname from p in PART where p.price < 500"};
  // References come from a separate engine, so they warm nothing here.
  std::vector<Value> expected;
  for (const std::string& q : texts) {
    Result<QueryReport> r = MustRun(QueryEngine(db.get()), q);
    ASSERT_TRUE(r.ok());
    expected.push_back(r->result);
  }
  std::vector<int> wrong(4, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 40; ++i) {
        size_t k = static_cast<size_t>(i + t) % texts.size();
        Result<QueryReport> r = engine.Run(texts[k]);
        if (!r.ok() || r->result != expected[k]) ++wrong[t];
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(wrong[t], 0) << "thread " << t;
  EXPECT_EQ(engine.plan_cache_size(), texts.size());
}

}  // namespace
}  // namespace n2j
