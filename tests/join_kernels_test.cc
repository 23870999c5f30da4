// The hash-join kernel (exec/join_kernels.h) and the numeric-equality
// rule every engine built on it must keep: Value::Compare treats 3 and
// 3.0 as equal, so int build keys probed by doubles must match exactly
// where the nested-loop interpreter says they do.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/equi_join.h"
#include "exec/join_kernels.h"
#include "shred/shred.h"
#include "tests/test_util.h"

namespace n2j {
namespace {

using testutil::RewriteExpr;
using testutil::TranslateOrDie;

// Every match of `k`, in chain order.
std::vector<int32_t> Matches(const KeyTable& t, const Value& k) {
  std::vector<int32_t> rows;
  for (int32_t r = t.Probe(k); r != -1; r = t.Next(r)) rows.push_back(r);
  return rows;
}

// The (probe index, row) pairs ProbeBatch emits.
std::vector<std::pair<size_t, int32_t>> BatchMatches(
    const KeyTable& t, const std::vector<Value>& keys) {
  std::vector<std::pair<size_t, int32_t>> out;
  KeyTable::BatchScratch scratch;
  Status s = t.ProbeBatch(keys.data(), keys.size(), &scratch,
                          [&](size_t i, int32_t r) {
                            out.emplace_back(i, r);
                            return Status::OK();
                          });
  EXPECT_TRUE(s.ok());
  return out;
}

std::vector<Value> Ints(const std::vector<int64_t>& xs) {
  std::vector<Value> out;
  for (int64_t x : xs) out.push_back(Value::Int(x));
  return out;
}

TEST(KeyTable, ChainsListDuplicateKeysInAscendingRowOrder) {
  const KeyTable t(Ints({7, 3, 7, 5, 3, 7}));
  EXPECT_EQ(Matches(t, Value::Int(7)), (std::vector<int32_t>{0, 2, 5}));
  EXPECT_EQ(Matches(t, Value::Int(3)), (std::vector<int32_t>{1, 4}));
  EXPECT_EQ(Matches(t, Value::Int(5)), (std::vector<int32_t>{3}));
  EXPECT_TRUE(Matches(t, Value::Int(4)).empty());
  EXPECT_EQ(t.distinct(), 3u);
}

TEST(KeyTable, BatchProbeAgreesWithSingleProbes) {
  // 200 rows over 17 keys: a table larger than its first growth step.
  std::vector<int64_t> xs;
  for (int64_t i = 0; i < 200; ++i) xs.push_back((i * 7) % 17);
  const KeyTable t(Ints(xs));
  EXPECT_EQ(t.distinct(), 17u);
  const std::vector<Value> probes = {Value::Int(3), Value::Int(99),
                                     Value::Double(5.0), Value::Int(16),
                                     Value::String("3"), Value::Double(2.5)};
  std::vector<std::pair<size_t, int32_t>> expected;
  for (size_t i = 0; i < probes.size(); ++i) {
    for (int32_t r : Matches(t, probes[i])) expected.emplace_back(i, r);
  }
  EXPECT_EQ(BatchMatches(t, probes), expected);
  EXPECT_FALSE(expected.empty());
}

TEST(KeyTable, BatchProbeStopsAtTheFirstError) {
  const KeyTable t(Ints({1, 1, 1}));
  const std::vector<Value> probes = {Value::Int(1)};
  KeyTable::BatchScratch scratch;
  int calls = 0;
  Status s = t.ProbeBatch(probes.data(), probes.size(), &scratch,
                          [&](size_t, int32_t) {
                            return ++calls == 2
                                       ? Status::RuntimeError("stop")
                                       : Status::OK();
                          });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(calls, 2);
}

TEST(KeyTable, OidKeys) {
  const Oid a = MakeOid(3, 1), b = MakeOid(3, 2);
  const KeyTable t({Value::MakeOidValue(b), Value::MakeOidValue(a),
                    Value::MakeOidValue(b)});
  EXPECT_EQ(Matches(t, Value::MakeOidValue(b)), (std::vector<int32_t>{0, 2}));
  EXPECT_EQ(Matches(t, Value::MakeOidValue(a)), (std::vector<int32_t>{1}));
  EXPECT_EQ(t.distinct(), 2u);
  // An int never equals an oid, whatever its bits.
  EXPECT_TRUE(Matches(t, Value::Int(static_cast<int64_t>(a))).empty());
  EXPECT_TRUE(Matches(t, Value::Double(1.0)).empty());
  EXPECT_TRUE(BatchMatches(t, {Value::Int(static_cast<int64_t>(a))}).empty());
}

TEST(KeyTable, MixedKindKeysUseValueEquality) {
  // 2 and 2.0 are one key; "2" is another.
  const KeyTable t({Value::Int(2), Value::String("2"), Value::Double(2.0),
                    Value::Null(), Value::Int(4)});
  EXPECT_EQ(Matches(t, Value::Int(2)), (std::vector<int32_t>{0, 2}));
  EXPECT_EQ(Matches(t, Value::Double(2.0)), (std::vector<int32_t>{0, 2}));
  EXPECT_EQ(Matches(t, Value::String("2")), (std::vector<int32_t>{1}));
  EXPECT_EQ(Matches(t, Value::Null()), (std::vector<int32_t>{3}));
  EXPECT_TRUE(Matches(t, Value::Double(4.5)).empty());
  EXPECT_EQ(t.distinct(), 4u);
  EXPECT_EQ(BatchMatches(t, {Value::Double(2.0), Value::Int(4)}),
            (std::vector<std::pair<size_t, int32_t>>{{0, 0}, {0, 2}, {1, 4}}));
}

TEST(KeyTable, CompositeKeys) {
  auto key = [](int64_t a, const char* b) {
    return JoinKeyFromParts({Value::Int(a), Value::String(b)});
  };
  const KeyTable t({key(1, "x"), key(1, "y"), key(1, "x"), key(2, "x")});
  EXPECT_EQ(Matches(t, key(1, "x")), (std::vector<int32_t>{0, 2}));
  EXPECT_EQ(Matches(t, key(2, "x")), (std::vector<int32_t>{3}));
  EXPECT_TRUE(Matches(t, key(2, "y")).empty());
  EXPECT_EQ(t.distinct(), 3u);
  // Composite keys compare numerically field by field.
  EXPECT_EQ(Matches(t, JoinKeyFromParts({Value::Double(1.0),
                                         Value::String("y")})),
            (std::vector<int32_t>{1}));
}

TEST(KeyTable, EmptyBuild) {
  const KeyTable empty(std::vector<Value>{});
  EXPECT_EQ(empty.distinct(), 0u);
  EXPECT_TRUE(Matches(empty, Value::Int(0)).empty());
  EXPECT_TRUE(Matches(empty, Value::Double(0.0)).empty());
  EXPECT_TRUE(BatchMatches(empty, {Value::Int(0), Value::String("")}).empty());
  const KeyTable defaulted;
  EXPECT_TRUE(Matches(defaulted, Value::Int(0)).empty());
}

TEST(KeyTable, IntKeysProbedByDoubles) {
  const KeyTable t(Ints({2, 3, -1, 3}));
  EXPECT_EQ(Matches(t, Value::Double(3.0)), (std::vector<int32_t>{1, 3}));
  EXPECT_EQ(Matches(t, Value::Double(-1.0)), (std::vector<int32_t>{2}));
  EXPECT_TRUE(Matches(t, Value::Double(2.5)).empty());
  EXPECT_TRUE(Matches(t, Value::Double(7.0)).empty());
  // Other kinds never equal an int.
  EXPECT_TRUE(Matches(t, Value::String("3")).empty());
  EXPECT_TRUE(Matches(t, Value::Bool(true)).empty());
  EXPECT_TRUE(Matches(t, Value::Null()).empty());
  EXPECT_EQ(BatchMatches(t, {Value::Double(2.5), Value::Double(3.0),
                             Value::Int(2)}),
            (std::vector<std::pair<size_t, int32_t>>{{1, 1}, {1, 3}, {2, 0}}));
}

TEST(KeyTable, ConcurrentDoubleProbesBuildTheFallbackOnce) {
  std::vector<int64_t> xs;
  for (int64_t i = 0; i < 1000; ++i) xs.push_back(i % 250);
  const KeyTable t(Ints(xs));
  std::vector<std::vector<int32_t>> seen(4);
  std::vector<std::thread> threads;
  for (size_t w = 0; w < seen.size(); ++w) {
    threads.emplace_back([&t, &seen, w] {
      KeyTable::BatchScratch scratch;
      std::vector<Value> keys;
      for (int i = 0; i < 250; ++i) {
        keys.push_back(Value::Double(i + (i % 2 == 0 ? 0.0 : 0.5)));
      }
      for (const Value& k : keys) {
        for (int32_t r = t.Probe(k); r != -1; r = t.Next(r)) {
          seen[w].push_back(r);
        }
      }
      Status s = t.ProbeBatch(keys.data(), keys.size(), &scratch,
                              [&](size_t, int32_t r) {
                                seen[w].push_back(r);
                                return Status::OK();
                              });
      EXPECT_TRUE(s.ok());
    });
  }
  for (std::thread& th : threads) th.join();
  // 125 even keys hit 4 rows each, twice (single and batch probes).
  for (const auto& rows : seen) {
    EXPECT_EQ(rows.size(), 2u * 125u * 4u);
    EXPECT_EQ(rows, seen[0]);
  }
}

// ---- Engines over the kernel -----------------------------------------

// B(k int, tag int) builds on int keys; P(d double, ds {double}) probes
// with doubles, integral and not.
std::unique_ptr<Database> IntDoubleDb() {
  auto db = std::make_unique<Database>();
  N2J_CHECK(db->CreateTable("B", Type::Tuple({{"k", Type::Int()},
                                               {"tag", Type::Int()}}))
                .ok());
  N2J_CHECK(db->CreateTable("P", Type::Tuple({{"d", Type::Double()},
                                               {"ds", Type::Set(
                                                          Type::Double())}}))
                .ok());
  for (int i = 0; i < 24; ++i) {
    N2J_CHECK(db->Insert("B", Value::Tuple({Field("k", Value::Int(i % 8)),
                                            Field("tag", Value::Int(i))}))
                  .ok());
  }
  for (int i = 0; i < 20; ++i) {
    const double d = i % 3 == 0 ? i / 2.0 + 0.25 : static_cast<double>(i / 2);
    N2J_CHECK(
        db->Insert("P",
                   Value::Tuple({Field("d", Value::Double(d)),
                                 Field("ds", Value::Set({Value::Double(d),
                                                         Value::Double(d + 1.5),
                                                         Value::Double(
                                                             d + 3.0)}))}))
            .ok());
  }
  return db;
}

struct EngineRun {
  std::string name;
  EvalOptions opts;
  bool rewrite = true;  // nested engine: run the rewritten plan
};

TEST(JoinKernelEngines, IntBuildKeysProbedByDoublesAgreeEverywhere) {
  std::unique_ptr<Database> db = IntDoubleDb();
  struct Case {
    const char* text;
    uint64_t EvalStats::*algo;  // the join counter the nested engine bumps
    bool shredded_join;         // the shredded backend runs a hash join
  };
  const Case cases[] = {
      {"select (d = x.d, t = y.tag) from x in P, y in B where x.d = y.k",
       &EvalStats::joins_hash, true},
      {"select x.d from x in P where exists y in B : y.k = x.d",
       &EvalStats::joins_hash, false},
      {"select x.d from x in P where not exists y in B : y.k = x.d",
       &EvalStats::joins_hash, false},
      {"select x.d from x in P where exists y in B : y.k in x.ds",
       &EvalStats::joins_membership, false},
  };
  for (const Case& c : cases) {
    ExprPtr naive = TranslateOrDie(*db, c.text);
    ExprPtr plan = RewriteExpr(*db, naive).expr;
    EvalOptions reference_opts;
    reference_opts.use_hash_joins = false;
    reference_opts.enable_pnhl = false;
    reference_opts.compiled = false;
    const Value expected = testutil::EvalExpr(*db, naive, reference_opts);
    ASSERT_TRUE(expected.is_set());
    ASSERT_GT(expected.set_size(), 0u) << c.text;

    auto run = [&](const EvalOptions& opts, bool shredded,
                   EvalStats* stats) -> Value {
      Result<Value> v = Status::Internal("unset");
      if (shredded) {
        v = shred::EvalWithBackend(*db, naive, opts, stats);
      } else {
        Evaluator ev(*db, opts);
        v = ev.Eval(plan);
        *stats = ev.stats();
      }
      EXPECT_TRUE(v.ok()) << c.text << "\n" << v.status().ToString();
      return v.ok() ? *v : Value();
    };

    // The nested engine: hash, sort-merge and membership joins.
    for (JoinAlgorithm algo : {JoinAlgorithm::kHash, JoinAlgorithm::kSortMerge}) {
      EvalStats serial_stats, mt_stats;
      EvalOptions opts;
      opts.join_algorithm = algo;
      const Value serial = run(opts, false, &serial_stats);
      opts.num_threads = 4;
      const Value mt = run(opts, false, &mt_stats);
      EXPECT_EQ(serial, expected) << c.text;
      EXPECT_EQ(mt, expected) << c.text;
      EXPECT_EQ(serial_stats, mt_stats)
          << c.text << "\nserial: " << serial_stats.Compact()
          << "\n4-thread: " << mt_stats.Compact();
      uint64_t EvalStats::*ran = c.algo;
      if (algo == JoinAlgorithm::kSortMerge && ran == &EvalStats::joins_hash) {
        ran = &EvalStats::joins_sortmerge;
      }
      EXPECT_GT(serial_stats.*ran, 0u) << c.text << "\n"
                                       << serial_stats.Compact();
    }

    // The shredded backend: scalar, vectorized, vectorized at 4 threads.
    // Batches of 4 rows give the worker lanes several units to probe
    // with at once.
    EvalOptions shred_opts;
    shred_opts.backend = Backend::kShredded;
    shred_opts.vectorized = false;
    EvalStats scalar_stats, vec_stats, vec_mt_stats;
    EXPECT_EQ(run(shred_opts, true, &scalar_stats), expected) << c.text;
    shred_opts.vectorized = true;
    shred_opts.vector_batch_size = 4;
    EXPECT_EQ(run(shred_opts, true, &vec_stats), expected) << c.text;
    shred_opts.num_threads = 4;
    EXPECT_EQ(run(shred_opts, true, &vec_mt_stats), expected) << c.text;
    EXPECT_EQ(vec_stats, vec_mt_stats)
        << c.text << "\nserial: " << vec_stats.Compact()
        << "\n4-thread: " << vec_mt_stats.Compact();
    if (c.shredded_join) {
      EXPECT_GT(scalar_stats.joins_hash, 0u) << scalar_stats.Compact();
      EXPECT_GT(vec_stats.joins_hash, 0u) << vec_stats.Compact();
      EXPECT_GT(vec_stats.vec_pipelines, 0u) << vec_stats.Compact();
      EXPECT_EQ(vec_stats.vec_fallbacks, 0u) << vec_stats.Compact();
    }
  }
}

}  // namespace
}  // namespace n2j
