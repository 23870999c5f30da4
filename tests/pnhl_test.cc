// The PNHL algorithm of [DeLa92] (Section 6.2) and its baselines.

#include "exec/pnhl.h"

#include <gtest/gtest.h>

#include "storage/datagen.h"

namespace n2j {
namespace {

/// Builds outer tuples (id, parts : {(pid)}) and an inner table
/// (pid, payload) — a miniature of the paper's SUPPLIER/PART join.
struct SetJoinFixture {
  Value outer;
  Value inner;
  PnhlParams params;

  static SetJoinFixture Make() {
    SetJoinFixture f;
    auto elem = [](int64_t pid) {
      return Value::Tuple({Field("pid", Value::Int(pid))});
    };
    auto outer_row = [&](int64_t id, std::vector<int64_t> pids) {
      std::vector<Value> parts;
      for (int64_t p : pids) parts.push_back(elem(p));
      return Value::Tuple({Field("id", Value::Int(id)),
                           Field("parts", Value::Set(std::move(parts)))});
    };
    f.outer = Value::Set({
        outer_row(1, {10, 11}),
        outer_row(2, {}),          // empty set attribute
        outer_row(3, {11, 12, 99}),  // 99 dangles
    });
    auto inner_row = [](int64_t pid, int64_t payload) {
      return Value::Tuple({Field("pid", Value::Int(pid)),
                           Field("w", Value::Int(payload))});
    };
    f.inner = Value::Set({inner_row(10, 100), inner_row(11, 110),
                          inner_row(12, 120), inner_row(13, 130)});
    f.params.set_attr = "parts";
    f.params.elem_key = "pid";
    f.params.inner_key = "pid";
    return f;
  }
};

TEST(PnhlTest, JoinsSetElementsWithInnerTable) {
  SetJoinFixture f = SetJoinFixture::Make();
  PnhlStats stats;
  Result<Value> r = PnhlJoin(f.outer, f.inner, f.params, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->set_size(), 3u);
  for (const Value& x : r->elements()) {
    int64_t id = x.FindField("id")->int_value();
    const Value& parts = *x.FindField("parts");
    if (id == 1) {
      ASSERT_EQ(parts.set_size(), 2u);
      // Elements carry the joined payload, key appearing once.
      for (const Value& e : parts.elements()) {
        EXPECT_NE(e.FindField("w"), nullptr);
        EXPECT_NE(e.FindField("pid"), nullptr);
        EXPECT_EQ(e.tuple_size(), 2u);
      }
    }
    if (id == 2) {
      EXPECT_EQ(parts.set_size(), 0u);
    }
    if (id == 3) {
      EXPECT_EQ(parts.set_size(), 2u);  // 99 dangles away
    }
  }
  EXPECT_EQ(stats.partitions, 1u);
  EXPECT_EQ(stats.matches, 4u);
}

TEST(PnhlTest, PartitioningPreservesResult) {
  SetJoinFixture f = SetJoinFixture::Make();
  PnhlParams unlimited = f.params;
  Result<Value> full = PnhlJoin(f.outer, f.inner, unlimited, nullptr);
  ASSERT_TRUE(full.ok());

  for (size_t budget : {1u, 40u, 80u, 160u}) {
    PnhlParams limited = f.params;
    limited.memory_budget = budget;
    PnhlStats stats;
    Result<Value> part = PnhlJoin(f.outer, f.inner, limited, &stats);
    ASSERT_TRUE(part.ok()) << "budget=" << budget;
    EXPECT_EQ(*full, *part) << "budget=" << budget;
    if (budget < 40) {
      EXPECT_GT(stats.partitions, 1u);
      // Each segment pass probes the outer operand once.
      EXPECT_EQ(stats.probe_tuples, 3u * stats.partitions);
    }
  }
}

TEST(PnhlTest, SegmentArithmeticEdgeCases) {
  SetJoinFixture f = SetJoinFixture::Make();
  Result<Value> full = PnhlJoin(f.outer, f.inner, f.params, nullptr);
  ASSERT_TRUE(full.ok());
  size_t row_bytes = f.inner.elements()[0].ApproxBytes();
  ASSERT_GT(row_bytes, 0u);

  // budget = 1 byte: every row exceeds the budget on its own; each must
  // still get its own (singleton) segment — 4 rows → 4 partitions.
  {
    PnhlParams p = f.params;
    p.memory_budget = 1;
    PnhlStats stats;
    Result<Value> r = PnhlJoin(f.outer, f.inner, p, &stats);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*full, *r);
    EXPECT_EQ(stats.partitions, 4u);
  }
  // budget = exactly one row: a second row must NOT squeeze into the
  // segment (the off-by-one this test pins down) — again 4 partitions.
  {
    PnhlParams p = f.params;
    p.memory_budget = row_bytes;
    PnhlStats stats;
    Result<Value> r = PnhlJoin(f.outer, f.inner, p, &stats);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*full, *r);
    EXPECT_EQ(stats.partitions, 4u);
  }
  // budget = two rows: pairs fit, so exactly 2 partitions (>= 2 forced).
  {
    PnhlParams p = f.params;
    p.memory_budget = 2 * row_bytes;
    PnhlStats stats;
    Result<Value> r = PnhlJoin(f.outer, f.inner, p, &stats);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*full, *r);
    EXPECT_EQ(stats.partitions, 2u);
  }
  // A budget one byte short of a row must not admit it (the comparison
  // is overflow-proof: bytes + row size never computed directly).
  {
    PnhlParams p = f.params;
    p.memory_budget = row_bytes - 1;
    PnhlStats stats;
    Result<Value> r = PnhlJoin(f.outer, f.inner, p, &stats);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*full, *r);
    EXPECT_EQ(stats.partitions, 4u);
  }
}

TEST(PnhlTest, ParallelSegmentsMatchSerial) {
  SetJoinFixture f = SetJoinFixture::Make();
  for (size_t budget : {size_t{1}, size_t{40}, size_t{80}, SIZE_MAX}) {
    PnhlParams serial = f.params;
    serial.memory_budget = budget;
    PnhlStats serial_stats;
    Result<Value> s = PnhlJoin(f.outer, f.inner, serial, &serial_stats);
    ASSERT_TRUE(s.ok());
    for (int threads : {2, 8}) {
      PnhlParams mt = serial;
      mt.num_threads = threads;
      PnhlStats mt_stats;
      Result<Value> p = PnhlJoin(f.outer, f.inner, mt, &mt_stats);
      ASSERT_TRUE(p.ok()) << "budget=" << budget << " threads=" << threads;
      EXPECT_EQ(*s, *p) << "budget=" << budget << " threads=" << threads;
      // Counters are merged in segment order: exact, not approximate.
      EXPECT_EQ(serial_stats.partitions, mt_stats.partitions);
      EXPECT_EQ(serial_stats.build_inserts, mt_stats.build_inserts);
      EXPECT_EQ(serial_stats.probe_tuples, mt_stats.probe_tuples);
      EXPECT_EQ(serial_stats.probe_elements, mt_stats.probe_elements);
      EXPECT_EQ(serial_stats.matches, mt_stats.matches);
    }
  }
}

TEST(PnhlTest, AgreesWithNestedLoopBaseline) {
  SetJoinFixture f = SetJoinFixture::Make();
  Result<Value> pnhl = PnhlJoin(f.outer, f.inner, f.params, nullptr);
  Result<Value> nl = NestedLoopSetJoin(f.outer, f.inner, f.params, nullptr);
  ASSERT_TRUE(pnhl.ok());
  ASSERT_TRUE(nl.ok());
  EXPECT_EQ(*pnhl, *nl);
}

TEST(PnhlTest, UnnestJoinNestLosesEmptySetTuples) {
  // The unnest-based plan drops (id=2, parts=∅) — the structural reason
  // the paper prefers PNHL for this operation.
  SetJoinFixture f = SetJoinFixture::Make();
  Result<Value> lossy =
      UnnestJoinNest(f.outer, f.inner, f.params, /*keep_dangling=*/false,
                     nullptr);
  ASSERT_TRUE(lossy.ok());
  EXPECT_EQ(lossy->set_size(), 2u);
  Result<Value> fixed =
      UnnestJoinNest(f.outer, f.inner, f.params, /*keep_dangling=*/true,
                     nullptr);
  ASSERT_TRUE(fixed.ok());
  Result<Value> pnhl = PnhlJoin(f.outer, f.inner, f.params, nullptr);
  EXPECT_EQ(*fixed, *pnhl);
}

TEST(PnhlTest, UnnestBaselineDuplicatesOuterData) {
  // Cost asymmetry: the unnest plan probes one flat tuple per set
  // element (each carrying copied outer attributes), PNHL probes set
  // elements in place.
  SetJoinFixture f = SetJoinFixture::Make();
  PnhlStats pnhl_stats, unnest_stats;
  ASSERT_TRUE(PnhlJoin(f.outer, f.inner, f.params, &pnhl_stats).ok());
  ASSERT_TRUE(UnnestJoinNest(f.outer, f.inner, f.params, true,
                             &unnest_stats)
                  .ok());
  EXPECT_EQ(pnhl_stats.probe_elements, unnest_stats.probe_elements);
  EXPECT_EQ(pnhl_stats.build_inserts, unnest_stats.build_inserts);
}

TEST(PnhlTest, LargerRandomInstanceAllStrategiesAgree) {
  SupplierPartConfig config;
  config.seed = 3;
  config.num_parts = 200;
  config.num_suppliers = 60;
  config.parts_per_supplier = 8;
  config.match_fraction = 0.9;
  auto db = MakeSupplierPartDatabase(config);
  Value outer = db->FindTable("SUPPLIER")->AsSetValue();
  // Project suppliers' part refs to int keys for this test: use oids
  // directly (they are hashable values).
  Value inner = db->FindTable("PART")->AsSetValue();
  PnhlParams params;
  params.set_attr = "parts";
  params.elem_key = "pid";
  params.inner_key = "pid";
  Result<Value> a = PnhlJoin(outer, inner, params, nullptr);
  Result<Value> b = NestedLoopSetJoin(outer, inner, params, nullptr);
  params.memory_budget = 4096;
  PnhlStats stats;
  Result<Value> c = PnhlJoin(outer, inner, params, &stats);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*a, *b);
  EXPECT_EQ(*a, *c);
  EXPECT_GT(stats.partitions, 1u);
}

TEST(PnhlTest, InputValidation) {
  SetJoinFixture f = SetJoinFixture::Make();
  EXPECT_FALSE(PnhlJoin(Value::Int(1), f.inner, f.params, nullptr).ok());
  PnhlParams bad = f.params;
  bad.set_attr = "nope";
  EXPECT_FALSE(PnhlJoin(f.outer, f.inner, bad, nullptr).ok());
  PnhlParams bad_key = f.params;
  bad_key.inner_key = "nope";
  EXPECT_FALSE(PnhlJoin(f.outer, f.inner, bad_key, nullptr).ok());
}

}  // namespace
}  // namespace n2j
