#include "harness/workload.h"

#include <algorithm>
#include <cmath>

#include "common/str_util.h"
#include "common/thread_pool.h"
#include "harness/summary.h"
#include "storage/datagen.h"

namespace n2j {
namespace perfbench {

namespace {

const char* const kColors[] = {"red",   "blue",  "green", "yellow",
                               "black", "white", "orange"};

// A null rng selects the literal the paper's text uses.
std::string Color(Rng* rng) {
  return rng == nullptr ? "red" : kColors[rng->Uniform(0, 6)];
}

std::string Supplier(Rng* rng, const DbShape& s) {
  if (rng == nullptr) return "s1";
  return StrFormat("s%lld", static_cast<long long>(
                                rng->Uniform(0, s.suppliers - 1)));
}

// Example Queries 1–6. Filled with the paper's literals ("red", "s1",
// 940600) these are its exact texts; a seeded rng varies only those
// literals.
std::string Q1(Rng* rng, const DbShape&) {
  return "select (sname = s.sname, pnames = select p.pname from p in PART "
         "where p[pid] in s.parts and p.color = \"" +
         Color(rng) + "\") from s in SUPPLIER";
}
std::string Q2(Rng* rng, const DbShape& s) {
  int64_t date = rng == nullptr ? 940600 : 940000 + 100 * rng->Uniform(1, 11);
  return "select d from d in (select e from e in DELIVERY "
         "where e.supplier.sname = \"" +
         Supplier(rng, s) + "\") where d.date > " + std::to_string(date);
}
std::string Q31(Rng* rng, const DbShape& s) {
  return "select s.sname from s in SUPPLIER where s.parts supseteq "
         "(select x from t in SUPPLIER, x in t.parts where t.sname = \"" +
         Supplier(rng, s) + "\")";
}
std::string Q32(Rng* rng, const DbShape&) {
  return "select d from d in DELIVERY where "
         "exists x in d.supply : x.part.color = \"" +
         Color(rng) + "\"";
}
std::string Q4(Rng*, const DbShape&) {
  return "select s.eid from s in SUPPLIER where "
         "exists z in s.parts : not exists p in PART : z.pid = p.pid";
}
std::string Q5(Rng* rng, const DbShape&) {
  return "select s.sname from s in SUPPLIER where "
         "exists x in s.parts : exists p in PART : "
         "x.pid = p.pid and p.color = \"" +
         Color(rng) + "\"";
}
std::string Q6(Rng*, const DbShape&) {
  return "select (sname = s.sname, partssuppl = select p from p in PART "
         "where p[pid] in s.parts) from s in SUPPLIER";
}

// The join-heavy shapes of bench_strategy_ablation over X/Y/W, each
// with one seeded bound. Y.e is drawn from [0, 8); W.e from [0, n).
// These templates are only used with literals varied (rng non-null).
std::string YBound(Rng* rng) { return std::to_string(rng->Uniform(1, 8)); }

std::string Fig1Semijoin(Rng* rng, const DbShape&) {
  return "select x from x in X where exists y in Y : y.a = x.a and y.e < " +
         YBound(rng);
}
std::string Antijoin(Rng* rng, const DbShape&) {
  return "select x from x in X where not exists y in Y : "
         "y.a = x.a and y.e < " +
         YBound(rng);
}
std::string Q6Nestjoin(Rng* rng, const DbShape&) {
  return "select x from x in X where x.c subseteq "
         "(select (d = y.e) from y in Y where y.a = x.a and y.e < " +
         YBound(rng) + ")";
}
std::string CountGrouping(Rng* rng, const DbShape&) {
  return "select (a = x.a, k = count(select y from y in Y where "
         "y.a = x.a and y.e < " +
         YBound(rng) + ")) from x in X";
}
// 16 bounds only: each distinct text costs one heuristic-plan reference
// of about 57 ms.
std::string Chain3Join(Rng* rng, const DbShape& s) {
  return "select (xa = x.a, we = w.e) from x in X, y in Y, w in W "
         "where x.a = y.a and y.e = w.a and w.e < " +
         std::to_string(s.xy_rows / 16 * rng->Uniform(1, 16));
}

std::vector<QueryClass> PaperClasses(Reference nested_loop_affordable) {
  return {
      {"q1", Q1, nested_loop_affordable},
      {"q2", Q2, nested_loop_affordable},
      {"q3.1", Q31, nested_loop_affordable},
      {"q3.2", Q32, nested_loop_affordable},
      {"q4", Q4, nested_loop_affordable},
      {"q5", Q5, nested_loop_affordable},
      {"q6", Q6, nested_loop_affordable},
  };
}

SupplierPartConfig GeneratorConfig(int parts, uint64_t seed) {
  // The shape of bench_paper_queries.
  SupplierPartConfig c;
  c.seed = seed;
  c.num_parts = parts;
  c.num_suppliers = parts / 4;
  c.parts_per_supplier = 8;
  c.red_fraction = 0.2;
  c.match_fraction = 0.92;
  c.num_deliveries = parts / 2;
  return c;
}

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> out;
  {
    Workload w;
    w.name = "paper-default";
    w.shape = {4096, 1024, 0};
    w.classes = PaperClasses(Reference::kNestedLoop);
    w.passes_per_second = 32;
    out.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "cost-small";
    w.shape = {256, 64, 256};
    w.planner.strategy = PlanStrategy::kCost;
    w.vary_literals = true;
    w.classes = PaperClasses(Reference::kNestedLoop);
    w.classes.push_back(
        {"fig1-semijoin", Fig1Semijoin, Reference::kNestedLoop});
    w.classes.push_back({"antijoin", Antijoin, Reference::kNestedLoop});
    w.classes.push_back({"q6-nestjoin", Q6Nestjoin, Reference::kNestedLoop});
    w.classes.push_back(
        {"count-grouping", CountGrouping, Reference::kNestedLoop});
    // X × Y × W nested loops are 33M iterations per query at n = 256.
    w.classes.push_back(
        {"chain3-join", Chain3Join, Reference::kHeuristicNested});
    w.passes_per_second = 16;
    out.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "shred-writes";
    w.shape = {4096, 1024, 0};
    w.planner.strategy = PlanStrategy::kCost;
    w.eval.backend = Backend::kShredded;
    // One engine thread: on a shared 4-core host, 2 threads ran each
    // query about 1.6x slower with a p95/p50 near 2 and left the run-to-
    // run spread above 20%. The traced run prices 2 threads instead
    // (shred.mt_speedup).
    w.eval.num_threads = 1;
    w.classes = PaperClasses(Reference::kHeuristicNested);
    w.batch = {4, 1, 2};
    w.passes_per_second = 16;
    out.push_back(std::move(w));
  }
  return out;
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = MakeWorkloads();
  return kWorkloads;
}

// Seeds of the independent random streams one run seed fans out to.
uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return seed * 0x9e3779b97f4a7c15ULL + stream;
}
constexpr uint64_t kLiteralStream = 1;
constexpr uint64_t kXyStream = 2;
constexpr uint64_t kZwStream = 3;
constexpr uint64_t kBatchStream = 1000;

uint16_t ClassId(const Database& db, const char* name) {
  const ClassDef* c = db.schema().FindClass(name);
  N2J_CHECK(c != nullptr);
  return c->class_id;
}

}  // namespace

int Workload::Passes(int seconds) const {
  // Every class needs enough samples for its p95.
  return std::max(static_cast<int>(MinSamplesFor(0.95)),
                  static_cast<int>(std::lround(passes_per_second * seconds)));
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const Workload& w : Workloads()) names.push_back(w.name);
  return names;
}

std::unique_ptr<Database> MakeDatabase(const Workload& w, uint64_t seed) {
  auto db = MakeSupplierPartDatabase(GeneratorConfig(w.shape.parts, seed));
  if (w.shape.xy_rows > 0) {
    // The X/Y/Z/W tables of bench_strategy_ablation at n rows.
    const int n = w.shape.xy_rows;
    XYConfig xy;
    xy.seed = StreamSeed(seed, kXyStream);
    xy.x_rows = n;
    xy.y_rows = n;
    xy.key_domain = n;
    N2J_CHECK(AddRandomXY(db.get(), xy).ok());
    XYConfig zw;
    zw.seed = StreamSeed(seed, kZwStream);
    zw.x_rows = n / 2;
    zw.y_rows = n * 2;
    zw.key_domain = n;
    zw.value_domain = n;
    N2J_CHECK(AddRandomXY(db.get(), zw, "Z", "W").ok());
  }
  return db;
}

std::vector<Op> MakeOps(const Workload& w, uint64_t seed, int passes) {
  Rng rng(StreamSeed(seed, kLiteralStream));
  Rng* literals = w.vary_literals ? &rng : nullptr;
  std::vector<Op> ops;
  for (int p = 0; p < passes; ++p) {
    if (w.writes()) {
      Op op;
      op.kind = Op::Kind::kWrite;
      op.pass = p;
      ops.push_back(std::move(op));
    }
    for (size_t c = 0; c < w.classes.size(); ++c) {
      Op op;
      op.pass = p;
      op.cls = static_cast<int>(c);
      op.text = w.classes[c].make(literals, w.shape);
      ops.push_back(std::move(op));
    }
  }
  return ops;
}

uint64_t OpsFingerprint(const std::vector<Op>& ops) {
  uint64_t h = Fnv1a("", 0);
  for (const Op& op : ops) {
    std::string key = op.kind == Op::Kind::kWrite
                          ? "write:" + std::to_string(op.pass)
                          : "query:" + op.text;
    key.push_back('\n');
    h = Fnv1a(key.data(), key.size(), h);
  }
  return h;
}

Status ApplyWriteBatch(Database* db, const Workload& w, uint64_t seed,
                       int pass, const InsertHook& on_insert) {
  Rng rng(StreamSeed(seed, kBatchStream + static_cast<uint64_t>(pass)));
  const uint16_t part_cls = ClassId(*db, "Part");
  const uint16_t sup_cls = ClassId(*db, "Supplier");
  auto insert = [&](const char* cls, Value attrs) -> Status {
    int64_t t0 = MonotonicNanos();
    Result<Oid> oid = db->NewObject(cls, std::move(attrs));
    if (on_insert) on_insert(t0, MonotonicNanos());
    return oid.status();
  };
  const SupplierPartConfig gen = GeneratorConfig(w.shape.parts, seed);
  // Oid sequence numbers equal insertion order within a class, so the
  // extent sizes name the live oid ranges.
  auto size_of = [&](const char* extent) {
    const Table* t = db->FindTable(extent);
    N2J_CHECK(t != nullptr);
    return static_cast<int64_t>(t->size());
  };
  for (int i = 0; i < w.batch.parts; ++i) {
    const bool red = rng.Bernoulli(gen.red_fraction);
    std::string color = red ? "red" : kColors[rng.Uniform(1, 6)];
    N2J_RETURN_IF_ERROR(insert(
        "Part",
        Value::Tuple({
            Field("pname", Value::String(StrFormat(
                               "part-%lld",
                               static_cast<long long>(size_of("PART"))))),
            Field("price", Value::Int(rng.Uniform(1, gen.price_max))),
            Field("color", Value::String(std::move(color))),
        })));
  }
  for (int i = 0; i < w.batch.suppliers; ++i) {
    const int64_t parts = size_of("PART");
    std::vector<Value> refs;
    for (int j = 0; j < gen.parts_per_supplier; ++j) {
      // Dangling sequence numbers sit far above any live part.
      uint64_t seq = rng.Bernoulli(gen.match_fraction)
                         ? static_cast<uint64_t>(rng.Uniform(0, parts - 1))
                         : (uint64_t{1} << 40) +
                               static_cast<uint64_t>(rng.Uniform(0, 1 << 20));
      refs.push_back(Value::Tuple(
          {Field("pid", Value::MakeOidValue(MakeOid(part_cls, seq)))}));
    }
    N2J_RETURN_IF_ERROR(insert(
        "Supplier",
        Value::Tuple({
            Field("sname", Value::String(StrFormat(
                               "s%lld",
                               static_cast<long long>(size_of("SUPPLIER"))))),
            Field("parts", Value::Set(std::move(refs))),
        })));
  }
  for (int i = 0; i < w.batch.deliveries; ++i) {
    const int64_t parts = size_of("PART");
    const int64_t suppliers = size_of("SUPPLIER");
    Oid sup = MakeOid(sup_cls,
                      static_cast<uint64_t>(rng.Uniform(0, suppliers - 1)));
    std::vector<Value> supply;
    for (int j = 0; j < gen.supplies_per_delivery; ++j) {
      supply.push_back(Value::Tuple({
          Field("part", Value::MakeOidValue(MakeOid(
                            part_cls, static_cast<uint64_t>(
                                          rng.Uniform(0, parts - 1))))),
          Field("quantity", Value::Int(rng.Uniform(1, 100))),
      }));
    }
    int64_t date = 940000 + rng.Uniform(1, 12) * 100 + rng.Uniform(1, 28);
    N2J_RETURN_IF_ERROR(insert(
        "Delivery", Value::Tuple({
                        Field("supplier", Value::MakeOidValue(sup)),
                        Field("supply", Value::Set(std::move(supply))),
                        Field("date", Value::Int(date)),
                    })));
  }
  return Status::OK();
}

std::string ExtentSizes(const Database& db) {
  std::string out;
  for (const std::string& name : db.TableNames()) {
    if (!out.empty()) out += ' ';
    out += name + "=" + std::to_string(db.FindTable(name)->size());
  }
  return out;
}

}  // namespace perfbench
}  // namespace n2j
