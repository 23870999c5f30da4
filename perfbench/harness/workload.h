#ifndef N2J_PERFBENCH_WORKLOAD_H_
#define N2J_PERFBENCH_WORKLOAD_H_

// The benchmark's three workloads: their databases, query classes,
// write batches and the fixed operation sequence a run executes.
//
// A run's sequence depends only on (workload, seed, passes) — never on
// elapsed time — so the database has the same size at the same
// operation in every run, and pass k issues the same texts in the same
// order in every run.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/eval.h"
#include "opt/optimizer.h"
#include "storage/database.h"

namespace n2j {
namespace perfbench {

/// How a timed query's value is checked.
enum class Reference {
  /// The paper's semantics: the nested-loop interpreter on the
  /// unrewritten translation (no rewrite, no hash joins, no PNHL, no
  /// bytecode).
  kNestedLoop,
  /// The paper's heuristic rewrite evaluated by the nested backend with
  /// default options — for classes whose nested loops are unaffordable.
  kHeuristicNested,
};

/// Sizes a query template may draw literals from.
struct DbShape {
  int parts = 0;
  int suppliers = 0;
  int xy_rows = 0;  // 0 when the X/Y/Z/W tables are absent
};

struct QueryClass {
  const char* name;
  /// Fills the class's template: with the paper's literals when rng is
  /// null, with seeded ones otherwise.
  std::string (*make)(Rng* rng, const DbShape& shape);
  Reference reference;
};

/// Objects one write batch adds through Database::NewObject.
struct WriteBatchShape {
  int parts = 0;
  int suppliers = 0;
  int deliveries = 0;
  int objects() const { return parts + suppliers + deliveries; }
};

struct Workload {
  std::string name;
  DbShape shape;
  PlannerOptions planner;
  EvalOptions eval;
  std::vector<QueryClass> classes;
  /// Seeded literals in every query (texts rarely repeat) rather than
  /// the paper's exact texts (every pass repeats them).
  bool vary_literals = false;
  /// Zero-object batch = read-only workload.
  WriteBatchShape batch;
  /// Passes per requested second; the pass count is a function of the
  /// --seconds argument, not of a clock.
  double passes_per_second = 0;

  bool writes() const { return batch.objects() > 0; }
  int Passes(int seconds) const;
};

/// The workloads by name; nullptr for an unknown name.
const Workload* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// Builds the workload's database from the run seed.
std::unique_ptr<Database> MakeDatabase(const Workload& w, uint64_t seed);

struct Op {
  enum class Kind { kQuery, kWrite };
  Kind kind = Kind::kQuery;
  int pass = 0;
  int cls = -1;      // query class index (kQuery)
  std::string text;  // OOSQL text (kQuery)
};

/// The fixed sequence: per pass, a write batch (writing workloads
/// only), then one query of every class in class order.
std::vector<Op> MakeOps(const Workload& w, uint64_t seed, int passes);

/// FNV-1a over every op's kind and text, in order.
uint64_t OpsFingerprint(const std::vector<Op>& ops);

/// Called with the start and end (MonotonicNanos) of each
/// Database::NewObject call of a batch.
using InsertHook = std::function<void(int64_t start_ns, int64_t end_ns)>;

/// Adds batch number `pass` of the run seeded `seed`. Contents depend
/// only on (seed, pass) and the extent sizes the batch finds, which the
/// fixed sequence makes identical across runs. Part references may
/// dangle with the generator's match rate, as in the base data.
Status ApplyWriteBatch(Database* db, const Workload& w, uint64_t seed,
                       int pass, const InsertHook& on_insert = nullptr);

/// "PART=4096 SUPPLIER=1024 ..." over every table, sorted by name.
std::string ExtentSizes(const Database& db);

}  // namespace perfbench
}  // namespace n2j

#endif  // N2J_PERFBENCH_WORKLOAD_H_
