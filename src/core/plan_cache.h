#ifndef N2J_CORE_PLAN_CACHE_H_
#define N2J_CORE_PLAN_CACHE_H_

#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "adl/expr.h"
#include "adl/type.h"
#include "opt/optimizer.h"
#include "rewrite/rewriter.h"
#include "storage/table.h"

namespace n2j {

/// What the front end (parse, typecheck, translate, rewrite) produced for
/// one query. The paper's rewrites depend only on the schema, never on
/// the data, so this stays valid across row inserts. Immutable once
/// built; runs share it.
struct PreparedQuery {
  ExprPtr translated;
  TypePtr type;  // null for hand-built ADL
  ExprPtr optimized;
  std::vector<RuleApplication> trace;
  /// FNV-1a of AlgebraStr(translated): the flight recorder's normalized
  /// query hash (two texts that differ only in formatting hash equal).
  uint64_t query_hash = 0;
  /// Every base table either tree scans, once each, sorted by name. The
  /// planner prices these; the flight recorder checks their statistics
  /// for drift.
  std::vector<const Table*> tables;
};

/// A cost-based plan and the version of every table it was priced at.
struct CachedPlan {
  std::shared_ptr<const PhysicalPlan> plan;
  std::vector<std::pair<const Table*, uint64_t>> versions;

  /// False once any of those tables has changed since planning.
  bool Fresh() const;
};

/// Everything besides the query text that decides whether a cached
/// front end (and plan) may be reused.
struct PlanCacheKey {
  RewriteOptions rewrite;
  PlannerOptions planner;
  uint64_t catalog_epoch = 0;  // Database::catalog_epoch()

  bool operator==(const PlanCacheKey&) const = default;
};

/// QueryEngine's cache from query text to its prepared front end and, under
/// the cost strategy, its plan. Holds at most kCapacity texts and evicts the
/// least recently used one at a time. Thread-safe; entries are immutable
/// and shared, so evaluation runs outside the lock.
class PlanCache {
 public:
  static constexpr size_t kCapacity = 256;

  struct Entry {
    std::shared_ptr<const PreparedQuery> query;  // null: not cached
    std::shared_ptr<const CachedPlan> plan;      // null under the heuristic
  };

  /// The entry for `text` built under `key`; an empty Entry when there is
  /// none, or when it was built under another key.
  Entry Find(const std::string& text, const PlanCacheKey& key);

  /// Caches `entry` for `text`, replacing any entry it had.
  void Insert(const std::string& text, const PlanCacheKey& key, Entry entry);

  /// Swaps in a re-priced plan, provided `text` still maps to `query`.
  void ReplacePlan(const std::string& text,
                   const std::shared_ptr<const PreparedQuery>& query,
                   std::shared_ptr<const CachedPlan> plan);

  size_t size() const;

 private:
  struct Slot {
    std::string text;
    PlanCacheKey key;
    Entry entry;
  };

  mutable std::mutex mu_;
  std::list<Slot> lru_;  // most recently used first
  std::unordered_map<std::string_view, std::list<Slot>::iterator> index_;
};

}  // namespace n2j

#endif  // N2J_CORE_PLAN_CACHE_H_
