#ifndef N2J_OPT_COST_H_
#define N2J_OPT_COST_H_

// Cost formulas for the physical operator inventory, in calibrated
// nanoseconds. The constants were fitted against the checked-in
// trajectory measurements (bench/trajectory/join_algorithms.json,
// fig1_nested_query.json): e.g. the nested-loop semijoin at n=1024
// costs 27.3 ms over 1024² predicate evaluations → ~26 ns per compiled
// predicate evaluation. Absolute values matter less than ratios — the
// planner only compares alternatives for the same node.

#include <cstddef>

namespace n2j {

/// Calibrated per-operation constants (ns).
struct CostConstants {
  double pred_eval = 26.0;    // one compiled predicate evaluation
  double hash_build = 95.0;   // one hash-table insert (key eval + insert)
  double hash_probe = 95.0;   // one probe (key eval + lookup)
  double sort_per_cmp = 12.0; // one comparison inside sort (n·log2 n of them)
  double merge_row = 20.0;    // one row advanced by the merge phase
  double index_probe = 110.0; // one prebuilt-index lookup (key eval + chase)
  double index_chase = 45.0;  // one matching row fetched through the postings
  double emit_row = 30.0;     // one output tuple assembled

  bool operator==(const CostConstants&) const = default;
};

/// Cardinality inputs: probe/outer rows `l`, build/inner rows `r`,
/// estimated output rows `out`. All costs are monotone in their inputs
/// and safe on zero.
double NestedLoopJoinCost(double l, double r, double out,
                          const CostConstants& c = {});
double HashJoinCost(double l, double r, double out,
                    const CostConstants& c = {});
double SortMergeJoinCost(double l, double r, double out,
                         const CostConstants& c = {});
/// No build side: the index already exists. `matches` = total matching
/// rows fetched through the index over all probes (l × join fanout) —
/// unlike a hash table's grouped buckets, every match is a row-index
/// chase, which is what makes high-fanout keys favour hashing.
double IndexJoinCost(double l, double matches, double out,
                     const CostConstants& c = {});
/// `l_elems` = total probing set elements over all left rows
/// (rows × avg fanout) — the probe side of the membership join.
double MembershipJoinCost(double l_elems, double r, double out,
                          const CostConstants& c = {});
/// PNHL under a memory budget: the build side is hashed in segments of
/// `budget` bytes (`build_bytes` total) and the probe side is rescanned
/// once per segment.
double PnhlCost(double l, double r, double out, double build_bytes,
                size_t budget, const CostConstants& c = {});

}  // namespace n2j

#endif  // N2J_OPT_COST_H_
