#ifndef N2J_EXEC_JOIN_KERNELS_H_
#define N2J_EXEC_JOIN_KERNELS_H_

// The hash-join kernel. "The join can be implemented as an index
// nested-loop join, a sort-merge join, a hash join, etc." (Section 6),
// and the nestjoin adapts the same methods (Section 6.1): the hash join
// is one algorithm, so every engine builds its join table here — the
// nested evaluator's hash and membership joins, PNHL and unnest-join-
// nest, and the shredded executor's scalar and vectorized joins.

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "adl/value.h"
#include "common/status.h"

namespace n2j {

/// Hash table over a join-key column, where entry i of the column is
/// the key of build row i. Rows with equal keys form one chain in
/// ascending row order, so a probe yields its matches in build order.
///
/// An all-int or all-oid column is stored as raw uint64 keys in an
/// open-addressing table (splitmix64, linear probing); any other column
/// in Value buckets. Keys match under Value equality either way: since
/// 3 and 3.0 are equal, a double probing an int column goes to Value
/// buckets, built on the first such probe (once, safe under concurrent
/// probes); any other kind mismatch is a miss.
///
/// Read-only after construction, so morsels can probe one table at once.
class KeyTable {
 public:
  /// The empty table: every probe misses.
  KeyTable() = default;
  explicit KeyTable(const std::vector<Value>& keys);

  /// Number of distinct keys: the entry count traces report.
  size_t distinct() const { return distinct_; }

  /// The first build row whose key equals `k`, or -1. Next() walks the
  /// rest of the chain:
  ///   for (int32_t r = t.Probe(k); r != -1; r = t.Next(r)) ...
  int32_t Probe(const Value& k) const;
  int32_t Next(int32_t row) const { return next_[static_cast<size_t>(row)]; }

  /// Per-thread scratch of ProbeBatch, reused across batches.
  struct BatchScratch {
    std::vector<uint64_t> raw;
    std::vector<uint64_t> slot;
    std::vector<uint8_t> cls;
  };

  /// Probes keys[0, n) and calls emit(i, row) for every match, in
  /// ascending (i, row) order; stops at the first non-OK Status emit
  /// returns. Raw tables run two passes: hash every key and prefetch its
  /// slot, then walk the chains.
  template <typename Emit>
  Status ProbeBatch(const Value* keys, size_t n, BatchScratch* scratch,
                    Emit&& emit) const;

 private:
  enum class Mode { kValue, kInt, kOid };

  static uint64_t Mix(uint64_t k) {
    // splitmix64 finalizer
    k += 0x9e3779b97f4a7c15ull;
    k = (k ^ (k >> 30)) * 0xbf58476d1ce4e5b9ull;
    k = (k ^ (k >> 27)) * 0x94d049bb133111ebull;
    return k ^ (k >> 31);
  }
  uint64_t StartSlot(uint64_t k) const { return Mix(k) & mask_; }
  int32_t FindFrom(uint64_t slot, uint64_t k) const {
    while (slot_head_[slot] != -1) {
      if (slot_key_[slot] == k) return slot_head_[slot];
      slot = (slot + 1) & mask_;
    }
    return -1;
  }
  /// Value-bucket lookup; an int table builds its buckets first.
  int32_t ProbeValue(const Value& k) const;

  Mode mode_ = Mode::kValue;
  // Raw tables: contiguous key/head slots.
  std::vector<uint64_t> slot_key_;
  std::vector<int32_t> slot_head_;  // -1 = empty slot
  uint64_t mask_ = 0;
  std::vector<int32_t> next_;  // per build row; -1 = end of chain
  size_t distinct_ = 0;
  // Value buckets: chain head per key. Filled at construction in kValue
  // mode; in kInt mode on the first double probe, under heads_once_.
  mutable std::unordered_map<Value, int32_t, ValueHash> heads_;
  std::unique_ptr<std::once_flag> heads_once_;
};

inline int32_t KeyTable::Probe(const Value& k) const {
  switch (mode_) {
    case Mode::kInt:
      if (k.is_int()) {
        const uint64_t u = static_cast<uint64_t>(k.int_value());
        return FindFrom(StartSlot(u), u);
      }
      return k.is_double() ? ProbeValue(k) : -1;
    case Mode::kOid:
      if (k.is_oid()) {
        const uint64_t u = k.oid_value();
        return FindFrom(StartSlot(u), u);
      }
      return -1;
    case Mode::kValue:
      return ProbeValue(k);
  }
  return -1;
}

template <typename Emit>
Status KeyTable::ProbeBatch(const Value* keys, size_t n,
                            BatchScratch* scratch, Emit&& emit) const {
  if (mode_ == Mode::kValue) {
    for (size_t i = 0; i < n; ++i) {
      for (int32_t r = ProbeValue(keys[i]); r != -1; r = Next(r)) {
        N2J_RETURN_IF_ERROR(emit(i, r));
      }
    }
    return Status::OK();
  }
  // cls: 0 = no match possible, 1 = raw probe, 2 = Value buckets (an
  // int table probed by a double).
  std::vector<uint64_t>& raw = scratch->raw;
  std::vector<uint64_t>& slot = scratch->slot;
  std::vector<uint8_t>& cls = scratch->cls;
  raw.resize(n);
  slot.resize(n);
  cls.resize(n);
  const bool int_mode = mode_ == Mode::kInt;
  for (size_t i = 0; i < n; ++i) {
    const Value& v = keys[i];
    uint8_t c = 0;
    if (int_mode && v.is_int()) {
      raw[i] = static_cast<uint64_t>(v.int_value());
      c = 1;
    } else if (!int_mode && v.is_oid()) {
      raw[i] = v.oid_value();
      c = 1;
    } else if (int_mode && v.is_double()) {
      c = 2;
    }
    cls[i] = c;
    if (c == 1) {
      slot[i] = StartSlot(raw[i]);
#if defined(__GNUC__) || defined(__clang__)
      __builtin_prefetch(&slot_key_[slot[i]]);
      __builtin_prefetch(&slot_head_[slot[i]]);
#endif
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (cls[i] == 0) continue;
    for (int32_t r = cls[i] == 1 ? FindFrom(slot[i], raw[i])
                                 : ProbeValue(keys[i]);
         r != -1; r = Next(r)) {
      N2J_RETURN_IF_ERROR(emit(i, r));
    }
  }
  return Status::OK();
}

}  // namespace n2j

#endif  // N2J_EXEC_JOIN_KERNELS_H_
