#include "exec/join_kernels.h"

#include <climits>

#include "common/status.h"

namespace n2j {

KeyTable::KeyTable(const std::vector<Value>& keys) {
  N2J_CHECK(keys.size() < static_cast<size_t>(INT32_MAX));
  bool all_int = true, all_oid = true;
  for (const Value& k : keys) {
    all_int = all_int && k.is_int();
    all_oid = all_oid && k.is_oid();
    if (!all_int && !all_oid) break;
  }
  next_.assign(keys.size(), -1);
  // Both builds insert in reverse row order and prepend, which leaves
  // every chain in ascending row order.
  if ((all_int || all_oid) && !keys.empty()) {
    mode_ = all_int ? Mode::kInt : Mode::kOid;
    size_t cap = 16;
    while (cap < keys.size() * 2) cap <<= 1;
    slot_key_.assign(cap, 0);
    slot_head_.assign(cap, -1);
    mask_ = cap - 1;
    for (size_t i = keys.size(); i-- > 0;) {
      const uint64_t k = all_int ? static_cast<uint64_t>(keys[i].int_value())
                                 : keys[i].oid_value();
      uint64_t slot = StartSlot(k);
      while (slot_head_[slot] != -1 && slot_key_[slot] != k) {
        slot = (slot + 1) & mask_;
      }
      if (slot_head_[slot] == -1) {
        slot_key_[slot] = k;
        ++distinct_;
      }
      next_[i] = slot_head_[slot];
      slot_head_[slot] = static_cast<int32_t>(i);
    }
    if (all_int) heads_once_ = std::make_unique<std::once_flag>();
    return;
  }
  heads_.reserve(keys.size());
  for (size_t i = keys.size(); i-- > 0;) {
    auto [it, inserted] = heads_.try_emplace(keys[i], -1);
    (void)inserted;
    next_[i] = it->second;
    it->second = static_cast<int32_t>(i);
  }
  distinct_ = heads_.size();
}

int32_t KeyTable::ProbeValue(const Value& k) const {
  if (heads_once_ != nullptr) {
    // The raw slots already hold each distinct key with its chain head,
    // and next_ threads the chains, so the buckets are one pass over
    // the slots.
    std::call_once(*heads_once_, [this] {
      heads_.reserve(distinct_);
      for (size_t s = 0; s < slot_head_.size(); ++s) {
        if (slot_head_[s] == -1) continue;
        heads_.emplace(Value::Int(static_cast<int64_t>(slot_key_[s])),
                       slot_head_[s]);
      }
    });
  }
  auto it = heads_.find(k);
  return it == heads_.end() ? -1 : it->second;
}

}  // namespace n2j
