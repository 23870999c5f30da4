#include "core/plan_cache.h"

namespace n2j {

bool CachedPlan::Fresh() const {
  for (const auto& [table, version] : versions) {
    if (table->version() != version) return false;
  }
  return true;
}

PlanCache::Entry PlanCache::Find(const std::string& text,
                                 const PlanCacheKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(text);
  if (it == index_.end() || !(it->second->key == key)) return Entry();
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->entry;
}

void PlanCache::Insert(const std::string& text, const PlanCacheKey& key,
                       Entry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(text);
  if (it != index_.end()) {
    it->second->key = key;
    it->second->entry = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= kCapacity) {
    index_.erase(lru_.back().text);
    lru_.pop_back();
  }
  lru_.push_front(Slot{text, key, std::move(entry)});
  index_.emplace(lru_.front().text, lru_.begin());
}

void PlanCache::ReplacePlan(const std::string& text,
                            const std::shared_ptr<const PreparedQuery>& query,
                            std::shared_ptr<const CachedPlan> plan) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(text);
  if (it == index_.end() || it->second->entry.query != query) return;
  it->second->entry.plan = std::move(plan);
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

}  // namespace n2j
