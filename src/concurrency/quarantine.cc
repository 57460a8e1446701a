#include "concurrency/quarantine.h"

#include <algorithm>

#include "obs/catalog.h"
#include "obs/metrics.h"

namespace irdb::concurrency {

Status QuarantineManager::Begin() {
  std::lock_guard<std::mutex> lk(mu_);
  if (active_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition(
        "online repair already in progress: quarantine is held");
  }
  tables_.clear();
  active_.store(true, std::memory_order_release);
  PublishGauge();
  return Status::Ok();
}

int QuarantineManager::Add(const std::vector<QuarantineSlice>& slices) {
  std::lock_guard<std::mutex> lk(mu_);
  int added = 0;
  for (const QuarantineSlice& s : slices) {
    TableSlices& t = tables_[s.table_id];
    if (s.is_table()) {
      if (!t.whole_table) {
        // The whole table subsumes any bucket already registered for it.
        t.whole_table = true;
        t.buckets.clear();
        t.partitions.clear();
        ++added;
      }
    } else if (!t.whole_table &&
               t.buckets.emplace(s.key_hash, s.partition_hash).second) {
      if (s.partition_hash != 0) ++t.partitions[s.partition_hash];
      ++added;
    }
  }
  installed_total_ += added;
  PublishGauge();
  return added;
}

int QuarantineManager::ReleaseTable(int32_t table_id) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = tables_.find(table_id);
  if (it == tables_.end()) return 0;
  const int released = it->second.whole_table
                           ? 1
                           : static_cast<int>(it->second.buckets.size());
  tables_.erase(it);
  released_total_ += released;
  PublishGauge();
  return released;
}

int QuarantineManager::ReleaseKey(int32_t table_id, uint64_t key_hash) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = tables_.find(table_id);
  if (it == tables_.end() || it->second.whole_table) return 0;
  TableSlices& t = it->second;
  auto b = t.buckets.find(key_hash);
  if (b == t.buckets.end()) return 0;
  if (b->second != 0) {
    auto p = t.partitions.find(b->second);
    if (--p->second == 0) t.partitions.erase(p);
  }
  t.buckets.erase(b);
  if (t.buckets.empty()) tables_.erase(it);
  ++released_total_;
  PublishGauge();
  return 1;
}

void QuarantineManager::End() {
  std::lock_guard<std::mutex> lk(mu_);
  released_total_ += CountLocked();
  tables_.clear();
  active_.store(false, std::memory_order_release);
  PublishGauge();
}

bool QuarantineManager::Blocks(const ResourceId& res, LockMode mode) const {
  std::lock_guard<std::mutex> lk(mu_);
  return BlocksLocked(res, mode);
}

bool QuarantineManager::BlocksLocked(const ResourceId& res,
                                     LockMode mode) const {
  auto it = tables_.find(res.table_id);
  if (it == tables_.end()) return false;
  const TableSlices& t = it->second;
  if (t.whole_table) return true;
  // S, SIX and X read or write every row below the resource, quarantined
  // buckets included; intention modes name their keys separately and are
  // judged per key.
  const bool covers = mode == LockMode::kShared ||
                      mode == LockMode::kSharedIntentionExclusive ||
                      mode == LockMode::kExclusive;
  switch (res.level()) {
    case ResourceId::kTableLevel:
      return covers;
    case ResourceId::kPartitionLevel:
      return covers && t.partitions.count(res.key_hash) > 0;
    default:
      return t.buckets.count(res.key_hash) > 0;
  }
}

bool QuarantineManager::HoldsOverlapping(const LockManager& lm,
                                         int64_t txn_id) const {
  // Snapshot the transaction's grants, then judge them under mu_ (the lock
  // manager has its own mutex; never nest the two).
  const auto held = lm.held_locks(txn_id);
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [res, mode] : held) {
    if (BlocksLocked(res, mode)) return true;
  }
  return false;
}

std::vector<std::pair<ResourceId, LockMode>> QuarantineManager::DrainPlan()
    const {
  std::vector<std::pair<ResourceId, LockMode>> plan;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& [table_id, t] : tables_) {
      if (t.whole_table) {
        plan.emplace_back(ResourceId::Table(table_id), LockMode::kExclusive);
        continue;
      }
      plan.emplace_back(ResourceId::Table(table_id),
                        LockMode::kIntentionExclusive);
      for (const auto& [p, n] : t.partitions) {
        (void)n;
        plan.emplace_back(ResourceId{table_id, p},
                          LockMode::kIntentionExclusive);
      }
      for (const auto& [b, p] : t.buckets) {
        (void)p;
        plan.emplace_back(ResourceId{table_id, b}, LockMode::kExclusive);
      }
    }
  }
  std::sort(plan.begin(), plan.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return plan;
}

void QuarantineManager::CountReject() {
  rejects_total_.fetch_add(1, std::memory_order_relaxed);
  obs::Count(obs::Metrics::Get().quarantine_rejects);
}

QuarantineStats QuarantineManager::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  QuarantineStats s;
  s.active = active_.load(std::memory_order_relaxed);
  s.slices = CountLocked();
  s.tables = static_cast<int>(tables_.size());
  s.installed_total = installed_total_;
  s.released_total = released_total_;
  s.rejects_total = rejects_total_.load(std::memory_order_relaxed);
  return s;
}

int QuarantineManager::CountLocked() const {
  int n = 0;
  for (const auto& [id, t] : tables_) {
    n += t.whole_table ? 1 : static_cast<int>(t.buckets.size());
  }
  return n;
}

void QuarantineManager::PublishGauge() const {
  obs::SetGauge(obs::Metrics::Get().quarantine_slices, CountLocked());
}

}  // namespace irdb::concurrency
