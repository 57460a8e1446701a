// QuarantineManager — the engine-side gate of online ("serve-through")
// repair (DESIGN.md §5g).
//
// During RepairOnline the contaminated partition is registered here as a
// set of slices in the lock manager's resource space: whole tables
// (key_hash == 0) and single key-hash buckets, each bucket tagged with the
// partition (leading primary-key value) it lives in. The engine consults the
// manager on the 2PL lock-plan path — after a statement's lock plan is
// derived but before any lock is acquired — and rejects statements whose
// plan touches a quarantined slice with a "[quarantine]"-tagged
// kUnavailable (retryable, so proxy/NetClient backoff semantics carry
// over unchanged). Everything else proceeds normally.
//
// Exactly one online repair may hold the quarantine at a time: Begin()
// claims the slot and a second claimant gets kFailedPrecondition until
// End(). Slices are released incrementally (per table, then per bucket)
// as the repair heals them, so availability recovers before the repair
// finishes.
//
// The inactive fast path is one relaxed atomic load; statements never pay
// for quarantine support while no repair is running.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "concurrency/lock_manager.h"
#include "util/status.h"

namespace irdb::concurrency {

// One quarantined slice: a whole table (key_hash == 0) or one key-hash
// bucket of it (ResourceId::Key space — low bit forced on). A bucket of a
// table whose primary key has two or more columns also names its partition
// (ResourceId::Partition space); partition_hash == 0 means the table has no
// partition level (single-column key), so no partition lock can cover it.
struct QuarantineSlice {
  int32_t table_id = 0;
  uint64_t key_hash = 0;
  uint64_t partition_hash = 0;

  bool is_table() const { return key_hash == 0; }
};

struct QuarantineStats {
  bool active = false;
  int slices = 0;               // currently quarantined
  int tables = 0;               // distinct tables with at least one slice
  int64_t installed_total = 0;  // slices ever installed
  int64_t released_total = 0;   // slices ever released
  int64_t rejects_total = 0;    // statements rejected by the gate
};

class QuarantineManager {
 public:
  QuarantineManager() = default;
  QuarantineManager(const QuarantineManager&) = delete;
  QuarantineManager& operator=(const QuarantineManager&) = delete;

  // Claims the single online-repair slot. A second concurrent repair is
  // rejected with kFailedPrecondition until the holder calls End().
  Status Begin();

  // Installs slices under the active claim; duplicates are ignored. A
  // whole-table slice subsumes that table's buckets. Returns how many
  // slices were actually added.
  int Add(const std::vector<QuarantineSlice>& slices);

  // Incremental release. Return how many slices were dropped.
  int ReleaseTable(int32_t table_id);
  int ReleaseKey(int32_t table_id, uint64_t key_hash);

  // Drops any remaining slices and frees the claim.
  void End();

  bool active() const {
    return active_.load(std::memory_order_acquire);
  }

  // The lock-plan gate: would a statement holding `mode` on `res` touch
  // quarantined data? Table-level S/SIX/X (scans, coarse writes) conflict
  // with ANY slice of the table; partition-level S/SIX/X with any bucket of
  // that partition; intention modes only with a whole-table slice (their
  // key locks are checked individually); key locks conflict with their own
  // bucket or a whole-table slice.
  bool Blocks(const ResourceId& res, LockMode mode) const;

  // True when `txn_id` already holds a lock that Blocks would refuse —
  // such a transaction pins contaminated slices and must be aborted for
  // the repair's drain to complete.
  bool HoldsOverlapping(const LockManager& lm, int64_t txn_id) const;

  // Current slices as lockable resources for the drain pass, in lock order:
  // whole table → table X; bucket → table IX, partition IX (which waits out
  // in-flight partition scanners) and key X.
  std::vector<std::pair<ResourceId, LockMode>> DrainPlan() const;

  // Bumps the reject accounting (callers surface the actual status).
  void CountReject();

  QuarantineStats stats() const;

 private:
  struct TableSlices {
    bool whole_table = false;
    std::unordered_map<uint64_t, uint64_t> buckets;  // bucket → partition
    std::unordered_map<uint64_t, int> partitions;    // partition → buckets
  };

  bool BlocksLocked(const ResourceId& res, LockMode mode) const;  // mu_ held
  int CountLocked() const;     // total slices, mu_ held
  void PublishGauge() const;   // slice-count gauge, mu_ held

  mutable std::mutex mu_;
  std::atomic<bool> active_{false};
  std::unordered_map<int32_t, TableSlices> tables_;
  int64_t installed_total_ = 0;
  int64_t released_total_ = 0;
  std::atomic<int64_t> rejects_total_{0};
};

}  // namespace irdb::concurrency
