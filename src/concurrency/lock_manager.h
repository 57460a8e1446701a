// Hierarchical two-phase lock manager (DESIGN.md §5f).
//
// Resources form a three-level hierarchy: a table, partitions within a
// table (the FNV hash of the leading primary-key column's value — on TPC-C,
// the warehouse), and keys (the FNV hash of a row's whole primary key —
// stable across the page compactions that make RowLoc unusable as a lock
// name). Statements lock top-down: intention modes on the table and
// partition, then S/X on the keys they touch; scans and non-key writes
// pinned to one partition take S/X on the partition; unpinned ones take S/X
// on the table itself. Locks are strict two-phase: acquired before a
// statement executes (or, for index nested-loop join probes, while it
// executes — see TryAcquire), held until the owning transaction commits or
// aborts.
//
// Grants are FIFO per resource: a waiter blocks every later non-upgrade
// request even if that request is compatible with the granted group, so
// writers cannot starve behind a stream of readers. Upgrades (a holder
// widening its mode, e.g. S -> X) jump the queue — the holder is already
// inside the granted group, and queueing it behind its own blockers would
// deadlock with any other upgrader.
//
// Deadlocks are detected on a waits-for graph: an edge T1 -> T2 means T1's
// pending request is blocked by T2 (T2 holds an incompatible grant, or sits
// earlier in the queue). Each blocked thread re-derives its own edges and
// runs a DFS from itself on every wakeup tick; if it finds itself on a
// cycle it aborts — the requester whose arrival completed the cycle always
// lies on it, so aborting requesters dissolves every cycle without
// cross-thread signalling. Aborts surface as kAborted tagged "[deadlock]"
// (see util/status.h for when the tag is widened to the retryable form).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/status.h"

namespace irdb::concurrency {

enum class LockMode : uint8_t {
  kIntentionShared = 0,       // IS: will take S on something below
  kIntentionExclusive,        // IX: will take X on something below
  kShared,                    // S: read the whole resource
  kSharedIntentionExclusive,  // SIX: read it all, X on something below
  kExclusive,                 // X: write the whole resource
};

const char* LockModeName(LockMode m);

// Compatibility of a requested mode against a held mode (symmetric).
bool LockCompatible(LockMode a, LockMode b);

// Least mode at least as strong as both: IS < IX, S < SIX < X (S+IX is
// SIX, not X).
LockMode LockSupremum(LockMode a, LockMode b);

// Name of a lockable resource. key_hash == 0 names the table itself; key
// hashes have the low bit forced on and partition hashes the low bit off
// and bit 1 on, so the three levels never collide. Table id 0 names no
// table (catalog ids start at 1): it is the whole database, the one
// resource the engine's serial policy locks.
struct ResourceId {
  int32_t table_id = 0;
  uint64_t key_hash = 0;

  enum Level : int { kTableLevel = 0, kPartitionLevel = 1, kKeyLevel = 2 };

  static ResourceId Database() { return {0, 0}; }
  static ResourceId Table(int32_t table_id) { return {table_id, 0}; }
  static ResourceId Partition(int32_t table_id, uint64_t hash) {
    return {table_id, (hash | 2) & ~uint64_t{1}};
  }
  static ResourceId Key(int32_t table_id, uint64_t hash) {
    return {table_id, hash | 1};
  }

  int level() const {
    if (key_hash == 0) return kTableLevel;
    return (key_hash & 1) != 0 ? kKeyLevel : kPartitionLevel;
  }
  bool is_table() const { return key_hash == 0; }
  bool is_partition() const { return level() == kPartitionLevel; }
  bool is_key() const { return level() == kKeyLevel; }
  bool operator==(const ResourceId& o) const {
    return table_id == o.table_id && key_hash == o.key_hash;
  }
  // Lock order: (table, level, hash) — a plan sorted by it is taken
  // top-down, and every statement takes its locks in one global order.
  bool operator<(const ResourceId& o) const {
    if (table_id != o.table_id) return table_id < o.table_id;
    if (level() != o.level()) return level() < o.level();
    return key_hash < o.key_hash;
  }
};

struct ResourceIdHash {
  size_t operator()(const ResourceId& r) const {
    uint64_t h = static_cast<uint64_t>(static_cast<uint32_t>(r.table_id));
    h = h * 0x9e3779b97f4a7c15ULL ^ r.key_hash;
    h ^= h >> 32;
    return static_cast<size_t>(h);
  }
};

struct LockManagerStats {
  int64_t acquisitions = 0;  // grants, first-time (upgrades not re-counted)
  int64_t upgrades = 0;      // mode widenings of an existing grant
  int64_t waits = 0;         // requests that blocked at least once
  int64_t deadlocks = 0;     // requests aborted by cycle detection
  int64_t timeouts = 0;      // requests aborted by the wait-timeout failsafe
};

// True if `s` is a deadlock (or lock-timeout) abort from the lock manager,
// whether or not it carries the autocommit retryable tag.
bool IsDeadlockAbort(const Status& s);

class LockManager {
 public:
  struct Options {
    // Failsafe: a waiter that has not been granted or deadlock-aborted
    // within this many wall seconds gives up with a tagged abort. Detection
    // normally fires within a few wakeup ticks; the timeout only matters if
    // an application leaks a transaction while holding locks.
    double wait_timeout_seconds = 10.0;
  };

  LockManager() : LockManager(Options()) {}
  explicit LockManager(Options options) : options_(options) {}

  // Setup-only (call before concurrent traffic, like IoModel::Configure):
  // shortens the wait-timeout failsafe. Sharded deployments rely on this —
  // the waits-for graph is per shard, so a lock cycle that crosses shards
  // is invisible to cycle detection and resolves only when one waiter's
  // timeout fires and surfaces a retryable deadlock abort.
  void set_wait_timeout_seconds(double s) { options_.wait_timeout_seconds = s; }

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  // Blocks until `txn_id` holds `mode` (or a stronger mode) on `res`.
  // Returns a "[deadlock]"-tagged kAborted status if the wait would
  // deadlock or times out; the request is withdrawn but locks already held
  // by the transaction are kept (the caller decides how much to roll back).
  Status Acquire(int64_t txn_id, ResourceId res, LockMode mode);

  // Never blocks: grants `mode` (or widens the held grant to cover it) only
  // if that needs no wait — compatible with every other grant and, for a
  // new request, no earlier waiter queued. Returns false and leaves no
  // trace otherwise; the caller is expected to let go of whatever it holds
  // (latches) and block in Acquire instead. Used by index nested-loop join
  // probes, which discover their keys while holding table latches.
  bool TryAcquire(int64_t txn_id, ResourceId res, LockMode mode);

  // Releases every lock held by `txn_id` and wakes eligible waiters.
  void ReleaseAll(int64_t txn_id);

  LockManagerStats stats() const;

  // Introspection for tests.
  int64_t held_count(int64_t txn_id) const;
  bool holds(int64_t txn_id, ResourceId res, LockMode at_least) const;
  // Every grant `txn_id` holds, with its granted mode.
  std::vector<std::pair<ResourceId, LockMode>> held_locks(
      int64_t txn_id) const;

 private:
  struct Request {
    int64_t txn_id = 0;
    LockMode mode = LockMode::kShared;  // granted mode (held while upgrading)
    // Target mode of a pending upgrade. While upgrading, `granted` stays
    // true and `mode` keeps the held grant — losing it would hide the
    // holder from other waiters' deadlock edges (two S holders upgrading to
    // X must see each other).
    LockMode pending_mode = LockMode::kShared;
    bool granted = false;
    bool upgrade = false;  // waiting to widen the existing grant
  };
  struct Queue {
    std::vector<Request> reqs;
  };

  Request* FindRequest(Queue& q, int64_t txn_id);
  // Is `mode` compatible with every granted request other than `txn_id`'s?
  bool CompatibleWithGranted(const Queue& q, int64_t txn_id,
                             LockMode mode) const;
  // FIFO grant scan; called after any queue change. Wakes nobody itself —
  // callers notify the condition variable once per mutation batch.
  void Promote(Queue& q);
  // Recomputes the out-edges of `txn_id`'s pending request on `res`.
  void RebuildWaitEdges(const Queue& q, int64_t txn_id);
  bool OnCycle(int64_t start) const;
  // Waits until granted; on deadlock/timeout removes the request (or, for
  // upgrades, abandons the widening and keeps the previous grant) and
  // returns the tagged abort.
  Status WaitForGrant(std::unique_lock<std::mutex>& lk, ResourceId res,
                      int64_t txn_id, bool upgrade);

  Options options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<ResourceId, Queue, ResourceIdHash> queues_;
  std::unordered_map<int64_t, std::vector<ResourceId>> held_;
  std::unordered_map<int64_t, std::set<int64_t>> waits_for_;
  LockManagerStats stats_;
};

}  // namespace irdb::concurrency
