// Compensator — selective undo of committed transactions (§3.3).
//
// Walks the reconstructed log backwards; for every row operation belonging
// to a transaction in the undo set it executes the compensating statement
// immediately: DELETE→INSERT, INSERT→DELETE, UPDATE→reverse UPDATE, each
// addressed by row ID. Rows re-inserted during repair receive fresh row IDs,
// so an old→new row-ID mapping is maintained per table and consulted by all
// subsequent compensating statements; the mapping is discarded when the
// row's original INSERT log entry is reached.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "flavor/flavor_traits.h"
#include "repair/analyzer.h"
#include "wire/connection.h"

namespace irdb::repair {

struct RepairReport {
  std::set<int64_t> undo_set;  // proxy txn ids rolled back
  int64_t ops_compensated = 0;
  int64_t compensating_inserts = 0;
  int64_t compensating_deletes = 0;
  int64_t compensating_updates = 0;
  int64_t rows_remapped = 0;
  int compensate_lanes = 1;  // concurrent per-table batches (1 when serial)
};

// Executes the compensation through `admin` (an untracked connection),
// wrapped in a single repair transaction. `undo_proxy_ids` must be closed
// under the chosen dependency semantics — Compensate does not re-derive it.
//
// With `db`, compensating statements also carry each row's primary-key
// literals (the ComputeContaminatedPartition annotations online repair
// uses), so they find the row through the primary index instead of a heap
// scan for its address; the address stays in the WHERE as the deciding
// filter, and a row whose key moved since is found by address alone.
//
// A multi-lane `pool` batches the plan per table and applies the batches
// concurrently: compensating statements address rows by row ID within one
// table (and the old→new remap is per table), so batches of distinct tables
// touch disjoint row sets and commute; inverse-LSN order is preserved where
// it matters — within each table. The resulting database state is identical
// to the serial walk's.
//
// When `db` is also given, each lane runs as its own transaction on a
// private gate-exempt engine session instead of sharing `admin` — the
// shared session's statement mutex would serialize the lanes (on the
// disk-bound I/O model, stall charges only overlap across sessions). The
// trade: the repair is no longer one atomic transaction; a lane that fails
// leaves the other tables' (committed, commuting) compensation in place,
// the same per-lane semantics RepairOnline has always had. Without `db`
// the single-transaction shared-session walk is used.
Status Compensate(const DependencyAnalysis& analysis,
                  const std::set<int64_t>& undo_proxy_ids, DbConnection* admin,
                  const FlavorTraits& traits, RepairReport* report,
                  util::ThreadPool* pool = nullptr, Database* db = nullptr);

// One per-table compensation batch: the table's undone ops in inverse log
// order. Per-table batches address disjoint row sets and commute (the same
// argument that parallelizes Compensate), so online repair runs each in its
// own transaction and releases the table's quarantine slices at its commit.
struct CompensationBatch {
  std::string table;  // lower-cased catalog name
  std::vector<const RepairOp*> ops;
  // Parallel to `ops` (or empty): primary-key literals appended to each
  // compensating WHERE, so the statement's lock plan names a single key
  // instead of coarsening to table X — clean keys of the same table stay
  // lockable while the lane runs. An empty inner vector means rowid-only
  // addressing for that op.
  std::vector<std::vector<std::pair<std::string, Value>>> keys;
};

// Splits the undo set into per-table batches; `op_keys` (optional) supplies
// the PK literals per op (repair/quarantine.h's OpKeyMap). Fails when a
// proxy id is missing from the log.
Result<std::vector<CompensationBatch>> BuildCompensationBatches(
    const DependencyAnalysis& analysis, const std::set<int64_t>& undo_proxy_ids,
    const std::map<const RepairOp*,
                   std::vector<std::pair<std::string, Value>>>* op_keys =
        nullptr);

// Applies one batch through `admin`. The caller brackets the transaction
// (BEGIN before, COMMIT after) — online repair holds one per lane.
Status CompensateBatch(const CompensationBatch& batch, DbConnection* admin,
                       const FlavorTraits& traits, RepairReport* report);

}  // namespace irdb::repair
