// RepairEngine — one-stop post-intrusion repair facade.
//
// Typical flow (mirrors the paper's repair procedure):
//   RepairEngine eng(&db, /*threads=*/4);
//   auto analysis = eng.Analyze();                   // read + correlate log
//   std::string dot = RepairEngine::ExportDot(...);  // show the DBA (Fig. 3)
//   auto undo = eng.ComputeUndoSet(*analysis, seeds, policy);
//   auto report = eng.Repair(seeds, policy);         // selective rollback
//
// `threads` > 1 switches every phase to the parallel pipeline (DESIGN.md
// §5c): segmented log scan over the durable WAL bytes, sharded dependency
// closure, per-table batched compensation. Results are identical to
// threads=1, which in turn runs the exact serial code paths. Per-phase
// wall/simulated timings accumulate in phase_stats().
#pragma once

#include <memory>
#include <set>
#include <vector>

#include "flavor/log_reader.h"
#include "repair/analyzer.h"
#include "repair/compensator.h"
#include "repair/dba_policy.h"
#include "repair/quarantine.h"
#include "repair/reenact.h"
#include "repair/repair_stats.h"
#include "util/thread_pool.h"

namespace irdb::repair {

// Outcome of RepairOnline (serve-through repair, DESIGN.md §5g).
struct OnlineRepairReport {
  RepairReport repair;         // merged compensation accounting
  int rounds = 0;              // analyze→quarantine→drain fixpoint iterations
  int slices_installed = 0;    // rejection slices at the hold point
  int whole_table_slices = 0;
  int key_bucket_slices = 0;
  int fallback_whole_tables = 0;  // precision lost (no PK / PK rewritten)
  int lanes = 0;               // per-table compensation transactions
  int slices_released = 0;     // released incrementally as lanes committed
  int64_t rejects_during = 0;  // statements the gate turned away meanwhile
};

class RepairEngine {
 public:
  explicit RepairEngine(Database* db, int threads = 1)
      : db_(db), admin_(db), reader_(MakeLogReader(db)) {
    set_threads(threads);
  }

  // Resizes the worker pool; threads <= 1 tears it down (serial mode).
  void set_threads(int threads);
  int threads() const { return threads_; }

  Result<DependencyAnalysis> Analyze();

  // Damage perimeter: seeds plus everything transitively dependent on them,
  // honouring the DBA's false-dependency policy.
  std::set<int64_t> ComputeUndoSet(const DependencyAnalysis& analysis,
                                   const std::vector<int64_t>& seed_proxy_ids,
                                   const DbaPolicy& policy) const;

  // Compensation with phase accounting (the building block of Repair, also
  // usable directly after an explicit Analyze/ComputeUndoSet).
  Result<RepairReport> CompensateUndoSet(const DependencyAnalysis& analysis,
                                         const std::set<int64_t>& undo);

  // Full repair, dispatching on policy.strategy(): undo-only runs
  // analyze → closure → compensate; kReenact runs RepairReenact below and
  // returns its embedded RepairReport (undo_set = what STAYED undone).
  Result<RepairReport> Repair(const std::vector<int64_t>& seed_proxy_ids,
                              const DbaPolicy& policy);

  // Reenactment repair (DESIGN.md §5i): compensates the FULL dependency
  // closure mechanically — producing exactly the state "history minus the
  // closure" — then re-executes the closure's innocent members from the
  // statement journal in dependency order, so their intent is recomputed
  // against the corrected state and only the seeds (plus conservative
  // demotions, see reenact.h) stay undone. Independent subgraphs replay
  // concurrently when threads > 1; results are merged deterministically.
  // Replay problems never fail the repair — they demote.
  Result<ReenactReport> RepairReenact(
      const std::vector<int64_t>& seed_proxy_ids, const DbaPolicy& policy);

  // Serve-through repair (DESIGN.md §5g): the database keeps serving
  // traffic while the contaminated partition is fenced off and healed.
  //
  //   1. Fixpoint: analyze → close → compute the contaminated partition →
  //      install it in the engine's quarantine gate → drain in-flight
  //      holders by X-locking the slices through the lock manager →
  //      re-analyze, until the undo set is stable (writes that slipped in
  //      before the fence are caught by the next round).
  //   2. Heal: one compensation lane per table, each its own transaction on
  //      its own gate-exempt connection (per-table batches commute — the
  //      same argument that parallelizes offline Compensate). Compensating
  //      WHEREs carry PK literals where known, so lanes take key locks and
  //      clean keys of a partially contaminated table stay available.
  //   3. Release: a table's slices leave the quarantine the moment its lane
  //      commits — availability recovers incrementally, not at the end.
  //
  // Fails with kFailedPrecondition under serial mode — its one database
  // X lock, held to commit, leaves no unfenced slice to serve — and needs
  // the single online-repair slot (a second concurrent call gets
  // kFailedPrecondition too).
  // On a lane failure the unhealed tables STAY quarantined and the claim
  // stays held — run an offline Repair and then db->quarantine().End() to
  // recover; releasing the fence on error would re-expose contaminated rows.
  Result<OnlineRepairReport> RepairOnline(
      const std::vector<int64_t>& seed_proxy_ids, const DbaPolicy& policy);

  static std::string ExportDot(const DependencyAnalysis& analysis,
                               const std::set<int64_t>& highlight = {}) {
    return analysis.graph.ToDot(highlight);
  }

  // Accumulated per-phase timings since the last Analyze() (Analyze resets
  // them; ComputeUndoSet and CompensateUndoSet add to them).
  const RepairPhaseStats& phase_stats() const { return phases_; }
  util::ThreadPoolStats pool_stats() const {
    return pool_ ? pool_->stats() : util::ThreadPoolStats{};
  }

  FlavorLogReader* reader() { return reader_.get(); }
  DbConnection* admin() { return &admin_; }

 private:
  Database* db_;
  DirectConnection admin_;
  std::unique_ptr<FlavorLogReader> reader_;
  int threads_ = 1;
  std::unique_ptr<util::ThreadPool> pool_;
  RepairCostParams costs_;
  // ComputeUndoSet is logically const; timing it is bookkeeping.
  mutable RepairPhaseStats phases_;
};

}  // namespace irdb::repair
