#include "repair/repair_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <map>
#include <thread>

#include "obs/catalog.h"
#include "obs/journal.h"
#include "obs/trace.h"
#include "txn/wal_codec.h"
#include "util/string_utils.h"

namespace irdb::repair {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

int64_t ImageBytes(const LogRecord& rec) {
  return static_cast<int64_t>(rec.before_image.size() +
                              rec.after_image.size() + rec.ddl_text.size());
}

// Drains in-flight holders of the quarantined slices: X-locks every slice
// through the lock manager under a throwaway transaction, which blocks
// until every transaction that held a lock overlapping the quarantine has
// committed or rolled back, then releases immediately — the rejection gate
// (already installed) keeps new entrants out, so the locks only need to
// prove the slices are quiet, not keep them so. Bounded deadlock retries:
// the drain can lose a waits-for cycle against a multi-statement client.
Status DrainQuarantinedSlices(Database* db) {
  const auto plan = db->quarantine().DrainPlan();  // in lock order
  Status last = Status::Ok();
  for (int attempt = 0; attempt < 16; ++attempt) {
    // Transactions already pinning a fenced slice would never release it
    // (the gate only fires on their next statement, which may never come):
    // roll them back here so the X-pass below cannot wait on a dead hand.
    (void)db->EvictQuarantinePinnedTxns();
    const int64_t txn = db->AllocateTxnId();
    db->txn_manager().Begin(txn);
    Status st = Status::Ok();
    for (const auto& [res, mode] : plan) {
      st = db->txn_manager().locks().Acquire(txn, res, mode);
      if (!st.ok()) break;
    }
    db->txn_manager().Abort(txn);  // release everything either way
    if (st.ok()) return st;
    if (st.code() != StatusCode::kAborted) return st;
    last = std::move(st);
    std::this_thread::sleep_for(std::chrono::milliseconds(1 + attempt));
  }
  return last;
}

}  // namespace

void RepairEngine::set_threads(int threads) {
  threads_ = std::max(1, threads);
  obs::SetGauge(obs::Metrics::Get().repair_threads, threads_);
  if (threads_ <= 1) {
    pool_.reset();
  } else if (!pool_ || pool_->lanes() != threads_) {
    pool_ = std::make_unique<util::ThreadPool>(threads_);
  }
}

Result<DependencyAnalysis> RepairEngine::Analyze() {
  phases_ = RepairPhaseStats{};
  phases_.threads = threads_;
  obs::Count(obs::Metrics::Get().repair_runs);
  obs::Span analyze(obs::span::kRepairAnalyze);
  analyze.AddArg("records", static_cast<int64_t>(db_->wal().records().size()));
  analyze.AddArg("threads", threads_);

  if (pool_) {
    // Durable-bytes leg of the segmented scan: frame-split the serialized
    // WAL and decode the segments concurrently. The decoded records are the
    // same content as the in-memory log, handed to the reader as its scan
    // source; if the bytes carry a torn tail (only possible under fault
    // injection) the live WAL stays authoritative and the reader scans it
    // directly instead.
    obs::Span scan(obs::span::kRepairScanWalDecode);
    const std::string bytes = SerializeWal(db_->wal());
    scan.AddArg("bytes", static_cast<int64_t>(bytes.size()));
    IRDB_ASSIGN_OR_RETURN(WalDecodeResult decoded,
                          DecodeWalParallel(bytes, pool_.get()));
    if (!decoded.truncated_tail &&
        decoded.records.size() == db_->wal().records().size()) {
      reader_->set_scan_override(std::move(decoded.records));
    } else {
      reader_->clear_scan_override();
    }
    // The span's own measurement feeds the phase accumulator and the
    // registry, so the trace always sums to RepairPhaseStats.
    const double ms = scan.End();
    phases_.scan_wall_ms += ms;
    obs::Count(obs::Metrics::Get().repair_scan_us, std::llround(ms * 1000.0));
  } else {
    reader_->clear_scan_override();
  }

  auto analysis = repair::Analyze(reader_.get(), &admin_, pool_.get(), &phases_);
  reader_->clear_scan_override();
  if (!analysis.ok()) return analysis.status();

  // Simulated scan charge: sequential log read + per-record image decoding,
  // split into the same contiguous segments the parallel scan uses. Lanes
  // run concurrently, so the parallel charge is the largest segment's.
  const std::vector<LogRecord>& records = db_->wal().records();
  phases_.records_scanned = static_cast<int64_t>(records.size());
  for (const LogRecord& rec : records) {
    phases_.image_bytes_scanned += ImageBytes(rec);
  }
  const auto segments = util::ThreadPool::SplitRange(
      static_cast<int64_t>(records.size()), threads_);
  phases_.scan_segments = std::max<int>(1, static_cast<int>(segments.size()));
  double max_segment_s = 0, total_s = 0;
  for (const auto& [begin, end] : segments) {
    double segment_s = 0;
    for (int64_t i = begin; i < end; ++i) {
      segment_s +=
          costs_.scan_record_seconds +
          costs_.scan_byte_seconds *
              static_cast<double>(ImageBytes(records[static_cast<size_t>(i)]));
    }
    max_segment_s = std::max(max_segment_s, segment_s);
    total_s += segment_s;
  }
  phases_.scan_sim_ms += (threads_ > 1 ? max_segment_s : total_s) * 1000.0;
  obs::Count(obs::Metrics::Get().repair_records_scanned,
             phases_.records_scanned);
  obs::Count(obs::Metrics::Get().repair_scan_sim_us,
             std::llround(phases_.scan_sim_ms * 1000.0));
  obs::EventJournal::Default().Append(
      obs::event::kRepairAnalyzeDone,
      {{"records", std::to_string(phases_.records_scanned)},
       {"nodes", std::to_string(analysis->graph.nodes().size())},
       {"edges", std::to_string(analysis->graph.edges().size())},
       {"gaps", std::to_string(analysis->tracking_gaps.size())}});
  return analysis;
}

std::set<int64_t> RepairEngine::ComputeUndoSet(
    const DependencyAnalysis& analysis,
    const std::vector<int64_t>& seed_proxy_ids, const DbaPolicy& policy) const {
  obs::Span span(obs::span::kRepairClosure);
  span.AddArg("seeds", static_cast<int64_t>(seed_proxy_ids.size()));
  std::set<int64_t> out =
      analysis.graph.Affected(seed_proxy_ids, policy.AsFilter(), pool_.get());
  span.AddArg("undo", static_cast<int64_t>(out.size()));
  const double ms = span.End();
  phases_.closure_wall_ms += ms;
  obs::Count(obs::Metrics::Get().repair_closure_us, std::llround(ms * 1000.0));
  return out;
}

Result<RepairReport> RepairEngine::CompensateUndoSet(
    const DependencyAnalysis& analysis, const std::set<int64_t>& undo) {
  obs::Span span(obs::span::kRepairCompensate);
  RepairReport report;
  IRDB_RETURN_IF_ERROR(Compensate(analysis, undo, &admin_, db_->traits(),
                                  &report, pool_.get(), db_));
  span.AddArg("stmts", report.ops_compensated);
  span.AddArg("lanes", report.compensate_lanes);
  const double wall_ms = span.End();
  phases_.compensate_wall_ms += wall_ms;
  phases_.compensate_lanes = report.compensate_lanes;
  phases_.compensate_stmts += report.ops_compensated;
  obs::Count(obs::Metrics::Get().repair_compensate_us,
             std::llround(wall_ms * 1000.0));
  obs::Count(obs::Metrics::Get().repair_compensations, report.ops_compensated);

  // Simulated compensation charge: one random page read + log append per
  // compensating statement. The parallel path runs one lane per table, so
  // its charge is the makespan of the per-table batch costs over `threads_`
  // lanes under the deterministic longest-batch-first assignment; the serial
  // path pays the sum.
  std::set<int64_t> undo_internal;
  for (int64_t proxy_id : undo) {
    auto it = analysis.proxy_to_internal.find(proxy_id);
    if (it != analysis.proxy_to_internal.end()) undo_internal.insert(it->second);
  }
  std::map<std::string, int64_t> stmts_per_table;
  for (const RepairOp& op : analysis.ops) {
    if (undo_internal.count(op.internal_txn_id)) {
      ++stmts_per_table[ToLowerAscii(op.table)];
    }
  }
  double sim_s = 0;
  if (threads_ <= 1) {
    for (const auto& [table, n] : stmts_per_table) {
      sim_s += static_cast<double>(n) * costs_.compensate_stmt_seconds;
    }
  } else {
    std::vector<std::pair<int64_t, std::string>> batches;
    for (const auto& [table, n] : stmts_per_table) batches.emplace_back(n, table);
    std::sort(batches.begin(), batches.end(),
              [](const auto& a, const auto& b) {
                return a.first != b.first ? a.first > b.first
                                          : a.second < b.second;
              });
    std::vector<double> lane_s(static_cast<size_t>(threads_), 0.0);
    for (const auto& [n, table] : batches) {
      auto lane = std::min_element(lane_s.begin(), lane_s.end());
      *lane += static_cast<double>(n) * costs_.compensate_stmt_seconds;
    }
    sim_s = *std::max_element(lane_s.begin(), lane_s.end());
  }
  phases_.compensate_sim_ms += sim_s * 1000.0;
  obs::Count(obs::Metrics::Get().repair_compensate_sim_us,
             std::llround(sim_s * 1000.0 * 1000.0));
  obs::EventJournal::Default().Append(
      obs::event::kRepairDone,
      {{"undone", std::to_string(undo.size())},
       {"stmts", std::to_string(report.ops_compensated)}});
  return report;
}

Result<OnlineRepairReport> RepairEngine::RepairOnline(
    const std::vector<int64_t>& seed_proxy_ids, const DbaPolicy& policy) {
  if (db_->serial_mode()) {
    return Status::FailedPrecondition(
        "online repair needs key locks; serial mode locks the whole "
        "database (serial_mode off)");
  }
  // Claim the single online-repair slot; an overlapping repair is rejected
  // here with kFailedPrecondition and holds nothing.
  IRDB_RETURN_IF_ERROR(db_->quarantine().Begin());
  obs::Count(obs::Metrics::Get().repair_online_runs);
  db_->SetSessionQuarantineExempt(admin_.session_id(), true);
  const int64_t rejects_before = db_->quarantine().stats().rejects_total;

  OnlineRepairReport out;
  DependencyAnalysis analysis;
  std::set<int64_t> undo;
  ContaminatedPartition part;

  // Fixpoint: install → drain → re-analyze until the undo set stops
  // growing. Round N's drain guarantees every write that raced round N's
  // fence is durable in the log, so round N+1's analysis sees it; once two
  // consecutive rounds agree, nothing can still be missing.
  {
    obs::Span compute(obs::span::kQuarantineCompute);
    std::set<int64_t> prev;
    bool stable = false;
    static constexpr int kMaxRounds = 8;
    for (out.rounds = 1; out.rounds <= kMaxRounds; ++out.rounds) {
      auto a = Analyze();
      if (!a.ok()) {
        db_->quarantine().End();  // nothing healed, nothing fenced: safe
        return a.status();
      }
      analysis = std::move(*a);
      undo = ComputeUndoSet(analysis, seed_proxy_ids, policy);
      part = ComputeContaminatedPartition(db_, analysis, undo);
      db_->quarantine().Add(part.slices);
      if (undo.empty() && part.slices.empty()) {
        stable = true;  // empty closure: nothing to fence, nothing to drain
        break;
      }
      if (out.rounds > 1 && undo == prev) {
        stable = true;
        break;
      }
      prev = undo;
      if (Status st = DrainQuarantinedSlices(db_); !st.ok()) {
        db_->quarantine().End();
        return st;
      }
    }
    if (!stable) {
      db_->quarantine().End();
      return Status::Internal(
          "online repair: undo set did not stabilize after 8 rounds "
          "(sustained contaminated-slice traffic?)");
    }
    out.slices_installed = static_cast<int>(part.slices.size());
    out.whole_table_slices = static_cast<int>(part.whole_tables.size());
    out.key_bucket_slices = part.key_buckets;
    out.fallback_whole_tables = part.fallback_whole_tables;
    compute.AddArg("slices", out.slices_installed);
    compute.AddArg("tables", static_cast<int64_t>(part.table_ids.size()));
    compute.AddArg("rounds", out.rounds);
  }
  obs::EventJournal::Default().Append(
      obs::event::kQuarantineInstalled,
      {{"slices", std::to_string(out.slices_installed)},
       {"tables", std::to_string(part.table_ids.size())},
       {"round", std::to_string(out.rounds)}});

  obs::Span hold(obs::span::kQuarantineHold);
  hold.AddArg("slices", out.slices_installed);

  auto batches =
      BuildCompensationBatches(analysis, undo, &part.op_keys);
  if (!batches.ok()) {
    db_->quarantine().End();  // nothing compensated yet
    return batches.status();
  }
  out.lanes = static_cast<int>(batches->size());
  out.repair.undo_set = undo;
  out.repair.compensate_lanes = std::max(1, out.lanes);

  // One lane per table, each a transaction on its own gate-exempt
  // connection; a table's slices leave the quarantine when its lane
  // commits. Bounded deadlock retries per lane (a metadata lane's coarse
  // lock can lose a cycle against a tracked commit); any other failure
  // leaves the lane's tables fenced and surfaces the error.
  std::vector<Status> lane_status(batches->size(), Status::Ok());
  std::vector<RepairReport> lane_report(batches->size());
  std::atomic<int> released{0};
  auto run_lane = [&](size_t idx) {
    const CompensationBatch& batch = (*batches)[idx];
    obs::Span lane_span(obs::span::kRepairCompensateLane);
    lane_span.AddArg("lane", static_cast<int64_t>(idx));
    lane_span.AddArg("tables", 1);
    lane_span.AddArg("stmts", static_cast<int64_t>(batch.ops.size()));
    Status st = Status::Ok();
    for (int attempt = 0; attempt < 3; ++attempt) {
      DirectConnection conn(db_);
      db_->SetSessionQuarantineExempt(conn.session_id(), true);
      lane_report[idx] = RepairReport{};
      auto begin = conn.Execute("BEGIN");
      if (!begin.ok()) {
        st = begin.status();
        break;
      }
      st = CompensateBatch(batch, &conn, db_->traits(), &lane_report[idx]);
      if (st.ok()) {
        auto commit = conn.Execute("COMMIT");
        st = commit.ok() ? Status::Ok() : commit.status();
      } else {
        (void)conn.Execute("ROLLBACK");
      }
      if (st.ok() || st.code() != StatusCode::kAborted) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1 + attempt));
    }
    lane_status[idx] = st;
    if (!st.ok()) return;
    // Healed: release the table's slices. Metadata tables were never
    // installed, so their release count is 0 — the lane still ran.
    auto id = part.table_ids.find(batch.table);
    if (id != part.table_ids.end()) {
      obs::Span rel(obs::span::kQuarantineRelease);
      const int n = db_->quarantine().ReleaseTable(id->second);
      released.fetch_add(n, std::memory_order_relaxed);
      rel.AddArg("table", batch.table);
      rel.AddArg("slices", n);
      if (n > 0) {
        obs::Count(obs::Metrics::Get().repair_online_releases, n);
        obs::EventJournal::Default().Append(
            obs::event::kQuarantineReleased,
            {{"table", batch.table},
             {"slices", std::to_string(n)},
             {"remaining",
              std::to_string(db_->quarantine().stats().slices)}});
      }
    }
  };
  if (pool_ && batches->size() > 1) {
    std::vector<std::future<void>> pending;
    pending.reserve(batches->size());
    for (size_t i = 0; i < batches->size(); ++i) {
      pending.push_back(pool_->Submit([&, i] { run_lane(i); }));
    }
    for (auto& f : pending) f.wait();
  } else {
    for (size_t i = 0; i < batches->size(); ++i) run_lane(i);
  }

  for (const RepairReport& part_report : lane_report) {
    out.repair.ops_compensated += part_report.ops_compensated;
    out.repair.compensating_inserts += part_report.compensating_inserts;
    out.repair.compensating_deletes += part_report.compensating_deletes;
    out.repair.compensating_updates += part_report.compensating_updates;
    out.repair.rows_remapped += part_report.rows_remapped;
  }
  out.slices_released = released.load(std::memory_order_relaxed);
  out.rejects_during =
      db_->quarantine().stats().rejects_total - rejects_before;
  hold.AddArg("released", out.slices_released);
  hold.End();

  for (const Status& st : lane_status) {
    // First failing lane in deterministic batch order wins; unhealed
    // tables stay quarantined (see header contract).
    if (!st.ok()) return st;
  }
  db_->quarantine().End();
  obs::EventJournal::Default().Append(
      obs::event::kRepairDone,
      {{"undone", std::to_string(undo.size())},
       {"stmts", std::to_string(out.repair.ops_compensated)}});
  return out;
}

Result<RepairReport> RepairEngine::Repair(
    const std::vector<int64_t>& seed_proxy_ids, const DbaPolicy& policy) {
  if (policy.strategy() == RepairStrategy::kReenact) {
    IRDB_ASSIGN_OR_RETURN(ReenactReport reenacted,
                          RepairReenact(seed_proxy_ids, policy));
    return reenacted.repair;
  }
  const auto start = Clock::now();
  IRDB_ASSIGN_OR_RETURN(DependencyAnalysis analysis, Analyze());
  std::set<int64_t> undo = ComputeUndoSet(analysis, seed_proxy_ids, policy);
  auto report = CompensateUndoSet(analysis, undo);
  if (report.ok()) {
    obs::Observe(obs::Metrics::Get().repair_run_latency, MsSince(start));
  }
  return report;
}

Result<ReenactReport> RepairEngine::RepairReenact(
    const std::vector<int64_t>& seed_proxy_ids, const DbaPolicy& policy) {
  const auto start = Clock::now();
  obs::Count(obs::Metrics::Get().reenact_runs);
  obs::Span run(obs::span::kReenact);
  run.AddArg("seeds", static_cast<int64_t>(seed_proxy_ids.size()));
  run.AddArg("threads", threads_);

  IRDB_ASSIGN_OR_RETURN(DependencyAnalysis analysis, Analyze());
  ReenactReport out;
  out.closure = ComputeUndoSet(analysis, seed_proxy_ids, policy);
  // Mechanical undo of the ENTIRE closure: this is the state "history minus
  // the closure", the baseline every replay recomputes against. Selective
  // effects come from the replay, not from a selective compensation.
  IRDB_ASSIGN_OR_RETURN(out.repair, CompensateUndoSet(analysis, out.closure));

  obs::Span replay(obs::span::kReenactReplay);
  const ReenactPlan plan = PlanReenact(analysis, out.closure, seed_proxy_ids,
                                       policy, db_->stmt_journal());
  ExecuteReenactPlan(db_, analysis, policy, db_->stmt_journal(), plan,
                     pool_.get(), &out);
  replay.AddArg("txns", static_cast<int64_t>(plan.replay_order.size()));
  replay.AddArg("components", out.components);
  replay.AddArg("lanes", out.replay_lanes);
  const double replay_ms = replay.End();
  phases_.replay_wall_ms += replay_ms;
  phases_.replay_stmts += out.stmts_replayed;
  phases_.replay_components = out.components;
  obs::Count(obs::Metrics::Get().reenact_replay_us,
             std::llround(replay_ms * 1000.0));

  // What STAYED undone: the seeds plus every demotion. The full closure was
  // compensated, but the replayed members' effects are back.
  out.repair.undo_set =
      std::set<int64_t>(seed_proxy_ids.begin(), seed_proxy_ids.end());
  for (const auto& [id, reason] : out.demoted) {
    out.repair.undo_set.insert(id);
    obs::EventJournal::Default().Append(
        obs::event::kReenactDemoted,
        {{"trid", std::to_string(id)}, {"reason", DemoteReasonName(reason)}});
  }

  obs::Count(obs::Metrics::Get().reenact_replayed_txns,
             static_cast<int64_t>(out.replayed.size()));
  obs::Count(obs::Metrics::Get().reenact_demoted_txns,
             static_cast<int64_t>(out.demoted.size()));
  obs::Count(obs::Metrics::Get().reenact_diverged_txns, out.diverged);
  obs::Count(obs::Metrics::Get().reenact_stmts_replayed, out.stmts_replayed);
  obs::Count(obs::Metrics::Get().reenact_components, out.components);
  obs::EventJournal::Default().Append(
      obs::event::kReenactDone,
      {{"closure", std::to_string(out.closure.size())},
       {"replayed", std::to_string(out.replayed.size())},
       {"demoted", std::to_string(out.demoted.size())},
       {"diverged", std::to_string(out.diverged)}});
  obs::Observe(obs::Metrics::Get().reenact_run_latency, MsSince(start));
  obs::Observe(obs::Metrics::Get().repair_run_latency, MsSince(start));
  return out;
}

}  // namespace irdb::repair
