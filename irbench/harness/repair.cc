// The offline selective undo every workload ends with, timed from outside.
#include <optional>

#include "common.h"
#include "obs/trace.h"

namespace irbench {
namespace {

using irdb::ResilientDb;
using irdb::repair::DependencyAnalysis;

// Analyze() calls before each undo; repair.analyze_ms is their median.
constexpr int kAnalyzeCalls = 3;

// The latest committed transaction whose label starts with `prefix`, or 0.
int64_t LatestLabelled(const DependencyAnalysis& a, const std::string& prefix) {
  for (auto it = a.proxy_to_internal.rbegin();
       it != a.proxy_to_internal.rend(); ++it) {
    if (a.graph.Label(it->first).rfind(prefix, 0) == 0) return it->first;
  }
  return 0;
}

}  // namespace

UndoRun TimedUndo(ResilientDb* rdb, const std::string& seed_label, bool trace,
                  Outcome* out) {
  UndoRun run;
  irdb::repair::RepairEngine& eng = rdb->repair();
  for (int i = 0; i < kAnalyzeCalls; ++i) {
    const Clock::time_point t0 = Clock::now();
    auto a = eng.Analyze();
    run.analyze_ms.push_back(1e3 * SecondsSince(t0));
    if (!a.ok()) {
      out->Check(false, "Analyze: " + a.status().ToString());
      return run;
    }
  }

  std::optional<irdb::obs::Span> repair_span;
  if (trace) {
    irdb::obs::SpanTracer::Default().set_enabled(true);
    repair_span.emplace("irbench.repair");
  }
  const CounterSnap before = CounterSnap::Take();
  const Clock::time_point t0 = Clock::now();
  std::optional<irdb::obs::Span> span;
  if (trace) span.emplace("irbench.analyze");
  auto a = eng.Analyze();
  span.reset();
  if (!a.ok()) {
    out->Check(false, "Analyze: " + a.status().ToString());
    return run;
  }
  run.seed = LatestLabelled(*a, seed_label);
  if (trace) span.emplace("irbench.closure");
  const Clock::time_point t1 = Clock::now();
  run.undo = eng.ComputeUndoSet(*a, {run.seed},
                                irdb::repair::DbaPolicy::TrackEverything());
  const double closure_ms = 1e3 * SecondsSince(t1);
  span.reset();
  const CounterSnap mid = CounterSnap::Take();
  if (trace) span.emplace("irbench.compensate");
  const Clock::time_point t2 = Clock::now();
  auto report = eng.CompensateUndoSet(*a, run.undo);
  const double compensate_ms = 1e3 * SecondsSince(t2);
  run.undo_ms = 1e3 * SecondsSince(t0);
  span.reset();
  repair_span.reset();
  const CounterSnap after = CounterSnap::Take();
  out->Check(run.seed != 0, "no transaction labelled " + seed_label);
  if (!report.ok()) {
    out->Check(false, "CompensateUndoSet: " + report.status().ToString());
    return run;
  }
  out->Check(after.Delta(before, "irdb_txn_aborts_total") == 0,
             "the undo aborted a transaction");
  run.ok = run.seed != 0;

  const irdb::repair::RepairPhaseStats& ph = eng.phase_stats();
  const double stmts =
      static_cast<double>(std::max<int64_t>(ph.compensate_stmts, 1));
  Outcome& l = run.layers;
  l.Metric("repair.scan_ms", ph.scan_wall_ms, "ms");
  l.Metric("repair.correlate_ms", ph.correlate_wall_ms, "ms");
  l.Metric("repair.records_scanned", static_cast<double>(ph.records_scanned),
           "count");
  l.Metric("repair.closure_ms", closure_ms, "ms");
  l.Metric("repair.undo_txns", static_cast<double>(run.undo.size()), "count");
  l.Metric("repair.compensate_ms", compensate_ms, "ms");
  l.Metric("repair.compensate_stmts", static_cast<double>(ph.compensate_stmts),
           "count");
  l.Metric("repair.compensate_us_per_stmt", 1e3 * compensate_ms / stmts, "us");
  l.Metric("repair.compensate_heap_scans_per_stmt",
           static_cast<double>(after.Delta(mid, "irdb_heap_scans_total")) /
               stmts,
           "count");
  return run;
}

void ReportUndos(const std::vector<UndoRun>& runs, Outcome* out) {
  std::vector<double> analyze_ms, undo_ms;
  for (const UndoRun& r : runs) {
    if (!r.ok) return;
    analyze_ms.insert(analyze_ms.end(), r.analyze_ms.begin(),
                      r.analyze_ms.end());
    undo_ms.push_back(r.undo_ms);
  }
  if (runs.empty()) return;
  out->Metric("repair.analyze_ms", Median(analyze_ms), "ms");
  out->Metric("repair.undo_ms", Median(undo_ms), "ms");
  for (size_t i = 0; i < runs[0].layers.metrics.size(); ++i) {
    std::vector<double> v;
    for (const UndoRun& r : runs) v.push_back(r.layers.metrics[i].second.first);
    out->Metric(runs[0].layers.metrics[i].first, Median(v),
                runs[0].layers.metrics[i].second.second);
  }
}

}  // namespace irbench
