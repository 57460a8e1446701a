// Shared pieces of the irbench harness: the run's outcome (metrics, operation
// counts, failed checks), sample statistics, the client-side connection
// decorators, and the output checks that are computed apart from the program.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/resilient_db.h"
#include "tpcc/config.h"
#include "tpcc/workload.h"

namespace irbench {

using irdb::DbConnection;
using irdb::Result;
using irdb::ResultSet;
using irdb::Status;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0);
double MicrosSince(Clock::time_point t0);

// Time of the process's start (taken during static initialisation).
Clock::time_point ProcessStart();

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = "irbench-out";  // traced runs write their files here
};

// What one run reports: the metrics in print order, the operation counts,
// and every failed output check.
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> errors;

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  std::string Json() const;
};

// Nearest-rank quantile (q in [0,1]) of `v`; 0 when empty.
double Quantile(std::vector<double> v, double q);
double Median(const std::vector<double>& v);
// Peak resident set size of this process, MiB.
double PeakRssMb();

// The paper's Fig. 1 deployment every workload uses: Postgres flavor, the
// client-side tracking proxy, the serial repair pipeline.
irdb::DeploymentOptions Fig1();

// TPC-C scale of the OLTP workloads: ten districts per warehouse (clause
// 4.2.2; condition 1 of clause 3.3.2 needs it, since the loader gives every
// district a tenth of W_YTD) and `mult` times the per-district cardinalities
// of TpccConfig::Scaled.
irdb::tpcc::TpccConfig TpccScale(int warehouses, int mult, uint64_t seed);

struct LayerClock;

// Per-transaction latencies of a mix run, whole transaction with retries.
struct MixSamples {
  std::vector<double> all_us, new_order_us, payment_us, stock_level_us;
  int64_t committed = 0;
  int64_t failed = 0;
  std::string first_error;

  void Merge(const MixSamples& o);
};

// Start of a traced phase: drops the spans and decorator counts recorded so
// far (set-up) so that both cover only the phase. No-op when untraced.
void StartTracedPhase(bool trace, LayerClock* clock);

// Runs one clause 5.2.3 mix transaction to its commit. After a deadlock
// abort the same transaction (same random inputs) is run again; other
// failures are counted and end the attempt. `txn_seq` labels the span of
// the transaction when tracing.
void RunMixTxn(irdb::tpcc::TpccDriver* driver, MixSamples* s, bool trace,
               int64_t txn_seq);

// Adds txn_per_s, the latency quantiles and the per-type medians.
void ReportMix(const MixSamples& s, double elapsed_s, Outcome* out,
               const std::string& prefix = "");

// The connection a TPC-C terminal talks to: counts the explicit commits
// that succeeded, each of which must leave exactly one tr_id in trans_dep.
class Terminal : public DbConnection {
 public:
  explicit Terminal(DbConnection* inner) : inner_(inner) {}

  Result<ResultSet> Execute(std::string_view sql) override;
  void SetAnnotation(std::string_view label) override {
    inner_->SetAnnotation(label);
  }
  std::string Describe() const override {
    return "terminal(" + inner_->Describe() + ")";
  }

  int64_t commits() const { return commits_; }

 private:
  DbConnection* inner_;
  int64_t commits_ = 0;
};

// Span and time accumulators filled by the traced runs' decorators. Thread
// safe: on serve_tcp the server-side decorators run on executor threads.
struct LayerClock {
  std::mutex mu;
  int64_t client_stmts = 0;
  double client_us = 0;
  int64_t backend_stmts = 0;
  double backend_us = 0;
  std::map<std::string, std::vector<double>> engine_us;  // by statement kind
  int64_t frames = 0;  // wire round trips sent by the clients
  double frame_rtt_us = 0;
  int64_t frame_bytes = 0;  // request + response bytes
  int64_t server_frames = 0;  // in-process only: DbServer::Handle calls
  double server_us = 0;
  std::vector<std::string> captured_sql;  // client statement texts (capped)

  static constexpr size_t kMaxCaptured = 20000;

  void Reset();
};

// Client -> proxy boundary: times each client statement and keeps its text.
class TimedClient : public DbConnection {
 public:
  TimedClient(DbConnection* inner, LayerClock* clock)
      : inner_(inner), clock_(clock) {}
  Result<ResultSet> Execute(std::string_view sql) override;
  void SetAnnotation(std::string_view label) override {
    inner_->SetAnnotation(label);
  }
  std::string Describe() const override { return inner_->Describe(); }

 private:
  DbConnection* inner_;
  LayerClock* clock_;
};

// Proxy -> backend boundary: times each backend statement. With
// `engine_kinds` the times are also the engine's per-kind times (the backend
// is the engine itself, as in the server-side proxy of serve_tcp).
class TimedBackend : public DbConnection {
 public:
  TimedBackend(DbConnection* inner, LayerClock* clock, bool engine_kinds)
      : inner_(inner), clock_(clock), engine_kinds_(engine_kinds) {}
  Result<ResultSet> Execute(std::string_view sql) override;
  Result<ResultSet> Execute(const irdb::sql::Statement& stmt) override;
  std::string Describe() const override { return inner_->Describe(); }

 private:
  void Record(const char* kind, double us);
  DbConnection* inner_;
  LayerClock* clock_;
  bool engine_kinds_;
};

// Client side of the wire: times each round trip and counts its bytes.
class TimedChannel : public irdb::Channel {
 public:
  TimedChannel(irdb::Channel* inner, LayerClock* clock)
      : inner_(inner), clock_(clock) {}
  Result<std::string> RoundTrip(std::string_view request) override;
  irdb::VirtualClock* clock() override { return inner_->clock(); }

 private:
  irdb::Channel* inner_;
  LayerClock* clock_;
};

// The client connection of the paper's Fig. 1 deployment. Untraced it is
// ResilientDb::Connect() under ProxyArch::kSingleProxy; traced it is the
// same stack rebuilt from its public classes with a timing decorator at
// each boundary: TimedClient -> TrackingProxy -> TimedBackend ->
// RemoteConnection -> TimedChannel -> LoopbackChannel -> timed DbServer.
class InProcessStack {
 public:
  // `clock` == nullptr opens the untraced connection.
  static Result<std::unique_ptr<InProcessStack>> Open(irdb::ResilientDb* rdb,
                                                      LayerClock* clock);
  DbConnection* top() { return top_; }

 private:
  InProcessStack(irdb::ResilientDb* rdb, LayerClock* clock);

  LayerClock* clock_;
  irdb::DbServer server_;
  irdb::LoopbackChannel loopback_;
  TimedChannel channel_;
  std::unique_ptr<DbConnection> plain_;  // untraced
  std::unique_ptr<irdb::RemoteConnection> remote_;
  std::unique_ptr<TimedBackend> backend_;
  std::unique_ptr<irdb::proxy::TrackingProxy> proxy_;
  std::unique_ptr<TimedClient> client_;
  DbConnection* top_ = nullptr;
};

// Engine kind a statement text or AST falls into: "select", "insert",
// "update", "commit" or "other".
const char* StmtKind(std::string_view sql);
const char* StmtKind(const irdb::sql::Statement& stmt);

// Registry counter values, read before and after a phase.
struct CounterSnap {
  std::map<std::string, int64_t> v;
  static CounterSnap Take();
  int64_t Delta(const CounterSnap& before, const std::string& name) const {
    return v.at(name) - before.v.at(name);
  }
};

// The registry, buffer-pool and log-size deltas and the wall time of a
// run's forward phase, which may be split into segments: only what runs
// between Start() and Stop() counts. The log size is taken in traced runs
// only (it serializes the whole log).
class PhaseMeter {
 public:
  PhaseMeter(const irdb::Database* db, bool trace) : db_(db), trace_(trace) {}
  void Start();
  void Stop();

  double seconds() const { return seconds_; }
  int64_t Count(const std::string& name) const;  // registry delta
  const irdb::BufferPoolStats& pool() const { return pool_; }
  int64_t wal_records() const { return wal_records_; }
  int64_t wal_bytes() const { return wal_bytes_; }

 private:
  const irdb::Database* db_;
  bool trace_;
  CounterSnap start_;
  irdb::BufferPoolStats pool_start_;
  int64_t wal_records_start_ = 0, wal_bytes_start_ = 0;
  Clock::time_point t0_;
  double seconds_ = 0;
  std::map<std::string, int64_t> counts_;
  irdb::BufferPoolStats pool_;
  int64_t wal_records_ = 0, wal_bytes_ = 0;
};

// The traced run's per-layer metrics of a forward phase of `txns`
// transactions: proxy, storage, concurrency and log counts from `m`; wire,
// proxy and engine times from `clock`; sql times over the captured texts.
// Also the count cross-checks of `clock` against the registry deltas.
void ReportPhaseLayers(LayerClock* clock, const PhaseMeter& m, int64_t txns,
                       Outcome* out);

// The TPC-C consistency conditions 1-3 of clause 3.3.2, by the harness's
// own SELECTs through an untracked connection.
void CheckTpccConsistency(DbConnection* admin, const std::string& when,
                          Outcome* out);

// trans_dep holds exactly one distinct tr_id per commit the harness counted,
// and tracking_gaps is empty.
void CheckTracking(DbConnection* admin, int64_t expected_commits,
                   Outcome* out);

// Runs `sql` and returns its rows; a failure is recorded as a failed check.
std::vector<std::vector<irdb::Value>> Rows(DbConnection* conn,
                                           const std::string& sql,
                                           Outcome* out);

// Writes `text` to `path`, creating the directory; false on failure.
bool WriteFile(const std::string& path, const std::string& text);

// One offline selective undo of paper §3.3 with the serial pipeline, timed
// from outside: a few Analyze() calls on the quiesced log, then one
// Analyze -> ComputeUndoSet -> CompensateUndoSet (DbaPolicy::TrackEverything)
// seeded with the latest committed transaction whose label starts with
// `seed_label`. A failure is recorded as a failed check and leaves ok false.
struct UndoRun {
  std::set<int64_t> undo;
  int64_t seed = 0;
  bool ok = false;
  std::vector<double> analyze_ms;
  double undo_ms = 0;
  Outcome layers;  // the repair.* figures of this undo
};
UndoRun TimedUndo(irdb::ResilientDb* rdb, const std::string& seed_label,
                  bool trace, Outcome* out);

// repair.analyze_ms is the median over every Analyze() call of `runs`,
// repair.undo_ms and the other repair.* figures the medians over the undos.
void ReportUndos(const std::vector<UndoRun>& runs, Outcome* out);

// Writes the traced run's Chrome trace and per-layer JSON under opt.out_dir.
void WriteTraceFiles(const Options& opt, const Outcome& out);

// Outcomes of the two workloads.
Outcome RunOltpMix(const Options& opt);
Outcome RunServeTcp(const Options& opt);

}  // namespace irbench
