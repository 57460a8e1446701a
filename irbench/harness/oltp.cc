// The two OLTP workloads: the TPC-C mix through the in-process Fig. 1 stack
// (oltp_mix) and through the TCP front-end with server-side tracking
// (serve_tcp). Both end, with the engine quiesced, with kUndos offline
// undos of an attack, which give the repair layer's figures on the history
// the workload itself produced.
#include <algorithm>
#include <cmath>
#include <latch>
#include <thread>

#include "common.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "tpcc/loader.h"

namespace irbench {
namespace {

using irdb::ResilientDb;

// A run's work is fixed: --seconds times the workload's nominal rate (about
// its throughput on the reference host) transactions. Every run then does
// the same work and grows the same state, so log size, memory and the undos
// do not follow the host's speed.

// oltp_mix: W=4 at 4x the Scaled cardinalities; the buffer pool is capped
// at a quarter of the loaded data pages, so storage works beyond its cache.
constexpr int kMixWarehouses = 4;
constexpr int kMixScale = 4;
constexpr double kMixPoolShare = 0.25;
constexpr int64_t kMixNominalTxnPerS = 900;

// serve_tcp: one connection (and one executor thread) per warehouse, each
// terminal pinned to its home warehouse; the pool is not capped.
constexpr int kTcpClients = 2;
constexpr int kTcpScale = 4;
constexpr int64_t kTcpNominalTxnPerS = 450;

// Transactions per run (per client on serve_tcp).
int64_t RunTxns(const Options& opt, int64_t nominal_per_s, int clients) {
  const int64_t total = std::llround(opt.seconds * nominal_per_s);
  return std::max<int64_t>(1, total / clients);
}

// Offline undos at the end of a run; the repair.* figures are medians over
// them.
constexpr int kUndos = 3;

// Every table, the tracking side tables included.
const std::vector<std::string> kTables = {
    "warehouse", "district",   "customer", "history",   "new_order",
    "orders",    "order_line", "item",     "stock",     "trans_dep",
    "annot",     "tracking_gaps"};

// The tables' contents, trid and (Sybase) rid columns left out.
uint64_t State(ResilientDb* rdb) {
  return rdb->db().StateHash(kTables, {"trid", "rid"});
}

// The DBA's side of a run: an attack (AttackInflateBalance on a seeded
// customer) commits through a tracked connection and is undone offline.
// Nothing runs after the attack, so its undo set is the attack alone and
// the undo's work is the same in every run: analyzing the whole log and
// compensating four row writes.
class Dba {
 public:
  Dba(ResilientDb* rdb, const irdb::tpcc::TpccConfig& cfg, uint64_t seed)
      : rdb_(rdb), cfg_(cfg), victim_(seed ^ 0x5eedull) {
    auto conn = rdb->Connect();
    if (conn.ok()) conn_ = std::move(*conn);
  }

  void AttackAndUndo(bool trace, Outcome* out) {
    out->attempted += 2;  // the attack and its undo
    if (conn_ == nullptr) {
      out->failed += 2;
      out->Check(false, "attacker connection failed");
      return;
    }
    const uint64_t clean = State(rdb_);
    irdb::tpcc::TpccDriver attacker(conn_.get(), cfg_, 1);
    const int w = static_cast<int>(victim_.Uniform(1, cfg_.warehouses));
    const int d =
        static_cast<int>(victim_.Uniform(1, cfg_.districts_per_warehouse));
    const int c =
        static_cast<int>(victim_.Uniform(1, cfg_.customers_per_district));
    if (!attacker.AttackInflateBalance(w, d, c, 5.0e5).ok()) {
      out->failed += 2;
      out->Check(false, "attack transaction failed");
      return;
    }
    UndoRun run = TimedUndo(rdb_, "Attack_", trace, out);
    out->failed += run.ok ? 0 : 1;
    out->Check(run.undo == std::set<int64_t>{run.seed},
               "the undo set of the last transaction is not just the attack");
    // Oracle: the attack was the last transaction, so the history minus the
    // undo set is the state the attack found.
    out->Check(State(rdb_) == clean,
               "the undone state differs from the state before the attack");
    undos.push_back(std::move(run));
  }

  std::vector<UndoRun> undos;

 private:
  ResilientDb* rdb_;
  irdb::tpcc::TpccConfig cfg_;
  irdb::Rng victim_;
  std::unique_ptr<DbConnection> conn_;
};

// Checks, undos and reports both OLTP workloads share once the timed phase
// is over and the engine is quiesced.
void Finish(const Options& opt, ResilientDb* rdb,
            const irdb::tpcc::TpccConfig& cfg, const MixSamples& s,
            const PhaseMeter& meter, int64_t expected_commits,
            LayerClock* clock, Outcome* out) {
  out->attempted += s.committed + s.failed;
  out->failed += s.failed;
  out->Check(s.failed == 0, "mix transactions failed: " + s.first_error);
  ReportMix(s, meter.seconds(), out, opt.trace ? "trace." : "");
  if (opt.trace) ReportPhaseLayers(clock, meter, s.committed, out);
  CheckTpccConsistency(rdb->Admin(), "after the run", out);
  CheckTracking(rdb->Admin(), expected_commits, out);
  Dba dba(rdb, cfg, opt.seed);
  for (int k = 0; k < kUndos; ++k) dba.AttackAndUndo(opt.trace, out);
  ReportUndos(dba.undos, out);
  CheckTpccConsistency(rdb->Admin(), "after the undos", out);
  out->Metric("peak_rss_mb", PeakRssMb(), "MiB");
}

}  // namespace

Outcome RunOltpMix(const Options& opt) {
  Outcome out;
  ResilientDb rdb(Fig1());
  LayerClock clock;
  const irdb::tpcc::TpccConfig cfg =
      TpccScale(kMixWarehouses, kMixScale, opt.seed);
  auto fail = [&](const Status& s) {
    out.Check(false, "oltp_mix set-up: " + s.ToString());
    return out;
  };
  if (Status s = rdb.Bootstrap(); !s.ok()) return fail(s);
  auto stack = InProcessStack::Open(&rdb, opt.trace ? &clock : nullptr);
  if (!stack.ok()) return fail(stack.status());
  Terminal term((*stack)->top());
  if (auto l = irdb::tpcc::LoadDatabase(&term, cfg); !l.ok()) {
    return fail(l.status());
  }
  const size_t data_pages = rdb.db().buffer_pool().stats().resident;
  rdb.db().buffer_pool().set_capacity(
      static_cast<size_t>(kMixPoolShare * static_cast<double>(data_pages)));
  irdb::tpcc::TpccDriver driver(&term, cfg, opt.seed * 7919 + 1);
  out.Metric("setup_s", SecondsSince(ProcessStart()), "s");
  out.Metric("data_pages", static_cast<double>(data_pages), "pages");
  StartTracedPhase(opt.trace, &clock);

  PhaseMeter meter(&rdb.db(), opt.trace);
  MixSamples s;
  const int64_t txns = RunTxns(opt, kMixNominalTxnPerS, 1);
  meter.Start();
  for (int64_t i = 0; i < txns; ++i) RunMixTxn(&driver, &s, opt.trace, i);
  meter.Stop();
  Finish(opt, &rdb, cfg, s, meter, term.commits(), &clock, &out);
  return out;
}

namespace {

// Server-side session stack of a traced serve_tcp run: the default
// TrackingProxy-over-DirectConnection pair with a timing decorator on each
// side of the proxy.
class TracedServerSession : public DbConnection {
 public:
  TracedServerSession(ResilientDb* rdb, LayerClock* clock)
      : direct_(&rdb->db()),
        backend_(&direct_, clock, /*engine_kinds=*/true),
        proxy_(&backend_, &rdb->allocator(), rdb->db().traits()),
        client_(&proxy_, clock) {}
  Result<ResultSet> Execute(std::string_view sql) override {
    return client_.Execute(sql);
  }
  void SetAnnotation(std::string_view label) override {
    client_.SetAnnotation(label);
  }
  std::string Describe() const override { return "traced-session"; }

 private:
  irdb::DirectConnection direct_;
  TimedBackend backend_;
  irdb::proxy::TrackingProxy proxy_;
  TimedClient client_;
};

}  // namespace

Outcome RunServeTcp(const Options& opt) {
  Outcome out;
  ResilientDb rdb(Fig1());
  LayerClock clock;
  const irdb::tpcc::TpccConfig cfg = TpccScale(kTcpClients, kTcpScale, opt.seed);
  auto fail = [&](const Status& s) {
    out.Check(false, "serve_tcp set-up: " + s.ToString());
    return out;
  };
  if (Status s = rdb.Bootstrap(); !s.ok()) return fail(s);
  int64_t load_commits = 0;
  {
    // Loaded in-process through a tracked connection: the TCP clients then
    // work on the same engine and transaction-id allocator.
    auto conn = rdb.Connect();
    if (!conn.ok()) return fail(conn.status());
    Terminal loader(conn->get());
    if (auto l = irdb::tpcc::LoadDatabase(&loader, cfg); !l.ok()) {
      return fail(l.status());
    }
    load_commits = loader.commits();
  }
  irdb::net::NetServerOptions sopts;
  sopts.exec_threads = kTcpClients;
  if (opt.trace) {
    sopts.session_factory = [&rdb, &clock]() -> std::unique_ptr<DbConnection> {
      return std::make_unique<TracedServerSession>(&rdb, &clock);
    };
  }
  auto server = rdb.ServeTcp(sopts);
  if (!server.ok()) return fail(server.status());
  out.Metric("setup_s", SecondsSince(ProcessStart()), "s");
  StartTracedPhase(opt.trace, &clock);

  // The phase spans the clients' connects and disconnects, so that the
  // frame cross-check sees every frame.
  PhaseMeter meter(&rdb.db(), opt.trace);
  std::vector<MixSamples> samples(kTcpClients);
  std::vector<int64_t> commits(kTcpClients, 0);
  std::vector<std::string> dial_errors(kTcpClients);
  std::latch ready(kTcpClients + 1);
  const int64_t txns = RunTxns(opt, kTcpNominalTxnPerS, kTcpClients);
  meter.Start();
  std::vector<std::thread> clients;
  for (int i = 0; i < kTcpClients; ++i) {
    clients.emplace_back([&, i] {
      irdb::net::TcpChannelOptions copts;
      copts.port = (*server)->port();
      irdb::net::TcpChannel tcp(copts);
      TimedChannel timed(&tcp, &clock);
      irdb::Channel* channel = opt.trace ? static_cast<irdb::Channel*>(&timed)
                                         : &tcp;
      auto remote = irdb::RemoteConnection::Connect(channel);
      ready.arrive_and_wait();
      if (!remote.ok()) {
        dial_errors[i] = remote.status().ToString();
        return;
      }
      Terminal term(remote->get());
      irdb::tpcc::TpccDriver driver(&term, cfg,
                                    opt.seed * 7919 + 1 + 104729 * (i + 1));
      driver.set_home_warehouse(i + 1);
      for (int64_t t = 0; t < txns; ++t) {
        RunMixTxn(&driver, &samples[i], opt.trace, t);
      }
      commits[i] = term.commits();
    });
  }
  ready.arrive_and_wait();
  for (auto& t : clients) t.join();
  meter.Stop();
  (*server)->Stop();

  MixSamples all;
  int64_t expected = load_commits;
  for (int i = 0; i < kTcpClients; ++i) {
    out.Check(dial_errors[i].empty(), "serve_tcp dial: " + dial_errors[i]);
    all.Merge(samples[i]);
    expected += commits[i];
  }
  Finish(opt, &rdb, cfg, all, meter, expected, &clock, &out);
  return out;
}

}  // namespace irbench
