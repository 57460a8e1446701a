// Engine-side concurrency: serial-mode baseline vs the lock manager.
//
// Database::set_serial_mode(true) is the baseline leg: every statement
// plans one X lock on the whole database, held to commit, so transactions
// run one at a time. This bench sweeps connection counts {1, 2, 4, 8} over
// the full tracked network stack (NetProxyServer with server-side tracking
// proxies, TCP, rtt = 0 so the transport is never the bottleneck) and runs
// each point twice: once serial, once under the lock manager.
//
// The engine is made disk-bound the same way the paper's testbed was:
// IoCostParams with realtime_stall_scale > 0 turns charged I/O time
// (commit-time log flushes, per-statement CPU) into real sleeps taken with
// no lock held. The serial leg stalls one transaction at a time (only the
// per-statement charges of BEGIN and of a transaction's first statement,
// taken before its database lock is granted, overlap); the lock manager
// overlaps stalls from independent sessions, so the speedup at 8
// connections approaches 8x even on a single-core host — and the
// acceptance floor is 3x.
//
// Each connection works a private table, so the sweep measures the engine's
// concurrency ceiling, not lock conflicts (tests/concurrency_test.cc and
// the lock-contention chaos profile cover conflicting workloads). After
// every leg the tracking_gaps table must be empty: concurrency must not
// cost tracking completeness. The serial leg's lock waits and deadlocks are
// reported too, and any serial deadlock fails the run: a single lock
// cannot form a cycle.
//
// Emits BENCH_concurrency.json. Flags: --rounds=N (transactions per
// connection, default 40), --stall-scale=F (default 1.0), --out=PATH.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "obs/catalog.h"
#include "obs/metrics.h"
#include "util/stopwatch.h"

namespace irdb {
namespace {

struct LegResult {
  double wall_seconds = 0;
  int64_t txns = 0;
  int64_t tracking_gaps = 0;
  int64_t lock_waits = 0;
  int64_t deadlocks = 0;
  bool accounting_ok = false;

  double Throughput() const {
    return static_cast<double>(txns) / wall_seconds;
  }
};

Result<LegResult> MeasureLeg(bool serial_mode, int connections, int rounds,
                             double stall_scale) {
  // Fresh stack per leg so tracking tables, lock stats, and the transport
  // accounting identity cover exactly this leg's traffic.
  Database db(FlavorTraits::Postgres());
  db.set_serial_mode(serial_mode);
  proxy::TxnIdAllocator alloc;
  net::NetServerOptions sopts;
  sopts.exec_threads = 8;
  sopts.track = true;  // server-side tracking proxies, paper Fig. 2
  net::NetProxyServer server(&db, &alloc, sopts);
  IRDB_RETURN_IF_ERROR(server.Start());
  IRDB_RETURN_IF_ERROR(server.Bootstrap());

  // Dial and create per-connection tables before the stalls switch on, so
  // setup cost stays out of the measurement.
  std::vector<std::unique_ptr<net::NetClient>> clients;
  for (int c = 0; c < connections; ++c) {
    net::TcpChannelOptions copts;
    copts.port = server.port();
    copts.simulated_rtt_seconds = 0.0;  // engine-side bench: no link delay
    IRDB_ASSIGN_OR_RETURN(auto client, net::NetClient::Dial(copts));
    const std::string table = "bt" + std::to_string(c);
    IRDB_RETURN_IF_ERROR(client->connection()
                             .Execute("CREATE TABLE " + table +
                                      " (k INTEGER NOT NULL, v INTEGER, "
                                      "PRIMARY KEY(k))")
                             .status());
    IRDB_RETURN_IF_ERROR(client->connection()
                             .Execute("INSERT INTO " + table +
                                      " (k, v) VALUES (1, 0)")
                             .status());
    clients.push_back(std::move(client));
  }

  // Disk-bound from here on: every charged I/O second sleeps scale real
  // seconds with no lock held (see engine/io_model.h).
  IoCostParams io;
  io.enabled = true;
  io.realtime_stall_scale = stall_scale;
  db.io_model().Configure(io);

  std::atomic<int> errors{0};
  Stopwatch sw;
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      DbConnection& conn = clients[static_cast<size_t>(c)]->connection();
      const std::string table = "bt" + std::to_string(c);
      for (int j = 0; j < rounds; ++j) {
        const bool ok =
            conn.Execute("BEGIN").ok() &&
            conn.Execute("SELECT v FROM " + table + " WHERE k = 1").ok() &&
            conn.Execute("UPDATE " + table + " SET v = v + 1 WHERE k = 1")
                .ok() &&
            conn.Execute("COMMIT").ok();
        if (!ok) {
          ++errors;
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall = sw.ElapsedSeconds();
  if (errors.load() != 0) return Status::Internal("bench transactions failed");

  // Stop stalling before teardown and the gap check.
  db.io_model().Configure(IoCostParams{});

  LegResult r;
  r.wall_seconds = wall;
  r.txns = static_cast<int64_t>(connections) * rounds;
  {
    DirectConnection admin(&db);
    IRDB_ASSIGN_OR_RETURN(
        auto gaps, admin.Execute("SELECT tr_id FROM tracking_gaps"));
    r.tracking_gaps = static_cast<int64_t>(gaps.rows.size());
  }
  const auto lstats = db.txn_manager().locks().stats();
  r.lock_waits = lstats.waits;
  r.deadlocks = lstats.deadlocks;

  clients.clear();  // BYE
  server.Stop();
  const net::NetServerStats s = server.stats();
  r.accounting_ok =
      s.frames_in == s.frames_out && s.frames_in == s.requests_served;
  return r;
}

struct SweepPoint {
  int connections = 0;
  LegResult serial;
  LegResult concurrent;

  double Speedup() const {
    return concurrent.Throughput() / serial.Throughput();
  }
};

int Main(int argc, char** argv) {
  int rounds = 40;
  double stall_scale = 1.0;
  std::string out_path = "BENCH_concurrency.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--rounds=", 9) == 0) {
      rounds = std::atoi(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--stall-scale=", 14) == 0) {
      stall_scale = std::atof(argv[i] + 14);
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--rounds=N] [--stall-scale=F] [--out=PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  const int kConns[] = {1, 2, 4, 8};
  constexpr double kTargetSpeedup = 3.0;
  std::vector<SweepPoint> points;
  for (int c : kConns) {
    SweepPoint p;
    p.connections = c;
    auto serial = MeasureLeg(/*serial_mode=*/true, c, rounds, stall_scale);
    if (!serial.ok()) {
      std::fprintf(stderr, "bench_concurrency serial leg: %s\n",
                   serial.status().ToString().c_str());
      return 1;
    }
    auto conc = MeasureLeg(/*serial_mode=*/false, c, rounds, stall_scale);
    if (!conc.ok()) {
      std::fprintf(stderr, "bench_concurrency concurrent leg: %s\n",
                   conc.status().ToString().c_str());
      return 1;
    }
    p.serial = *serial;
    p.concurrent = *conc;
    std::printf(
        "concurrency: conns=%d serial=%.0f txn/s concurrent=%.0f txn/s "
        "speedup=%.2fx gaps=%lld/%lld waits=%lld/%lld "
        "deadlocks=%lld/%lld%s\n",
        c, p.serial.Throughput(), p.concurrent.Throughput(), p.Speedup(),
        static_cast<long long>(p.serial.tracking_gaps),
        static_cast<long long>(p.concurrent.tracking_gaps),
        static_cast<long long>(p.serial.lock_waits),
        static_cast<long long>(p.concurrent.lock_waits),
        static_cast<long long>(p.serial.deadlocks),
        static_cast<long long>(p.concurrent.deadlocks),
        p.serial.accounting_ok && p.concurrent.accounting_ok
            ? ""
            : "  ACCOUNTING MISMATCH");
    if (!p.serial.accounting_ok || !p.concurrent.accounting_ok) return 1;
    if (p.serial.tracking_gaps != 0 || p.concurrent.tracking_gaps != 0) {
      std::fprintf(stderr, "bench_concurrency: tracking gaps at %d conns\n",
                   c);
      return 1;
    }
    if (p.serial.deadlocks != 0) {
      std::fprintf(stderr, "bench_concurrency: serial-leg deadlock at %d "
                   "conns\n", c);
      return 1;
    }
    points.push_back(p);
  }

  const double speedup8 = points.back().Speedup();
  const bool target_met = speedup8 >= kTargetSpeedup;
  std::printf("concurrency: serial -> lock manager at %d connections: "
              "%.2fx (target %.1fx: %s)\n",
              points.back().connections, speedup8, kTargetSpeedup,
              target_met ? "met" : "MISSED");

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"concurrency\",\n");
  std::fprintf(out, "  \"rounds_per_connection\": %d,\n", rounds);
  std::fprintf(out, "  \"rtt_seconds\": 0.0,\n");
  std::fprintf(out, "  \"realtime_stall_scale\": %.3f,\n", stall_scale);
  std::fprintf(out, "  \"tracked\": true,\n");
  std::fprintf(out, "  \"sweep\": [\n");
  for (size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    std::fprintf(
        out,
        "    {\"connections\": %d, \"txns_per_leg\": %lld, "
        "\"serial_wall_seconds\": %.6f, \"serial_txns_per_sec\": %.1f, "
        "\"concurrent_wall_seconds\": %.6f, "
        "\"concurrent_txns_per_sec\": %.1f, \"speedup\": %.3f, "
        "\"serial_lock_waits\": %lld, \"serial_deadlocks\": %lld, "
        "\"lock_waits\": %lld, \"deadlocks\": %lld, "
        "\"tracking_gaps\": %lld}%s\n",
        p.connections, static_cast<long long>(p.concurrent.txns),
        p.serial.wall_seconds, p.serial.Throughput(),
        p.concurrent.wall_seconds, p.concurrent.Throughput(), p.Speedup(),
        static_cast<long long>(p.serial.lock_waits),
        static_cast<long long>(p.serial.deadlocks),
        static_cast<long long>(p.concurrent.lock_waits),
        static_cast<long long>(p.concurrent.deadlocks),
        static_cast<long long>(p.serial.tracking_gaps +
                               p.concurrent.tracking_gaps),
        i + 1 < points.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"speedup_at_8_connections\": %.3f,\n", speedup8);
  std::fprintf(out, "  \"target_speedup\": %.1f,\n", kTargetSpeedup);
  std::fprintf(out, "  \"target_met\": %s\n}\n",
               target_met ? "true" : "false");
  std::fclose(out);
  std::printf("concurrency: wrote %s\n", out_path.c_str());
  return target_met ? 0 : 1;
}

}  // namespace
}  // namespace irdb

int main(int argc, char** argv) { return irdb::Main(argc, argv); }
