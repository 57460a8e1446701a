// Access-path bench: B+ tree index scans vs full heap scans.
//
// For each row count in the sweep, three identical databases are built and
// loaded with the same rows (ascending primary key, so the load rides the
// B+ tree's rightmost-append bulk-load fast path):
//   heap   — table WITHOUT a primary key: every predicate heap-scans.
//   index  — PRIMARY KEY(k): equality and BETWEEN predicates take the index.
//   serial — same as index but in serial engine mode (one database X
//            lock held to commit instead of key/table locks), to show the
//            access path is a pure performance choice (state hashes must
//            match).
// The same seeded query stream (point lookups and BETWEEN range scans) runs
// against each; per-leg result checksums and post-workload StateHash must be
// identical — the index may never change answers, only speed. The obs
// counters verify each leg actually took the path being measured.
//
// Heap-scan legs run a smaller sample of the query stream (full heap scans
// at 1e6 rows cost ~10ms each); throughputs are rates, so the speedup is
// sample-size independent.
//
// Emits BENCH_index.json. Gate: >= 10x point-lookup AND range-scan
// throughput at the largest row count.
//
// Flags: --rows=N,N,... (default 10000,100000,1000000), --lookups=N
// (default 2000), --heap-lookups=N (default 30), --span=N (default 100),
// --out=PATH.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "engine/database.h"
#include "obs/catalog.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "wire/connection.h"

namespace irdb {
namespace {

constexpr uint64_t kSeed = 20260808;

struct LegResult {
  double point_wall = 0, range_wall = 0;
  int64_t point_queries = 0, range_queries = 0;
  uint64_t point_checksum = 0, range_checksum = 0;
  int64_t index_scans = 0, heap_scans = 0;  // obs deltas over the whole leg
  uint64_t state_hash = 0;

  double PointTps() const {
    return static_cast<double>(point_queries) / point_wall;
  }
  double RangeTps() const {
    return static_cast<double>(range_queries) / range_wall;
  }
};

uint64_t MixHash(uint64_t h, const Value& v) {
  std::string s;
  v.AppendTo(&s);
  // FNV-1a over the stable serialization.
  for (unsigned char c : s) h = (h ^ c) * 1099511628211ull;
  return h;
}

uint64_t ChecksumRows(uint64_t h, const ResultSet& rs) {
  for (const auto& row : rs.rows) {
    for (const Value& v : row) h = MixHash(h, v);
  }
  return h;
}

Status Load(DbConnection* conn, int64_t rows, bool primary_key) {
  IRDB_RETURN_IF_ERROR(
      conn->Execute("CREATE TABLE kv (k INTEGER NOT NULL, v INTEGER, "
                    "pad VARCHAR(16)" +
                    std::string(primary_key ? ", PRIMARY KEY(k)" : "") + ")")
          .status());
  Rng rng(kSeed);
  constexpr int64_t kBatch = 500;
  IRDB_RETURN_IF_ERROR(conn->Execute("BEGIN").status());
  std::string sql;
  for (int64_t k = 1; k <= rows; ++k) {
    if (sql.empty()) sql = "INSERT INTO kv (k, v, pad) VALUES ";
    else sql += ", ";
    sql += "(" + std::to_string(k) + ", " +
           std::to_string(rng.Uniform(0, 1 << 20)) + ", 'padpadpadpad')";
    if (k % kBatch == 0 || k == rows) {
      IRDB_RETURN_IF_ERROR(conn->Execute(sql).status());
      sql.clear();
    }
  }
  IRDB_RETURN_IF_ERROR(conn->Execute("COMMIT").status());
  return Status::Ok();
}

// Runs the seeded query stream. Each leg draws from an identically seeded
// Rng, so legs that run more queries see a prefix-extension of the same
// stream; checksums are compared over the common (smaller) prefix via
// `checksum_prefix`.
Result<LegResult> RunLeg(int64_t rows, bool primary_key, bool serial,
                         int64_t point_queries, int64_t range_queries,
                         int64_t checksum_prefix, int64_t span) {
  Database db(FlavorTraits::Postgres());
  db.set_serial_mode(serial);
  DirectConnection conn(&db);
  IRDB_RETURN_IF_ERROR(Load(&conn, rows, primary_key));

  LegResult r;
  const int64_t is0 = obs::CounterValue(obs::Metrics::Get().index_scans);
  const int64_t hs0 = obs::CounterValue(obs::Metrics::Get().heap_scans);

  {
    Rng qrng(kSeed + 1);
    Stopwatch sw;
    for (int64_t q = 0; q < point_queries; ++q) {
      const int64_t k = qrng.Uniform(1, rows);
      IRDB_ASSIGN_OR_RETURN(
          auto rs,
          conn.Execute("SELECT v FROM kv WHERE k = " + std::to_string(k)));
      if (q < checksum_prefix) r.point_checksum = ChecksumRows(r.point_checksum, rs);
      if (rs.rows.size() != 1) return Status::Internal("point lookup miss");
    }
    r.point_wall = sw.ElapsedSeconds();
    r.point_queries = point_queries;
  }
  {
    Rng qrng(kSeed + 2);
    Stopwatch sw;
    for (int64_t q = 0; q < range_queries; ++q) {
      const int64_t lo = qrng.Uniform(1, rows - span);
      IRDB_ASSIGN_OR_RETURN(
          auto rs, conn.Execute("SELECT k, v FROM kv WHERE k BETWEEN " +
                                std::to_string(lo) + " AND " +
                                std::to_string(lo + span)));
      if (q < checksum_prefix) r.range_checksum = ChecksumRows(r.range_checksum, rs);
      if (rs.rows.size() != static_cast<size_t>(span) + 1) {
        return Status::Internal("range scan wrong cardinality");
      }
    }
    r.range_wall = sw.ElapsedSeconds();
    r.range_queries = range_queries;
  }

  r.index_scans = obs::CounterValue(obs::Metrics::Get().index_scans) - is0;
  r.heap_scans = obs::CounterValue(obs::Metrics::Get().heap_scans) - hs0;
  r.state_hash = db.StateHash({"kv"});
  return r;
}

int Main(int argc, char** argv) {
  std::vector<int64_t> row_counts = {10000, 100000, 1000000};
  int64_t lookups = 2000;
  int64_t heap_lookups = 30;
  int64_t span = 100;
  std::string out_path = "BENCH_index.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--rows=", 7) == 0) {
      row_counts.clear();
      for (const char* p = argv[i] + 7; *p != '\0';) {
        row_counts.push_back(std::strtoll(p, nullptr, 10));
        while (*p != '\0' && *p != ',') ++p;
        if (*p == ',') ++p;
      }
    } else if (std::strncmp(argv[i], "--lookups=", 10) == 0) {
      lookups = std::atoll(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--heap-lookups=", 15) == 0) {
      heap_lookups = std::atoll(argv[i] + 15);
    } else if (std::strncmp(argv[i], "--span=", 7) == 0) {
      span = std::atoll(argv[i] + 7);
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--rows=N,N,...] [--lookups=N] "
                   "[--heap-lookups=N] [--span=N] [--out=PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  constexpr double kTarget = 10.0;
  struct Point {
    int64_t rows;
    LegResult heap, index, serial;
    bool consistent;
  };
  std::vector<Point> points;
  for (int64_t rows : row_counts) {
    Point p;
    p.rows = rows;
    auto heap = RunLeg(rows, /*primary_key=*/false, /*serial=*/false,
                       heap_lookups, heap_lookups, heap_lookups, span);
    auto index = RunLeg(rows, /*primary_key=*/true, /*serial=*/false, lookups,
                        lookups, heap_lookups, span);
    auto serial = RunLeg(rows, /*primary_key=*/true, /*serial=*/true,
                         heap_lookups, heap_lookups, heap_lookups, span);
    for (const auto* leg : {&heap, &index, &serial}) {
      if (!leg->ok()) {
        std::fprintf(stderr, "bench_index leg: %s\n",
                     leg->status().ToString().c_str());
        return 1;
      }
    }
    p.heap = *heap;
    p.index = *index;
    p.serial = *serial;
    // The index is a pure access-path change: every leg must agree on the
    // query answers and the final table contents.
    p.consistent = p.heap.point_checksum == p.index.point_checksum &&
                   p.heap.range_checksum == p.index.range_checksum &&
                   p.index.point_checksum == p.serial.point_checksum &&
                   p.index.range_checksum == p.serial.range_checksum &&
                   p.heap.state_hash == p.index.state_hash &&
                   p.index.state_hash == p.serial.state_hash;
    // Path sanity: the heap leg must not have taken index scans (it has no
    // index), and the index leg's reads must not have heap-scanned.
    if (p.heap.index_scans != 0) {
      std::fprintf(stderr, "bench_index: heap leg took index scans\n");
      return 1;
    }
    std::printf("index: rows=%lld point %.0f -> %.0f q/s (%.1fx) "
                "range %.0f -> %.0f q/s (%.1fx)%s\n",
                static_cast<long long>(rows), p.heap.PointTps(),
                p.index.PointTps(), p.index.PointTps() / p.heap.PointTps(),
                p.heap.RangeTps(), p.index.RangeTps(),
                p.index.RangeTps() / p.heap.RangeTps(),
                p.consistent ? "" : "  INCONSISTENT");
    if (!p.consistent) return 1;
    points.push_back(p);
  }

  const Point& last = points.back();
  const double point_speedup = last.index.PointTps() / last.heap.PointTps();
  const double range_speedup = last.index.RangeTps() / last.heap.RangeTps();
  const bool target_met = point_speedup >= kTarget && range_speedup >= kTarget;
  std::printf("index: at %lld rows: point %.1fx, range %.1fx "
              "(target %.0fx: %s)\n",
              static_cast<long long>(last.rows), point_speedup, range_speedup,
              kTarget, target_met ? "met" : "MISSED");

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"index\",\n");
  std::fprintf(out, "  \"range_span\": %lld,\n", static_cast<long long>(span));
  std::fprintf(out, "  \"sweep\": [\n");
  for (size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    std::fprintf(
        out,
        "    {\"rows\": %lld,\n"
        "     \"heap\": {\"point_qps\": %.1f, \"range_qps\": %.1f, "
        "\"heap_scans\": %lld, \"index_scans\": %lld},\n"
        "     \"index\": {\"point_qps\": %.1f, \"range_qps\": %.1f, "
        "\"heap_scans\": %lld, \"index_scans\": %lld},\n"
        "     \"serial_index\": {\"point_qps\": %.1f, \"range_qps\": %.1f},\n"
        "     \"point_speedup\": %.2f, \"range_speedup\": %.2f,\n"
        "     \"state_hash_heap\": \"%016llx\", "
        "\"state_hash_index\": \"%016llx\", "
        "\"state_hash_serial\": \"%016llx\",\n"
        "     \"results_and_hashes_consistent\": %s}%s\n",
        static_cast<long long>(p.rows), p.heap.PointTps(), p.heap.RangeTps(),
        static_cast<long long>(p.heap.heap_scans),
        static_cast<long long>(p.heap.index_scans), p.index.PointTps(),
        p.index.RangeTps(), static_cast<long long>(p.index.heap_scans),
        static_cast<long long>(p.index.index_scans), p.serial.PointTps(),
        p.serial.RangeTps(), p.index.PointTps() / p.heap.PointTps(),
        p.index.RangeTps() / p.heap.RangeTps(),
        static_cast<unsigned long long>(p.heap.state_hash),
        static_cast<unsigned long long>(p.index.state_hash),
        static_cast<unsigned long long>(p.serial.state_hash),
        p.consistent ? "true" : "false", i + 1 < points.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"point_speedup_at_max_rows\": %.2f,\n", point_speedup);
  std::fprintf(out, "  \"range_speedup_at_max_rows\": %.2f,\n", range_speedup);
  std::fprintf(out, "  \"target_speedup\": %.1f,\n", kTarget);
  std::fprintf(out, "  \"target_met\": %s\n}\n", target_met ? "true" : "false");
  std::fclose(out);
  std::printf("index: wrote %s\n", out_path.c_str());
  return target_met ? 0 : 1;
}

}  // namespace
}  // namespace irdb

int main(int argc, char** argv) { return irdb::Main(argc, argv); }
