#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "concurrency/lock_manager.h"
#include "obs/catalog.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sql/fingerprint.h"
#include "sql/parser.h"
#include "txn/wal_codec.h"
#include "wire/protocol.h"

namespace irbench {

namespace {
const Clock::time_point g_process_start = Clock::now();

// Case-insensitive "does `sql` start with keyword `kw`".
bool StartsWithKeyword(std::string_view sql, std::string_view kw) {
  size_t i = 0;
  while (i < sql.size() && (sql[i] == ' ' || sql[i] == '\n')) ++i;
  if (sql.size() - i < kw.size()) return false;
  for (size_t k = 0; k < kw.size(); ++k) {
    if (std::toupper(static_cast<unsigned char>(sql[i + k])) != kw[k]) {
      return false;
    }
  }
  return true;
}
}  // namespace

Clock::time_point ProcessStart() { return g_process_start; }

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double MicrosSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

std::string Outcome::Json() const {
  std::ostringstream o;
  o << "{\"correct\": " << (errors.empty() ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char num[64];
    const double v = metrics[i].second.first;
    std::snprintf(num, sizeof num, "%.17g", std::isfinite(v) ? v : 0.0);
    o << (i ? ", " : "") << "\"" << metrics[i].first << "\": {\"value\": "
      << num << ", \"unit\": \"" << metrics[i].second.second << "\"}";
  }
  o << "}}";
  return o.str();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const size_t idx = std::min(
      v.size() - 1, static_cast<size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<long>(idx), v.end());
  return v[idx];
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double PeakRssMb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

irdb::DeploymentOptions Fig1() {
  irdb::DeploymentOptions o;
  o.traits = irdb::FlavorTraits::Postgres();
  o.arch = irdb::ProxyArch::kSingleProxy;
  o.repair_threads = 1;
  return o;
}

irdb::tpcc::TpccConfig TpccScale(int warehouses, int mult, uint64_t seed) {
  irdb::tpcc::TpccConfig c = irdb::tpcc::TpccConfig::Scaled(warehouses);
  c.districts_per_warehouse = 10;
  c.customers_per_district *= mult;
  c.items *= mult;
  c.orders_per_district *= mult;
  c.seed = seed;
  return c;
}

void MixSamples::Merge(const MixSamples& o) {
  all_us.insert(all_us.end(), o.all_us.begin(), o.all_us.end());
  new_order_us.insert(new_order_us.end(), o.new_order_us.begin(),
                      o.new_order_us.end());
  payment_us.insert(payment_us.end(), o.payment_us.begin(),
                    o.payment_us.end());
  stock_level_us.insert(stock_level_us.end(), o.stock_level_us.begin(),
                        o.stock_level_us.end());
  committed += o.committed;
  failed += o.failed;
  if (first_error.empty()) first_error = o.first_error;
}

void LayerClock::Reset() {
  std::lock_guard<std::mutex> lk(mu);
  client_stmts = backend_stmts = frames = frame_bytes = server_frames = 0;
  client_us = backend_us = frame_rtt_us = server_us = 0;
  engine_us.clear();
  captured_sql.clear();
}

void StartTracedPhase(bool trace, LayerClock* clock) {
  if (!trace) return;
  irdb::obs::SpanTracer::Default().Clear();
  irdb::obs::SpanTracer::Default().set_enabled(true);
  clock->Reset();
}

void RunMixTxn(irdb::tpcc::TpccDriver* driver, MixSamples* s, bool trace,
               int64_t txn_seq) {
  constexpr int kMaxAttempts = 100;
  // Spans of the first transactions only: the tracer's buffer is bounded,
  // and the repair that follows must still fit.
  constexpr int64_t kSpanTxns = 200;
  if (trace && txn_seq == kSpanTxns) {
    irdb::obs::SpanTracer::Default().set_enabled(false);
  }
  std::optional<irdb::obs::Span> span;
  if (trace) {
    span.emplace("irbench.txn");
    span->AddArg("txn", txn_seq);
  }
  const irdb::Rng inputs = driver->rng();
  const Clock::time_point t0 = Clock::now();
  for (int attempt = 1;; ++attempt) {
    auto r = driver->RunMixed();
    if (r.ok()) {
      const double us = MicrosSince(t0);
      s->all_us.push_back(us);
      switch (r->type) {
        case irdb::tpcc::TxnType::kNewOrder: s->new_order_us.push_back(us); break;
        case irdb::tpcc::TxnType::kPayment: s->payment_us.push_back(us); break;
        case irdb::tpcc::TxnType::kStockLevel: s->stock_level_us.push_back(us); break;
        default: break;
      }
      ++s->committed;
      return;
    }
    if (irdb::concurrency::IsDeadlockAbort(r.status()) &&
        attempt < kMaxAttempts) {
      driver->rng() = inputs;  // the driver rolled back; same txn again
      continue;
    }
    ++s->failed;
    if (s->first_error.empty()) s->first_error = r.status().ToString();
    return;
  }
}

void ReportMix(const MixSamples& s, double elapsed_s, Outcome* out,
               const std::string& prefix) {
  out->Metric(prefix + "txn_per_s",
              static_cast<double>(s.committed) / elapsed_s, "txn/s");
  if (!prefix.empty()) return;
  out->Metric("txn_p50_us", Median(s.all_us), "us");
  out->Metric("txn_p99_us", Quantile(s.all_us, 0.99), "us");
  out->Metric("new_order_p50_us", Median(s.new_order_us), "us");
  out->Metric("payment_p50_us", Median(s.payment_us), "us");
  out->Metric("stock_level_p50_us", Median(s.stock_level_us), "us");
}

// --- Terminal ----------------------------------------------------------

Result<ResultSet> Terminal::Execute(std::string_view sql) {
  auto r = inner_->Execute(sql);
  if (r.ok() && StartsWithKeyword(sql, "COMMIT")) ++commits_;
  return r;
}

// --- traced decorators -------------------------------------------------

const char* StmtKind(std::string_view sql) {
  if (StartsWithKeyword(sql, "SELECT")) return "select";
  if (StartsWithKeyword(sql, "INSERT")) return "insert";
  if (StartsWithKeyword(sql, "UPDATE")) return "update";
  if (StartsWithKeyword(sql, "COMMIT")) return "commit";
  return "other";
}

const char* StmtKind(const irdb::sql::Statement& stmt) {
  using irdb::sql::StatementKind;
  switch (stmt.kind) {
    case StatementKind::kSelect: return "select";
    case StatementKind::kInsert: return "insert";
    case StatementKind::kUpdate: return "update";
    case StatementKind::kCommit: return "commit";
    default: return "other";
  }
}

Result<ResultSet> TimedClient::Execute(std::string_view sql) {
  irdb::obs::Span span("irbench.client_stmt");
  const Clock::time_point t0 = Clock::now();
  auto r = inner_->Execute(sql);
  const double us = MicrosSince(t0);
  std::lock_guard<std::mutex> lk(clock_->mu);
  ++clock_->client_stmts;
  clock_->client_us += us;
  if (clock_->captured_sql.size() < LayerClock::kMaxCaptured) {
    clock_->captured_sql.emplace_back(sql);
  }
  return r;
}

void TimedBackend::Record(const char* kind, double us) {
  std::lock_guard<std::mutex> lk(clock_->mu);
  ++clock_->backend_stmts;
  clock_->backend_us += us;
  if (engine_kinds_) clock_->engine_us[kind].push_back(us);
}

Result<ResultSet> TimedBackend::Execute(std::string_view sql) {
  irdb::obs::Span span("irbench.backend_stmt");
  const Clock::time_point t0 = Clock::now();
  auto r = inner_->Execute(sql);
  Record(StmtKind(sql), MicrosSince(t0));
  return r;
}

Result<ResultSet> TimedBackend::Execute(const irdb::sql::Statement& stmt) {
  irdb::obs::Span span("irbench.backend_stmt");
  const Clock::time_point t0 = Clock::now();
  auto r = inner_->Execute(stmt);
  Record(StmtKind(stmt), MicrosSince(t0));
  return r;
}

Result<std::string> TimedChannel::RoundTrip(std::string_view request) {
  irdb::obs::Span span("irbench.frame");
  const Clock::time_point t0 = Clock::now();
  auto r = inner_->RoundTrip(request);
  const double us = MicrosSince(t0);
  std::lock_guard<std::mutex> lk(clock_->mu);
  ++clock_->frames;
  clock_->frame_rtt_us += us;
  clock_->frame_bytes += static_cast<int64_t>(request.size()) +
                         (r.ok() ? static_cast<int64_t>(r->size()) : 0);
  return r;
}

InProcessStack::InProcessStack(irdb::ResilientDb* rdb, LayerClock* clock)
    : clock_(clock),
      server_(&rdb->db()),
      loopback_(
          [this](std::string_view req) {
            auto decoded = irdb::DecodeRequest(req);
            const char* kind =
                decoded.ok() && decoded->kind == irdb::WireRequest::Kind::kExec
                    ? StmtKind(decoded->sql)
                    : "other";
            irdb::obs::Span span("irbench.server_frame");
            const Clock::time_point t0 = Clock::now();
            std::string resp = server_.Handle(req);
            const double us = MicrosSince(t0);
            std::lock_guard<std::mutex> lk(clock_->mu);
            ++clock_->server_frames;
            clock_->server_us += us;
            clock_->engine_us[kind].push_back(us);
            return resp;
          },
          irdb::LatencyParams::Local(), /*clock=*/nullptr),
      channel_(&loopback_, clock) {}

Result<std::unique_ptr<InProcessStack>> InProcessStack::Open(
    irdb::ResilientDb* rdb, LayerClock* clock) {
  std::unique_ptr<InProcessStack> s(new InProcessStack(rdb, clock));
  if (clock == nullptr) {
    IRDB_ASSIGN_OR_RETURN(s->plain_, rdb->Connect());
    s->top_ = s->plain_.get();
    return s;
  }
  IRDB_ASSIGN_OR_RETURN(s->remote_,
                        irdb::RemoteConnection::Connect(&s->channel_));
  s->backend_ = std::make_unique<TimedBackend>(s->remote_.get(), clock,
                                               /*engine_kinds=*/false);
  s->proxy_ = std::make_unique<irdb::proxy::TrackingProxy>(
      s->backend_.get(), &rdb->allocator(), rdb->db().traits());
  s->client_ = std::make_unique<TimedClient>(s->proxy_.get(), clock);
  s->top_ = s->client_.get();
  return s;
}

// --- registry counters -------------------------------------------------

CounterSnap CounterSnap::Take() {
  CounterSnap s;
  auto& reg = irdb::obs::MetricsRegistry::Default();
  (void)irdb::obs::Metrics::Get();  // registers the catalog
  for (const irdb::obs::MetricSnapshot& m : reg.Snapshot()) {
    if (m.def.kind == irdb::obs::MetricKind::kHistogram) {
      s.v[m.def.name + ":count"] = m.hist.count;
      s.v[m.def.name + ":sum_us"] = m.hist.sum_us;
    } else {
      s.v[m.def.name] = m.value;
    }
  }
  return s;
}

namespace {
// sql.parse_us and sql.fingerprint_us over the captured statement texts.
void ReportSqlLayer(const std::vector<std::string>& texts, Outcome* out) {
  std::vector<double> parse_us, fp_us;
  parse_us.reserve(texts.size());
  fp_us.reserve(texts.size());
  for (const std::string& t : texts) {
    Clock::time_point t0 = Clock::now();
    auto parsed = irdb::sql::Parse(t);
    parse_us.push_back(MicrosSince(t0));
    t0 = Clock::now();
    auto shape = irdb::sql::FingerprintStatement(t);
    fp_us.push_back(MicrosSince(t0));
    out->Check(parsed.ok() && shape.ok(),
               "captured statement does not parse: " + t.substr(0, 80));
  }
  out->Metric("sql.parse_us", Median(parse_us), "us");
  out->Metric("sql.fingerprint_us", Median(fp_us), "us");
}
}  // namespace

void PhaseMeter::Start() {
  start_ = CounterSnap::Take();
  pool_start_ = db_->buffer_pool().stats();
  if (trace_) {
    wal_records_start_ = db_->wal().size();
    wal_bytes_start_ = static_cast<int64_t>(irdb::SerializeWal(db_->wal()).size());
  }
  t0_ = Clock::now();
}

void PhaseMeter::Stop() {
  seconds_ += SecondsSince(t0_);
  const CounterSnap now = CounterSnap::Take();
  for (const auto& [name, value] : now.v) counts_[name] += now.Delta(start_, name);
  const irdb::BufferPoolStats pool = db_->buffer_pool().stats();
  pool_.hits += pool.hits - pool_start_.hits;
  pool_.misses += pool.misses - pool_start_.misses;
  pool_.evictions += pool.evictions - pool_start_.evictions;
  if (trace_) {
    wal_records_ += db_->wal().size() - wal_records_start_;
    wal_bytes_ += static_cast<int64_t>(irdb::SerializeWal(db_->wal()).size()) -
                  wal_bytes_start_;
  }
}

int64_t PhaseMeter::Count(const std::string& name) const {
  auto it = counts_.find(name);
  return it == counts_.end() ? 0 : it->second;
}

void ReportPhaseLayers(LayerClock* c, const PhaseMeter& m, int64_t txns,
                       Outcome* out) {
  const double n = static_cast<double>(std::max<int64_t>(txns, 1));
  auto d = [&](const char* name) { return static_cast<double>(m.Count(name)); };
  const double hits = d("irdb_proxy_plan_cache_hits_total");
  const double lookups = hits + d("irdb_proxy_plan_cache_misses_total") +
                         d("irdb_proxy_plan_cache_bypasses_total");
  out->Metric("proxy.backend_stmts_per_txn",
              d("irdb_proxy_backend_statements_total") / n, "count/txn");
  out->Metric("proxy.deps_per_txn", d("irdb_proxy_deps_recorded_total") / n,
              "count/txn");
  out->Metric("proxy.plan_cache_hit_ratio",
              lookups > 0 ? hits / lookups : 0.0, "ratio");
  const double pool_hits = static_cast<double>(m.pool().hits);
  const double pins = pool_hits + static_cast<double>(m.pool().misses);
  out->Metric("storage.page_pins_per_txn", pins / n, "count/txn");
  out->Metric("storage.pool_hit_ratio", pins > 0 ? pool_hits / pins : 0.0,
              "ratio");
  out->Metric("storage.pool_evictions_per_txn",
              static_cast<double>(m.pool().evictions) / n, "count/txn");
  out->Metric("storage.index_scans_per_txn", d("irdb_index_scans_total") / n,
              "count/txn");
  out->Metric("storage.heap_scans_per_txn", d("irdb_heap_scans_total") / n,
              "count/txn");
  out->Metric("concurrency.lock_waits_per_ktxn",
              1e3 * d("irdb_engine_lock_waits_total") / n, "count/ktxn");
  out->Metric("concurrency.deadlock_retries_per_ktxn",
              1e3 * d("irdb_engine_deadlock_aborts_total") / n, "count/ktxn");
  out->Metric("txn.wal_records_per_txn",
              static_cast<double>(m.wal_records()) / n, "count/txn");
  out->Metric("txn.wal_bytes_per_txn", static_cast<double>(m.wal_bytes()) / n,
              "B/txn");

  std::lock_guard<std::mutex> lk(c->mu);
  const double stmts = static_cast<double>(std::max<int64_t>(c->client_stmts, 1));
  out->Metric("proxy.self_us_per_stmt", (c->client_us - c->backend_us) / stmts,
              "us");
  for (const char* kind : {"select", "insert", "update", "commit"}) {
    out->Metric(std::string("engine.") + kind + "_us", Median(c->engine_us[kind]),
                "us");
  }
  const double frames = static_cast<double>(std::max<int64_t>(c->frames, 1));
  const double rtt = c->frame_rtt_us / frames;
  // The in-process wire ends in DbServer::Handle; the TCP server reports
  // its per-frame time in the net frame-latency histogram.
  const int64_t tcp_frames = m.Count("irdb_net_frame_latency_ms:count");
  const double server =
      tcp_frames > 0
          ? static_cast<double>(m.Count("irdb_net_frame_latency_ms:sum_us")) /
                static_cast<double>(tcp_frames)
          : c->server_us / static_cast<double>(std::max<int64_t>(c->server_frames, 1));
  out->Metric("net.client_rtt_us", rtt, "us");
  out->Metric("net.server_frame_us", server, "us");
  out->Metric("net.transport_us", rtt - server, "us");
  out->Metric("net.bytes_per_stmt",
              static_cast<double>(c->frame_bytes) / stmts, "B/stmt");

  // Counts reached by two independent paths must agree.
  const int64_t reg_client = m.Count("irdb_proxy_client_statements_total");
  const int64_t reg_backend = m.Count("irdb_proxy_backend_statements_total");
  out->Check(reg_client == c->client_stmts,
             "client statements: decorator saw " +
                 std::to_string(c->client_stmts) + ", registry counted " +
                 std::to_string(reg_client));
  out->Check(reg_backend == c->backend_stmts,
             "backend statements: decorator saw " +
                 std::to_string(c->backend_stmts) + ", registry counted " +
                 std::to_string(reg_backend));
  if (tcp_frames > 0) {
    const int64_t served = m.Count("irdb_net_requests_total");
    out->Check(served == c->frames,
               "frames: clients sent " + std::to_string(c->frames) +
                   ", server served " + std::to_string(served));
  } else {
    out->Check(c->server_frames == c->frames,
               "frames: clients sent " + std::to_string(c->frames) +
                   ", DbServer handled " + std::to_string(c->server_frames));
  }
  ReportSqlLayer(c->captured_sql, out);
}

void WriteTraceFiles(const Options& opt, const Outcome& out) {
  const std::string base = opt.out_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed);
  const bool ok =
      WriteFile(base + ".trace.json",
                irdb::obs::SpanTracer::Default().RenderChromeTrace()) &&
      WriteFile(base + ".layers.json", out.Json() + "\n");
  if (!ok) std::fprintf(stderr, "irbench: cannot write %s.*\n", base.c_str());
}

// --- output checks -----------------------------------------------------

std::vector<std::vector<irdb::Value>> Rows(DbConnection* conn,
                                           const std::string& sql,
                                           Outcome* out) {
  auto r = conn->Execute(sql);
  if (!r.ok()) {
    out->Check(false, "check query failed: " + sql + ": " +
                          r.status().ToString());
    return {};
  }
  return std::move(r->rows);
}

namespace {
int64_t AsInt(const irdb::Value& v) {
  if (v.is_int()) return v.as_int();
  return v.is_numeric() ? std::llround(v.as_double()) : -1;
}
double AsDouble(const irdb::Value& v) {
  return v.is_numeric() ? v.as_double() : 0.0;
}
}  // namespace

void CheckTpccConsistency(DbConnection* admin, const std::string& when,
                          Outcome* out) {
  const std::string tag = "TPC-C consistency (" + when + "): ";
  // Condition 1: W_YTD = sum(D_YTD).
  std::map<int64_t, double> d_ytd;
  for (auto& row : Rows(admin,
                        "SELECT d_w_id, SUM(d_ytd) FROM district GROUP BY "
                        "d_w_id", out)) {
    d_ytd[AsInt(row[0])] = AsDouble(row[1]);
  }
  auto warehouses = Rows(admin, "SELECT w_id, w_ytd FROM warehouse", out);
  out->Check(!warehouses.empty(), tag + "no warehouses");
  for (auto& row : warehouses) {
    const double w = AsDouble(row[1]);
    const double d = d_ytd[AsInt(row[0])];
    out->Check(std::fabs(w - d) <= 1e-6 * std::max(1.0, std::fabs(w)),
               tag + "W_YTD != sum(D_YTD) for warehouse " +
                   std::to_string(AsInt(row[0])));
  }
  // Condition 2: D_NEXT_O_ID - 1 = max(O_ID) = max(NO_O_ID).
  std::map<std::pair<int64_t, int64_t>, int64_t> max_o, max_no;
  for (auto& row : Rows(admin,
                        "SELECT o_w_id, o_d_id, MAX(o_id) FROM orders GROUP BY "
                        "o_w_id, o_d_id", out)) {
    max_o[{AsInt(row[0]), AsInt(row[1])}] = AsInt(row[2]);
  }
  for (auto& row : Rows(admin,
                        "SELECT no_w_id, no_d_id, MAX(no_o_id) FROM new_order "
                        "GROUP BY no_w_id, no_d_id", out)) {
    max_no[{AsInt(row[0]), AsInt(row[1])}] = AsInt(row[2]);
  }
  auto districts =
      Rows(admin, "SELECT d_w_id, d_id, d_next_o_id FROM district", out);
  out->Check(!districts.empty(), tag + "no districts");
  for (auto& row : districts) {
    const std::pair<int64_t, int64_t> key{AsInt(row[0]), AsInt(row[1])};
    const int64_t last = AsInt(row[2]) - 1;
    const std::string where = " in district " + std::to_string(key.first) +
                              "/" + std::to_string(key.second);
    out->Check(max_o.count(key) && max_o[key] == last,
               tag + "D_NEXT_O_ID - 1 != max(O_ID)" + where);
    // A district whose new-order rows were all delivered has no max.
    out->Check(!max_no.count(key) || max_no[key] == last,
               tag + "D_NEXT_O_ID - 1 != max(NO_O_ID)" + where);
  }
  // Condition 3: sum(O_OL_CNT) = count(order_line), per district.
  std::map<std::pair<int64_t, int64_t>, int64_t> ol_cnt, ol_rows;
  for (auto& row : Rows(admin,
                        "SELECT o_w_id, o_d_id, SUM(o_ol_cnt) FROM orders "
                        "GROUP BY o_w_id, o_d_id", out)) {
    ol_cnt[{AsInt(row[0]), AsInt(row[1])}] = AsInt(row[2]);
  }
  for (auto& row : Rows(admin,
                        "SELECT ol_w_id, ol_d_id, COUNT(*) FROM order_line "
                        "GROUP BY ol_w_id, ol_d_id", out)) {
    ol_rows[{AsInt(row[0]), AsInt(row[1])}] = AsInt(row[2]);
  }
  out->Check(!ol_cnt.empty() && ol_cnt == ol_rows,
             tag + "sum(O_OL_CNT) != count(order_line)");
}

void CheckTracking(DbConnection* admin, int64_t expected_commits,
                   Outcome* out) {
  auto distinct =
      Rows(admin, "SELECT COUNT(DISTINCT tr_id) FROM trans_dep", out);
  const int64_t n = distinct.empty() ? -1 : AsInt(distinct[0][0]);
  out->Check(n == expected_commits,
             "trans_dep holds " + std::to_string(n) +
                 " distinct tr_ids, harness counted " +
                 std::to_string(expected_commits) + " commits");
  auto gaps = Rows(admin, "SELECT COUNT(*) FROM tracking_gaps", out);
  out->Check(!gaps.empty() && AsInt(gaps[0][0]) == 0,
             "tracking_gaps is not empty");
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::ofstream f(path, std::ios::binary);
  f << text;
  return static_cast<bool>(f);
}

}  // namespace irbench
