// End-to-end intrusion-resilience tests, parameterized over the three DBMS
// flavors (the paper's portability claim) and both proxy architectures.
//
// The core soundness check: run a history containing an attack, repair, and
// compare state hashes against a replay of the same history with the
// attack's (and its dependents') statements omitted.
#include <gtest/gtest.h>

#include "core/resilient_db.h"
#include "obs/catalog.h"
#include "proxy/rewriter.h"
#include "repair/dba_policy.h"

namespace irdb {
namespace {

FlavorTraits TraitsFor(const std::string& name) {
  if (name == "postgres") return FlavorTraits::Postgres();
  if (name == "oracle") return FlavorTraits::Oracle();
  return FlavorTraits::Sybase();
}

class RepairE2ETest : public ::testing::TestWithParam<std::string> {
 protected:
  static ResultSet Must(DbConnection* conn, const std::string& sql) {
    auto r = conn->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(r).value() : ResultSet{};
  }
};

// A bank-style scenario: the attack credits an account; a later legitimate
// transaction reads an *unrelated* account (independent) while another reads
// the corrupted one (dependent). Repair must undo the attack and the
// dependent transaction, preserving the independent one.
TEST_P(RepairE2ETest, SelectiveUndoPreservesIndependentWork) {
  DeploymentOptions opts;
  opts.traits = TraitsFor(GetParam());
  opts.arch = ProxyArch::kSingleProxy;
  ResilientDb rdb(opts);
  ASSERT_TRUE(rdb.Bootstrap().ok());
  auto conn_or = rdb.Connect();
  ASSERT_TRUE(conn_or.ok());
  DbConnection* conn = conn_or->get();

  Must(conn, "CREATE TABLE account (id INTEGER NOT NULL, owner VARCHAR(16),"
             " balance DOUBLE)");
  Must(conn, "BEGIN");
  conn->SetAnnotation("Setup");
  Must(conn, "INSERT INTO account(id, owner, balance) VALUES"
             " (1, 'alice', 100.0), (2, 'bob', 200.0), (3, 'carol', 300.0)");
  Must(conn, "COMMIT");

  // Attack: credit alice's account.
  Must(conn, "BEGIN");
  conn->SetAnnotation("Attack");
  Must(conn, "UPDATE account SET balance = balance + 1000 WHERE id = 1");
  Must(conn, "COMMIT");

  // Dependent legitimate txn: moves half of alice's (corrupted) balance to
  // bob — it read the polluted row.
  Must(conn, "BEGIN");
  conn->SetAnnotation("DependentTransfer");
  ResultSet bal = Must(conn, "SELECT balance FROM account WHERE id = 1");
  ASSERT_EQ(bal.rows.size(), 1u);
  double half = bal.rows[0][0].as_double() / 2;
  Must(conn, "UPDATE account SET balance = balance - " + std::to_string(half) +
             " WHERE id = 1");
  Must(conn, "UPDATE account SET balance = balance + " + std::to_string(half) +
             " WHERE id = 2");
  Must(conn, "COMMIT");

  // Independent legitimate txn: tweaks carol only.
  Must(conn, "BEGIN");
  conn->SetAnnotation("IndependentRaise");
  Must(conn, "UPDATE account SET balance = balance + 7 WHERE id = 3");
  Must(conn, "COMMIT");

  // Identify the attack by its annot label.
  auto analysis = rdb.repair().Analyze();
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  int64_t attack_id = -1, dependent_id = -1, independent_id = -1;
  for (int64_t node : analysis->graph.nodes()) {
    std::string label = analysis->graph.Label(node);
    if (label == "Attack") attack_id = node;
    if (label == "DependentTransfer") dependent_id = node;
    if (label == "IndependentRaise") independent_id = node;
  }
  ASSERT_GT(attack_id, 0);
  ASSERT_GT(dependent_id, 0);
  ASSERT_GT(independent_id, 0);

  // The dependency graph must contain Attack -> DependentTransfer and not
  // reach IndependentRaise.
  auto policy = repair::DbaPolicy::TrackEverything();
  std::set<int64_t> undo =
      rdb.repair().ComputeUndoSet(*analysis, {attack_id}, policy);
  EXPECT_TRUE(undo.count(attack_id));
  EXPECT_TRUE(undo.count(dependent_id));
  EXPECT_FALSE(undo.count(independent_id));

  auto report = rdb.repair().Repair({attack_id}, policy);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->undo_set.size(), 2u);

  // Post-repair: alice and bob back to their pre-attack balances; carol
  // keeps the independent raise.
  ResultSet rs = Must(rdb.Admin(),
                      "SELECT id, balance FROM account ORDER BY id");
  ASSERT_EQ(rs.rows.size(), 3u);
  EXPECT_DOUBLE_EQ(rs.rows[0][1].as_double(), 100.0);
  EXPECT_DOUBLE_EQ(rs.rows[1][1].as_double(), 200.0);
  EXPECT_DOUBLE_EQ(rs.rows[2][1].as_double(), 307.0);
}

// Repair must handle INSERT/DELETE compensation with row-ID remapping: the
// attack deletes rows; a dependent transaction re-reads and inserts; undo
// walks backwards re-inserting and re-deleting with fresh row IDs.
TEST_P(RepairE2ETest, InsertDeleteCompensationWithRemap) {
  DeploymentOptions opts;
  opts.traits = TraitsFor(GetParam());
  opts.arch = ProxyArch::kSingleProxy;
  ResilientDb rdb(opts);
  ASSERT_TRUE(rdb.Bootstrap().ok());
  auto conn_or = rdb.Connect();
  ASSERT_TRUE(conn_or.ok());
  DbConnection* conn = conn_or->get();

  Must(conn, "CREATE TABLE inv (sku INTEGER, qty INTEGER)");
  Must(conn, "BEGIN");
  conn->SetAnnotation("Setup");
  Must(conn, "INSERT INTO inv(sku, qty) VALUES (1, 5), (2, 6), (3, 7)");
  Must(conn, "COMMIT");
  const uint64_t clean_hash = rdb.db().StateHash({"inv"});

  // Attack: wipe sku 2 and forge a bogus row.
  Must(conn, "BEGIN");
  conn->SetAnnotation("Attack");
  Must(conn, "DELETE FROM inv WHERE sku = 2");
  Must(conn, "INSERT INTO inv(sku, qty) VALUES (99, 1000)");
  Must(conn, "COMMIT");

  // Dependent txn: reads the bogus row and doubles it.
  Must(conn, "BEGIN");
  conn->SetAnnotation("Dependent");
  Must(conn, "SELECT qty FROM inv WHERE sku = 99");
  Must(conn, "UPDATE inv SET qty = qty * 2 WHERE sku = 99");
  Must(conn, "COMMIT");

  auto analysis = rdb.repair().Analyze();
  ASSERT_TRUE(analysis.ok());
  int64_t attack_id = -1;
  for (int64_t node : analysis->graph.nodes()) {
    if (analysis->graph.Label(node) == "Attack") attack_id = node;
  }
  ASSERT_GT(attack_id, 0);

  auto report =
      rdb.repair().Repair({attack_id}, repair::DbaPolicy::TrackEverything());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->undo_set.size(), 2u);

  // Back to the clean state (trid of restored rows equals the setup txn's).
  EXPECT_EQ(rdb.db().StateHash({"inv"}), clean_hash);
  ResultSet rs = Must(rdb.Admin(), "SELECT sku, qty FROM inv ORDER BY sku");
  ASSERT_EQ(rs.rows.size(), 3u);
  EXPECT_EQ(rs.rows[1][0].as_int(), 2);
  EXPECT_EQ(rs.rows[1][1].as_int(), 6);
}

// The dual-proxy architecture (Fig. 2) must produce identical tracking.
TEST_P(RepairE2ETest, DualProxyTracksLikeSingleProxy) {
  DeploymentOptions opts;
  opts.traits = TraitsFor(GetParam());
  opts.arch = ProxyArch::kDualProxy;
  ResilientDb rdb(opts);
  ASSERT_TRUE(rdb.Bootstrap().ok());
  auto conn_or = rdb.Connect();
  ASSERT_TRUE(conn_or.ok());
  DbConnection* conn = conn_or->get();

  Must(conn, "CREATE TABLE t (a INTEGER)");
  Must(conn, "BEGIN");
  conn->SetAnnotation("Writer");
  Must(conn, "INSERT INTO t(a) VALUES (1)");
  Must(conn, "COMMIT");
  Must(conn, "BEGIN");
  conn->SetAnnotation("Reader");
  Must(conn, "SELECT a FROM t");
  Must(conn, "COMMIT");

  auto analysis = rdb.repair().Analyze();
  ASSERT_TRUE(analysis.ok());
  // Reader must depend on Writer through table t.
  bool found = false;
  for (const auto& e : analysis->graph.edges()) {
    if (analysis->graph.Label(e.reader) == "Reader" &&
        analysis->graph.Label(e.writer) == "Writer" && e.table == "t") {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// Offline compensation addresses each row through its primary key (with
// the row address kept as the deciding filter): undoing an attack that
// rewrote many rows of one table costs index probes, not one heap scan per
// compensating statement.
TEST_P(RepairE2ETest, OfflineCompensationFindsRowsThroughPrimaryKey) {
  DeploymentOptions opts;
  opts.traits = TraitsFor(GetParam());
  ResilientDb rdb(opts);
  ASSERT_TRUE(rdb.Bootstrap().ok());
  auto conn_or = rdb.Connect();
  ASSERT_TRUE(conn_or.ok());
  DbConnection* conn = conn_or->get();

  constexpr int kRows = 20;
  Must(conn, "CREATE TABLE ledger (w INTEGER NOT NULL, id INTEGER NOT NULL,"
             " v INTEGER, PRIMARY KEY (w, id))");
  Must(conn, "BEGIN");
  conn->SetAnnotation("Setup");
  for (int id = 1; id <= kRows; ++id) {
    Must(conn, "INSERT INTO ledger(w, id, v) VALUES (1, " +
                   std::to_string(id) + ", " + std::to_string(id) + ")");
  }
  Must(conn, "COMMIT");
  const uint64_t clean = rdb.db().StateHash({"ledger"}, {"trid", "rid"});

  Must(conn, "BEGIN");
  conn->SetAnnotation("Attack");
  for (int id = 1; id <= kRows; ++id) {
    Must(conn, "UPDATE ledger SET v = v + 1000 WHERE w = 1 AND id = " +
                   std::to_string(id));
  }
  Must(conn, "COMMIT");

  auto analysis = rdb.repair().Analyze();
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  int64_t attack = -1;
  for (int64_t node : analysis->graph.nodes()) {
    if (analysis->graph.Label(node) == "Attack") attack = node;
  }
  ASSERT_GT(attack, 0);
  const auto undo = rdb.repair().ComputeUndoSet(
      *analysis, {attack}, repair::DbaPolicy::TrackEverything());

  const obs::Metrics& m = obs::Metrics::Get();
  const int64_t heap0 = obs::CounterValue(m.heap_scans);
  const int64_t index0 = obs::CounterValue(m.index_scans);
  auto report = rdb.repair().CompensateUndoSet(*analysis, undo);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->compensating_updates, kRows);
  EXPECT_EQ(rdb.db().StateHash({"ledger"}, {"trid", "rid"}), clean);
  // One scan resolves the ledger rows' keys by address, and the tracking
  // metadata tables (no primary key) are scanned once per compensating
  // delete; every ledger update goes through the index.
  EXPECT_LE(obs::CounterValue(m.heap_scans) - heap0, 3);
  EXPECT_GE(obs::CounterValue(m.index_scans) - index0, kRows);
}

// The key literals only steer the access path: when a kept transaction has
// since moved the row to another key, the compensating statement still
// finds the row by its address.
TEST_P(RepairE2ETest, OfflineCompensationFollowsAddressWhenKeyMoved) {
  DeploymentOptions opts;
  opts.traits = TraitsFor(GetParam());
  ResilientDb rdb(opts);
  ASSERT_TRUE(rdb.Bootstrap().ok());
  auto conn_or = rdb.Connect();
  ASSERT_TRUE(conn_or.ok());
  DbConnection* conn = conn_or->get();

  Must(conn, "CREATE TABLE ledger (w INTEGER NOT NULL, id INTEGER NOT NULL,"
             " v INTEGER, PRIMARY KEY (w, id))");
  Must(conn, "BEGIN");
  conn->SetAnnotation("Attack");
  Must(conn, "INSERT INTO ledger(w, id, v) VALUES (1, 1, 666)");
  Must(conn, "COMMIT");
  Must(conn, "BEGIN");
  conn->SetAnnotation("Rekey");
  Must(conn, "UPDATE ledger SET id = 5 WHERE w = 1 AND id = 1");
  Must(conn, "COMMIT");

  auto analysis = rdb.repair().Analyze();
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  int64_t attack = -1;
  for (int64_t node : analysis->graph.nodes()) {
    if (analysis->graph.Label(node) == "Attack") attack = node;
  }
  ASSERT_GT(attack, 0);
  // Undo the attack alone, as a DBA policy that keeps the re-keying
  // transaction would: the insert's key literals (1, 1) are stale.
  auto report = rdb.repair().CompensateUndoSet(*analysis, {attack});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->compensating_deletes, 1);
  ResultSet left = Must(conn, "SELECT COUNT(*) FROM ledger");
  ASSERT_EQ(left.rows.size(), 1u);
  EXPECT_EQ(left.rows[0][0].as_int(), 0);
}

INSTANTIATE_TEST_SUITE_P(AllFlavors, RepairE2ETest,
                         ::testing::Values("postgres", "oracle", "sybase"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace irdb
