// Serve-through repair: quarantine gate + online-repair edge cases
// (DESIGN.md §5g).
//
// Covers the QuarantineManager slice semantics, the engine's lock-plan
// gate (clean keys keep flowing, quarantined slices get retryable
// kUnavailable), the open-transaction pin-abort path (no deadlock against
// the repair's drain), and the RepairOnline edge cases from the issue:
// empty closure (no-op, quarantine never visible afterwards), whole-table
// closure, overlapping repairs rejected with a clear status, and online
// repair converging to the same state as offline repair.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "concurrency/quarantine.h"
#include "core/resilient_db.h"
#include "engine/database.h"
#include "repair/repair_engine.h"
#include "wire/connection.h"

namespace irdb {
namespace {

using concurrency::LockMode;
using concurrency::QuarantineManager;
using concurrency::QuarantineSlice;
using concurrency::ResourceId;

constexpr LockMode kIS = LockMode::kIntentionShared;
constexpr LockMode kIX = LockMode::kIntentionExclusive;
constexpr LockMode kS = LockMode::kShared;
constexpr LockMode kSIX = LockMode::kSharedIntentionExclusive;
constexpr LockMode kX = LockMode::kExclusive;

ResultSet Must(DbConnection* conn, const std::string& sql) {
  auto r = conn->Execute(sql);
  EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  return r.ok() ? std::move(r).value() : ResultSet{};
}

bool IsQuarantineReject(const Status& s) {
  return s.code() == StatusCode::kUnavailable &&
         s.message().rfind(kQuarantineTag, 0) == 0;
}

// ------------------------------------------------------- manager semantics

TEST(QuarantineManagerTest, SingleClaimUntilEnd) {
  QuarantineManager qm;
  EXPECT_FALSE(qm.active());
  ASSERT_TRUE(qm.Begin().ok());
  EXPECT_TRUE(qm.active());
  Status second = qm.Begin();
  EXPECT_EQ(second.code(), StatusCode::kFailedPrecondition);
  qm.End();
  EXPECT_FALSE(qm.active());
  EXPECT_TRUE(qm.Begin().ok());  // claim reusable after release
  qm.End();
}

TEST(QuarantineManagerTest, BlocksFollowsSliceGranularity) {
  QuarantineManager qm;
  ASSERT_TRUE(qm.Begin().ok());
  const uint64_t b1 = ResourceId::Key(1, 10).key_hash;
  const uint64_t b2 = ResourceId::Key(1, 12).key_hash;
  qm.Add({{1, b1}, {2, 0}});  // bucket of table 1, all of table 2

  // Bucket slice: own bucket and coarse table locks conflict; intention
  // modes and other buckets pass (their key locks are checked on their own).
  EXPECT_TRUE(qm.Blocks(ResourceId::Key(1, 10), kX));
  EXPECT_TRUE(qm.Blocks(ResourceId::Key(1, 10), kS));
  EXPECT_FALSE(qm.Blocks(ResourceId::Key(1, 12), kX));
  EXPECT_TRUE(qm.Blocks(ResourceId::Table(1), kS));
  EXPECT_TRUE(qm.Blocks(ResourceId::Table(1), kSIX));
  EXPECT_TRUE(qm.Blocks(ResourceId::Table(1), kX));
  EXPECT_FALSE(qm.Blocks(ResourceId::Table(1), kIS));
  EXPECT_FALSE(qm.Blocks(ResourceId::Table(1), kIX));

  // Whole-table slice: everything on the table conflicts.
  EXPECT_TRUE(qm.Blocks(ResourceId::Table(2), kIS));
  EXPECT_TRUE(qm.Blocks(ResourceId::Table(2), kIX));
  EXPECT_TRUE(qm.Blocks(ResourceId::Key(2, 99), kS));

  // Unrelated table untouched.
  EXPECT_FALSE(qm.Blocks(ResourceId::Table(3), kX));
  EXPECT_FALSE(qm.Blocks(ResourceId::Key(3, 10), kX));

  // Incremental release: bucket first, then the whole table.
  EXPECT_EQ(qm.ReleaseKey(1, b1), 1);
  EXPECT_FALSE(qm.Blocks(ResourceId::Key(1, 10), kX));
  EXPECT_EQ(qm.ReleaseKey(1, b2), 0);  // never installed
  EXPECT_EQ(qm.ReleaseTable(2), 1);
  EXPECT_FALSE(qm.Blocks(ResourceId::Table(2), kIX));

  const concurrency::QuarantineStats st = qm.stats();
  EXPECT_TRUE(st.active);
  EXPECT_EQ(st.slices, 0);
  EXPECT_EQ(st.installed_total, 2);
  EXPECT_EQ(st.released_total, 2);
  qm.End();
}

TEST(QuarantineManagerTest, WholeTableSubsumesBucketsAndDrainPlan) {
  QuarantineManager qm;
  ASSERT_TRUE(qm.Begin().ok());
  const uint64_t b = ResourceId::Key(4, 6).key_hash;
  EXPECT_EQ(qm.Add({{4, b}}), 1);
  EXPECT_EQ(qm.Add({{4, b}}), 0);  // duplicate ignored
  EXPECT_EQ(qm.Add({{4, 0}}), 1);  // whole table subsumes the bucket
  EXPECT_EQ(qm.stats().slices, 1);

  auto plan = qm.DrainPlan();
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].second, kX);  // whole table → table X
  qm.End();
  EXPECT_EQ(qm.stats().slices, 0);
}

TEST(QuarantineManagerTest, PartitionGateAndDrainFollowFencedPartitions) {
  QuarantineManager qm;
  ASSERT_TRUE(qm.Begin().ok());
  const uint64_t b = ResourceId::Key(5, 11).key_hash;
  const uint64_t p1 = ResourceId::Partition(5, 100).key_hash;
  const uint64_t p2 = ResourceId::Partition(5, 200).key_hash;
  EXPECT_EQ(qm.Add({{5, b, p1}}), 1);

  // Partition scans and partition-wide writes over the fenced bucket are
  // refused; intention modes (judged per key) and other partitions pass.
  EXPECT_TRUE(qm.Blocks(ResourceId{5, p1}, kS));
  EXPECT_TRUE(qm.Blocks(ResourceId{5, p1}, kSIX));
  EXPECT_TRUE(qm.Blocks(ResourceId{5, p1}, kX));
  EXPECT_FALSE(qm.Blocks(ResourceId{5, p1}, kIS));
  EXPECT_FALSE(qm.Blocks(ResourceId{5, p1}, kIX));
  EXPECT_FALSE(qm.Blocks(ResourceId{5, p2}, kS));
  EXPECT_FALSE(qm.Blocks(ResourceId{5, p2}, kX));

  // The drain goes top-down and waits out partition scanners with IX.
  const auto plan = qm.DrainPlan();
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_TRUE(plan[0].first == ResourceId::Table(5));
  EXPECT_EQ(plan[0].second, kIX);
  EXPECT_TRUE(plan[1].first == (ResourceId{5, p1}));
  EXPECT_EQ(plan[1].second, kIX);
  EXPECT_TRUE(plan[2].first == (ResourceId{5, b}));
  EXPECT_EQ(plan[2].second, kX);

  EXPECT_EQ(qm.ReleaseKey(5, b), 1);
  EXPECT_FALSE(qm.Blocks(ResourceId{5, p1}, kS));
  qm.End();
}

// ----------------------------------------------------------- engine gate

class QuarantineGateTest : public ::testing::Test {
 protected:
  QuarantineGateTest() : db_(FlavorTraits::Sybase()) {}

  void Seed() {
    DirectConnection conn(&db_);
    Must(&conn, "CREATE TABLE account (id INTEGER, owner VARCHAR(16),"
                " balance DOUBLE, PRIMARY KEY (id))");
    Must(&conn, "INSERT INTO account(id, owner, balance) VALUES"
                " (1, 'alice', 100.0), (2, 'bob', 200.0), (3, 'carol', 300.0)");
  }

  uint64_t BucketOf(int id) {
    auto h = db_.KeyHashForValues("account", {{"id", Value::Int(id)}});
    EXPECT_TRUE(h.has_value());
    return h.value_or(0);
  }

  int32_t TableId() {
    auto id = db_.catalog().TableId("account");
    EXPECT_TRUE(id.ok());
    return id.ok() ? *id : -1;
  }

  Database db_;
};

TEST_F(QuarantineGateTest, RejectsQuarantinedSliceServesCleanKeys) {
  Seed();
  auto& qm = db_.quarantine();
  ASSERT_TRUE(qm.Begin().ok());
  qm.Add({{TableId(), ResourceId::Key(TableId(), BucketOf(1)).key_hash}});

  DirectConnection conn(&db_);
  // Quarantined key: retryable, tagged, nothing executed.
  auto hit = conn.Execute("UPDATE account SET balance = 0 WHERE id = 1");
  ASSERT_FALSE(hit.ok());
  EXPECT_TRUE(IsQuarantineReject(hit.status())) << hit.status().ToString();
  EXPECT_TRUE(hit.status().IsRetryable());

  // Clean key in the same table: point write and point read both pass.
  Must(&conn, "UPDATE account SET balance = 250 WHERE id = 2");
  ResultSet rs = Must(&conn, "SELECT balance FROM account WHERE id = 2");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rs.rows[0][0].as_double(), 250.0);

  // Full scans take table S and must wait out the repair.
  auto scan = conn.Execute("SELECT * FROM account");
  ASSERT_FALSE(scan.ok());
  EXPECT_TRUE(IsQuarantineReject(scan.status()));

  // Sessions marked exempt (the repair's own lanes) bypass the gate.
  DirectConnection lane(&db_);
  db_.SetSessionQuarantineExempt(lane.session_id(), true);
  Must(&lane, "UPDATE account SET balance = 111 WHERE id = 1");

  qm.End();
  EXPECT_GE(qm.stats().rejects_total, 2);

  // Gate fully open again.
  rs = Must(&conn, "SELECT balance FROM account WHERE id = 1");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rs.rows[0][0].as_double(), 111.0);
}

TEST_F(QuarantineGateTest, OpenTxnPinningSliceAbortsRetryablyNotDeadlock) {
  Seed();
  DirectConnection pinner(&db_);
  Must(&pinner, "BEGIN");
  // Holds key X on id=1 when the quarantine arrives.
  Must(&pinner, "UPDATE account SET balance = balance + 5 WHERE id = 1");

  auto& qm = db_.quarantine();
  ASSERT_TRUE(qm.Begin().ok());
  qm.Add({{TableId(), ResourceId::Key(TableId(), BucketOf(1)).key_hash}});

  // Its next statement — even one touching only clean keys — must be turned
  // away and the whole transaction rolled back, releasing the pinned lock.
  auto next = pinner.Execute("UPDATE account SET balance = 1 WHERE id = 3");
  ASSERT_FALSE(next.ok());
  EXPECT_TRUE(IsQuarantineReject(next.status())) << next.status().ToString();
  EXPECT_TRUE(next.status().IsRetryable());

  // ROLLBACK acknowledges the forced abort without error.
  EXPECT_TRUE(pinner.Execute("ROLLBACK").ok());

  // The pinned lock is gone: a repair-lane connection can X the slice
  // immediately — no deadlock, no wait on the dead transaction.
  DirectConnection lane(&db_);
  db_.SetSessionQuarantineExempt(lane.session_id(), true);
  Must(&lane, "UPDATE account SET balance = 100 WHERE id = 1");

  // The aborted session keeps serving clean keys while the repair runs.
  Must(&pinner, "BEGIN");
  Must(&pinner, "UPDATE account SET balance = 42 WHERE id = 3");
  Must(&pinner, "COMMIT");

  qm.End();
  ResultSet rs = Must(&pinner, "SELECT balance FROM account WHERE id = 1");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rs.rows[0][0].as_double(), 100.0);  // rollback held
}

TEST_F(QuarantineGateTest, PartitionScannerIsDrainedAndNewScansRejected) {
  DirectConnection setup(&db_);
  Must(&setup, "CREATE TABLE ledger (w INTEGER, id INTEGER, v INTEGER,"
               " PRIMARY KEY (w, id))");
  Must(&setup, "INSERT INTO ledger(w, id, v) VALUES (1, 1, 10), (1, 2, 20),"
               " (2, 1, 30)");
  auto tid = db_.catalog().TableId("ledger");
  ASSERT_TRUE(tid.ok());
  const std::vector<std::pair<std::string, Value>> fenced = {
      {"w", Value::Int(1)}, {"id", Value::Int(1)}};
  auto key = db_.KeyHashForValues("ledger", fenced);
  auto part = db_.PartitionHashForValues("ledger", fenced);
  ASSERT_TRUE(key.has_value() && part.has_value());
  const ResourceId partition = ResourceId::Partition(*tid, *part);

  // In flight when the quarantine arrives: a partition-S scan of w = 1.
  DirectConnection scanner(&db_);
  Must(&scanner, "BEGIN");
  Must(&scanner, "SELECT SUM(v) FROM ledger WHERE w = 1");

  auto& qm = db_.quarantine();
  ASSERT_TRUE(qm.Begin().ok());
  qm.Add({{*tid, ResourceId::Key(*tid, *key).key_hash, partition.key_hash}});

  // The drain's partition IX cannot pass the scanner's S ...
  auto& lm = db_.txn_manager().locks();
  const int64_t drain = db_.AllocateTxnId();
  db_.txn_manager().Begin(drain);
  EXPECT_FALSE(lm.TryAcquire(drain, partition, kIX));
  // ... and the scanner pins the fenced bucket through that S, so the
  // drain evicts it; then every drain lock is free.
  EXPECT_EQ(db_.EvictQuarantinePinnedTxns(), 1);
  for (const auto& [res, mode] : qm.DrainPlan()) {
    EXPECT_TRUE(lm.TryAcquire(drain, res, mode));
  }
  db_.txn_manager().Abort(drain);

  // The evicted scanner hears about it, retryably, on its next statement.
  auto next = scanner.Execute("SELECT v FROM ledger WHERE w = 2 AND id = 1");
  ASSERT_FALSE(next.ok());
  EXPECT_TRUE(IsQuarantineReject(next.status())) << next.status().ToString();
  EXPECT_TRUE(scanner.Execute("ROLLBACK").ok());

  // New scans of the fenced partition are rejected; the other partition
  // and the partition's clean keys are served.
  DirectConnection conn(&db_);
  auto scan = conn.Execute("SELECT SUM(v) FROM ledger WHERE w = 1");
  ASSERT_FALSE(scan.ok());
  EXPECT_TRUE(IsQuarantineReject(scan.status())) << scan.status().ToString();
  auto write = conn.Execute("UPDATE ledger SET v = 0 WHERE w = 1");
  ASSERT_FALSE(write.ok());
  EXPECT_TRUE(IsQuarantineReject(write.status()));
  ResultSet other = Must(&conn, "SELECT SUM(v) FROM ledger WHERE w = 2");
  ASSERT_EQ(other.rows.size(), 1u);
  EXPECT_EQ(other.rows[0][0].as_int(), 30);
  ResultSet clean = Must(&conn, "SELECT v FROM ledger WHERE w = 1 AND id = 2");
  ASSERT_EQ(clean.rows.size(), 1u);
  EXPECT_EQ(clean.rows[0][0].as_int(), 20);
  qm.End();
  Must(&conn, "SELECT SUM(v) FROM ledger WHERE w = 1");
}

TEST_F(QuarantineGateTest, DropTableOfQuarantinedSliceRejected) {
  Seed();
  {
    DirectConnection conn(&db_);
    Must(&conn, "CREATE TABLE scratch (a INTEGER)");
  }
  auto& qm = db_.quarantine();
  ASSERT_TRUE(qm.Begin().ok());
  qm.Add({{TableId(), ResourceId::Key(TableId(), BucketOf(1)).key_hash}});

  DirectConnection conn(&db_);
  auto drop = conn.Execute("DROP TABLE account");
  ASSERT_FALSE(drop.ok());
  EXPECT_TRUE(IsQuarantineReject(drop.status()));
  Must(&conn, "DROP TABLE scratch");  // unrelated DDL unaffected
  qm.End();
  Must(&conn, "DROP TABLE account");
}

// ------------------------------------------------------ RepairOnline edges

struct Deployment {
  explicit Deployment(ProxyArch arch = ProxyArch::kSingleProxy) {
    DeploymentOptions opts;
    opts.traits = FlavorTraits::Sybase();
    opts.arch = arch;
    rdb = std::make_unique<ResilientDb>(opts);
    EXPECT_TRUE(rdb->Bootstrap().ok());
    auto c = rdb->Connect();
    EXPECT_TRUE(c.ok());
    conn = std::move(c).value();
  }

  // Bank history with a PK'd table: attack on id=1, dependent transfer to
  // id=2, independent raise on id=3.
  void RunBankHistory() {
    Must(conn.get(), "CREATE TABLE account (id INTEGER, owner VARCHAR(16),"
                     " balance DOUBLE, PRIMARY KEY (id))");
    Must(conn.get(), "BEGIN");
    conn->SetAnnotation("Setup");
    Must(conn.get(), "INSERT INTO account(id, owner, balance) VALUES"
                     " (1, 'alice', 100.0), (2, 'bob', 200.0),"
                     " (3, 'carol', 300.0)");
    Must(conn.get(), "COMMIT");

    Must(conn.get(), "BEGIN");
    conn->SetAnnotation("Attack");
    Must(conn.get(),
         "UPDATE account SET balance = balance + 1000 WHERE id = 1");
    Must(conn.get(), "COMMIT");

    Must(conn.get(), "BEGIN");
    conn->SetAnnotation("Dependent");
    ResultSet bal =
        Must(conn.get(), "SELECT balance FROM account WHERE id = 1");
    EXPECT_EQ(bal.rows.size(), 1u);
    Must(conn.get(),
         "UPDATE account SET balance = balance + 50 WHERE id = 2");
    Must(conn.get(), "COMMIT");

    Must(conn.get(), "BEGIN");
    conn->SetAnnotation("Independent");
    Must(conn.get(),
         "UPDATE account SET balance = balance + 7 WHERE id = 3");
    Must(conn.get(), "COMMIT");
  }

  int64_t FindByLabel(const std::string& label) {
    auto analysis = rdb->repair().Analyze();
    EXPECT_TRUE(analysis.ok()) << analysis.status().ToString();
    if (!analysis.ok()) return -1;
    for (int64_t node : analysis->graph.nodes()) {
      if (analysis->graph.Label(node) == label) return node;
    }
    return -1;
  }

  uint64_t Hash(const std::vector<std::string>& tables) {
    return rdb->db().StateHash(tables, {"trid", "rid"});
  }

  std::unique_ptr<ResilientDb> rdb;
  std::unique_ptr<DbConnection> conn;
};

TEST(RepairOnlineTest, EmptyClosureIsNoopAndReleasesEverything) {
  Deployment d;
  d.RunBankHistory();
  const uint64_t before = d.Hash({"account"});

  auto policy = repair::DbaPolicy::TrackEverything();
  auto rep = d.rdb->repair().RepairOnline({}, policy);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_EQ(rep->rounds, 1);
  EXPECT_EQ(rep->slices_installed, 0);
  EXPECT_EQ(rep->lanes, 0);
  EXPECT_EQ(rep->repair.undo_set.size(), 0u);

  // The claim is gone and the state untouched: traffic flows as if the
  // repair never happened.
  EXPECT_FALSE(d.rdb->db().quarantine().active());
  EXPECT_EQ(d.Hash({"account"}), before);
  Must(d.conn.get(), "UPDATE account SET balance = balance WHERE id = 1");

  // A second online repair can claim the slot right away.
  auto again = d.rdb->repair().RepairOnline({}, policy);
  EXPECT_TRUE(again.ok()) << again.status().ToString();
}

TEST(RepairOnlineTest, OverlappingRepairsRejectedWithClearStatus) {
  Deployment d;
  d.RunBankHistory();
  const int64_t attack = d.FindByLabel("Attack");
  ASSERT_GT(attack, 0);
  auto policy = repair::DbaPolicy::TrackEverything();

  // Another repair holds the quarantine: the second claimant is told
  // exactly why it cannot start, and nothing is healed behind the first
  // one's back.
  ASSERT_TRUE(d.rdb->db().quarantine().Begin().ok());
  auto rep = d.rdb->repair().RepairOnline({attack}, policy);
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.status().code(), StatusCode::kFailedPrecondition);
  d.rdb->db().quarantine().End();

  // With the slot free the same request goes through.
  auto rep2 = d.rdb->repair().RepairOnline({attack}, policy);
  ASSERT_TRUE(rep2.ok()) << rep2.status().ToString();
  EXPECT_GE(rep2->slices_installed, 1);
  EXPECT_EQ(rep2->slices_released, rep2->slices_installed);
  EXPECT_FALSE(d.rdb->db().quarantine().active());
}

TEST(RepairOnlineTest, KeyedClosureMatchesOfflineRepair) {
  Deployment online, offline;
  online.RunBankHistory();
  offline.RunBankHistory();
  auto policy = repair::DbaPolicy::TrackEverything();

  const int64_t on_attack = online.FindByLabel("Attack");
  const int64_t off_attack = offline.FindByLabel("Attack");
  ASSERT_GT(on_attack, 0);
  ASSERT_GT(off_attack, 0);

  auto off = offline.rdb->repair().Repair({off_attack}, policy);
  ASSERT_TRUE(off.ok()) << off.status().ToString();

  auto on = online.rdb->repair().RepairOnline({on_attack}, policy);
  ASSERT_TRUE(on.ok()) << on.status().ToString();

  // Same undo set, same healed state — serve-through changes availability,
  // not the repair's outcome.
  EXPECT_EQ(on->repair.undo_set, off->undo_set);
  EXPECT_EQ(online.Hash({"account"}), offline.Hash({"account"}));
  // The PK'd table quarantines at bucket granularity, and every slice
  // installed was released on the way out.
  EXPECT_GE(on->key_bucket_slices, 1);
  EXPECT_EQ(on->fallback_whole_tables, 0);
  EXPECT_EQ(on->slices_released, on->slices_installed);
  EXPECT_FALSE(online.rdb->db().quarantine().active());

  ResultSet rs =
      Must(online.conn.get(), "SELECT balance FROM account WHERE id = 3");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rs.rows[0][0].as_double(), 307.0);  // independent kept
}

TEST(RepairOnlineTest, TableWithoutKeyQuarantinesWholeTable) {
  Deployment d;
  // No PRIMARY KEY: the partition cannot be sliced below the table.
  Must(d.conn.get(), "CREATE TABLE blob (tag INTEGER, note VARCHAR(16))");
  Must(d.conn.get(), "BEGIN");
  d.conn->SetAnnotation("Setup");
  Must(d.conn.get(), "INSERT INTO blob(tag, note) VALUES (1, 'keep')");
  Must(d.conn.get(), "COMMIT");
  const uint64_t clean = d.Hash({"blob"});

  Must(d.conn.get(), "BEGIN");
  d.conn->SetAnnotation("Attack");
  Must(d.conn.get(), "INSERT INTO blob(tag, note) VALUES (2, 'forged')");
  Must(d.conn.get(), "COMMIT");

  const int64_t attack = d.FindByLabel("Attack");
  ASSERT_GT(attack, 0);
  auto rep = d.rdb->repair().RepairOnline(
      {attack}, repair::DbaPolicy::TrackEverything());
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_GE(rep->whole_table_slices, 1);
  EXPECT_GE(rep->fallback_whole_tables, 1);
  EXPECT_EQ(rep->slices_released, rep->slices_installed);
  EXPECT_FALSE(d.rdb->db().quarantine().active());
  EXPECT_EQ(d.Hash({"blob"}), clean);
}

// A live session that pinned a quarantined key must be evicted by
// RepairOnline itself (gate + drain), not deadlock the repair — and its
// client recovers with ROLLBACK + retry once the slice is released.
TEST(RepairOnlineTest, ServesThroughWhileEvictingPinnedTxn) {
  Deployment d;
  d.RunBankHistory();
  const int64_t attack = d.FindByLabel("Attack");
  ASSERT_GT(attack, 0);

  // Second client parks an open transaction on the contaminated key.
  auto pin_or = d.rdb->Connect();
  ASSERT_TRUE(pin_or.ok());
  DbConnection* pin = pin_or->get();
  Must(pin, "BEGIN");
  Must(pin, "UPDATE account SET balance = balance + 1 WHERE id = 1");

  auto rep = d.rdb->repair().RepairOnline(
      {attack}, repair::DbaPolicy::TrackEverything());
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_FALSE(d.rdb->db().quarantine().active());

  // The pinned transaction was forcibly rolled back; the proxy surfaces the
  // retryable failure on its next use and recovers after ROLLBACK.
  auto next = pin->Execute("UPDATE account SET balance = 9 WHERE id = 3");
  if (!next.ok()) {
    EXPECT_TRUE(next.status().IsRetryable()) << next.status().ToString();
    (void)pin->Execute("ROLLBACK");
    Must(pin, "UPDATE account SET balance = 9 WHERE id = 3");
  }
  ResultSet rs = Must(pin, "SELECT balance FROM account WHERE id = 1");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rs.rows[0][0].as_double(), 100.0);  // healed, +1 undone
}

}  // namespace
}  // namespace irdb
