// Lock manager + concurrent engine tests (DESIGN.md §5f): mode lattice
// (with SIX), FIFO fairness, upgrades, non-blocking TryAcquire, deadlock
// detection, the anomalies strict 2PL must exclude (lost update, write
// skew, phantoms across partitions) under real multi-threaded execution,
// golden lock plans for every TPC-C statement shape, join-probe key locks,
// the serial-vs-concurrent tracking-completeness property at 8 threads, and
// the guarantee that TPC-C terminals on disjoint warehouses never wait on
// each other. Labelled `concurrency`; tools/run_chaos.sh runs this binary
// under TSan as well.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "concurrency/lock_manager.h"
#include "concurrency/transaction_manager.h"
#include "engine/database.h"
#include "proxy/tracking_proxy.h"
#include "tpcc/loader.h"
#include "tpcc/schema.h"
#include "tpcc/workload.h"
#include "wire/connection.h"

namespace irdb {
namespace {

using concurrency::IsDeadlockAbort;
using concurrency::LockCompatible;
using concurrency::LockManager;
using concurrency::LockMode;
using concurrency::LockSupremum;
using concurrency::ResourceId;

constexpr LockMode kIS = LockMode::kIntentionShared;
constexpr LockMode kIX = LockMode::kIntentionExclusive;
constexpr LockMode kS = LockMode::kShared;
constexpr LockMode kSIX = LockMode::kSharedIntentionExclusive;
constexpr LockMode kX = LockMode::kExclusive;
constexpr LockMode kAllModes[] = {kIS, kIX, kS, kSIX, kX};

TEST(LockModes, CompatibilityMatrix) {
  // IS conflicts only with X.
  EXPECT_TRUE(LockCompatible(kIS, kIS));
  EXPECT_TRUE(LockCompatible(kIS, kIX));
  EXPECT_TRUE(LockCompatible(kIS, kS));
  EXPECT_FALSE(LockCompatible(kIS, kX));
  // IX conflicts with S and X.
  EXPECT_TRUE(LockCompatible(kIX, kIX));
  EXPECT_FALSE(LockCompatible(kIX, kS));
  EXPECT_FALSE(LockCompatible(kIX, kX));
  // S conflicts with IX and X.
  EXPECT_TRUE(LockCompatible(kS, kS));
  EXPECT_FALSE(LockCompatible(kS, kX));
  // SIX (read everything, write some below) admits only IS.
  EXPECT_TRUE(LockCompatible(kSIX, kIS));
  EXPECT_FALSE(LockCompatible(kSIX, kIX));
  EXPECT_FALSE(LockCompatible(kSIX, kS));
  EXPECT_FALSE(LockCompatible(kSIX, kSIX));
  EXPECT_FALSE(LockCompatible(kSIX, kX));
  // X conflicts with everything.
  for (LockMode b : kAllModes) EXPECT_FALSE(LockCompatible(kX, b));
  // Symmetry.
  for (LockMode a : kAllModes) {
    for (LockMode b : kAllModes) {
      EXPECT_EQ(LockCompatible(a, b), LockCompatible(b, a));
    }
  }
}

TEST(LockModes, SupremumLattice) {
  EXPECT_EQ(LockSupremum(kIS, kIX), kIX);
  EXPECT_EQ(LockSupremum(kIS, kS), kS);
  // S+IX is SIX: a reader that also writes below keeps other readers of
  // the resource's intention (IS) compatible instead of escalating to X.
  EXPECT_EQ(LockSupremum(kS, kIX), kSIX);
  EXPECT_EQ(LockSupremum(kS, kS), kS);
  EXPECT_EQ(LockSupremum(kSIX, kIS), kSIX);
  EXPECT_EQ(LockSupremum(kSIX, kIX), kSIX);
  EXPECT_EQ(LockSupremum(kSIX, kS), kSIX);
  for (LockMode a : kAllModes) {
    EXPECT_EQ(LockSupremum(a, kX), kX);
    EXPECT_EQ(LockSupremum(a, a), a);
    for (LockMode b : kAllModes) {
      const LockMode sup = LockSupremum(a, b);
      EXPECT_EQ(sup, LockSupremum(b, a));
      // The supremum conflicts with at least everything either side does.
      for (LockMode c : kAllModes) {
        if (!LockCompatible(a, c) || !LockCompatible(b, c)) {
          EXPECT_FALSE(LockCompatible(sup, c));
        }
      }
    }
  }
}

TEST(LockModes, ResourceLevelsNeverCollideAndSortTopDown) {
  for (uint64_t h : {uint64_t{0}, uint64_t{1}, uint64_t{2}, uint64_t{3},
                     ~uint64_t{0}}) {
    const ResourceId p = ResourceId::Partition(4, h);
    const ResourceId k = ResourceId::Key(4, h);
    EXPECT_TRUE(p.is_partition());
    EXPECT_TRUE(k.is_key());
    EXPECT_FALSE(p == k);
    EXPECT_FALSE(p == ResourceId::Table(4));
    // Table, then its partitions, then its keys, whatever the hashes.
    EXPECT_TRUE(ResourceId::Table(4) < p);
    EXPECT_TRUE(p < ResourceId::Key(4, 0));
    EXPECT_TRUE(ResourceId::Key(4, ~uint64_t{0}) < ResourceId::Table(5));
  }
}

TEST(LockManagerTest, SharedGrantsCoexistKeysAreIndependent) {
  LockManager lm;
  const ResourceId table = ResourceId::Table(1);
  ASSERT_TRUE(lm.Acquire(1, table, kIS).ok());
  ASSERT_TRUE(lm.Acquire(2, table, kIX).ok());
  // Different keys under the same table never conflict. (Key hashes get
  // their low bit forced on, so 10 and 12 normalize to distinct names.)
  ASSERT_TRUE(lm.Acquire(1, ResourceId::Key(1, 10), kS).ok());
  ASSERT_TRUE(lm.Acquire(2, ResourceId::Key(1, 12), kX).ok());
  EXPECT_EQ(lm.held_count(1), 2);
  EXPECT_EQ(lm.held_count(2), 2);
  EXPECT_TRUE(lm.holds(1, table, kIS));
  EXPECT_FALSE(lm.holds(1, table, kS));
  lm.ReleaseAll(1);
  lm.ReleaseAll(2);
  EXPECT_EQ(lm.held_count(1), 0);
  EXPECT_EQ(lm.stats().waits, 0);
}

TEST(LockManagerTest, AcquireIsIdempotentAndWidens) {
  LockManager lm;
  const ResourceId r = ResourceId::Key(1, 5);
  ASSERT_TRUE(lm.Acquire(1, r, kS).ok());
  ASSERT_TRUE(lm.Acquire(1, r, kS).ok());  // re-request: no-op
  ASSERT_TRUE(lm.Acquire(1, r, kX).ok());  // sole holder: upgrade in place
  EXPECT_TRUE(lm.holds(1, r, kX));
  EXPECT_EQ(lm.held_count(1), 1);
  EXPECT_EQ(lm.stats().upgrades, 1);
  lm.ReleaseAll(1);
}

TEST(LockManagerTest, ReleaseAllWakesWaiter) {
  LockManager lm;
  const ResourceId r = ResourceId::Table(7);
  ASSERT_TRUE(lm.Acquire(1, r, kX).ok());
  std::atomic<bool> granted{false};
  std::thread t([&] {
    ASSERT_TRUE(lm.Acquire(2, r, kS).ok());
    granted.store(true);
    lm.ReleaseAll(2);
  });
  // Give the waiter time to block, then release.
  while (lm.stats().waits == 0) std::this_thread::yield();
  EXPECT_FALSE(granted.load());
  lm.ReleaseAll(1);
  t.join();
  EXPECT_TRUE(granted.load());
  EXPECT_EQ(lm.stats().deadlocks, 0);
}

TEST(LockManagerTest, FifoGrantOrderWriterNotStarved) {
  LockManager lm;
  const ResourceId r = ResourceId::Table(3);
  ASSERT_TRUE(lm.Acquire(1, r, kS).ok());

  std::mutex order_mu;
  std::vector<int64_t> grant_order;
  auto locker = [&](int64_t txn, LockMode mode) {
    ASSERT_TRUE(lm.Acquire(txn, r, mode).ok());
    {
      std::lock_guard<std::mutex> g(order_mu);
      grant_order.push_back(txn);
    }
    lm.ReleaseAll(txn);
  };

  // Writer 2 queues behind holder 1; reader 3 arrives later and, although
  // compatible with 1's grant, must queue behind the waiting writer.
  std::thread w([&] { locker(2, kX); });
  while (lm.stats().waits < 1) std::this_thread::yield();
  std::thread s([&] { locker(3, kS); });
  while (lm.stats().waits < 2) std::this_thread::yield();
  {
    std::lock_guard<std::mutex> g(order_mu);
    EXPECT_TRUE(grant_order.empty());  // the barrier held the reader back
  }
  lm.ReleaseAll(1);
  w.join();
  s.join();
  EXPECT_EQ(grant_order, (std::vector<int64_t>{2, 3}));
  EXPECT_EQ(lm.stats().deadlocks, 0);
}

TEST(LockManagerTest, TryAcquireNeverWaits) {
  LockManager lm;
  const ResourceId r = ResourceId::Key(1, 5);
  EXPECT_TRUE(lm.TryAcquire(1, r, kS));
  EXPECT_TRUE(lm.TryAcquire(2, r, kS));   // compatible grant
  EXPECT_FALSE(lm.TryAcquire(3, r, kX));  // conflict: refused, no trace
  EXPECT_EQ(lm.held_count(3), 0);
  EXPECT_FALSE(lm.TryAcquire(1, r, kX));  // widening blocked by txn 2's S
  EXPECT_TRUE(lm.holds(1, r, kS));
  lm.ReleaseAll(2);
  EXPECT_TRUE(lm.TryAcquire(1, r, kX));  // sole holder widens in place
  EXPECT_TRUE(lm.holds(1, r, kX));

  // FIFO: a queued waiter bars a compatible newcomer, as in Acquire.
  const ResourceId t = ResourceId::Table(2);
  ASSERT_TRUE(lm.Acquire(4, t, kS).ok());
  std::thread writer([&] {
    EXPECT_TRUE(lm.Acquire(5, t, kX).ok());
    lm.ReleaseAll(5);
  });
  while (lm.stats().waits < 1) std::this_thread::yield();
  EXPECT_FALSE(lm.TryAcquire(6, t, kS));
  lm.ReleaseAll(4);
  writer.join();
  EXPECT_TRUE(lm.TryAcquire(6, t, kS));
  lm.ReleaseAll(6);
  lm.ReleaseAll(1);
  EXPECT_EQ(lm.stats().deadlocks, 0);
}

TEST(LockManagerTest, SixAdmitsIntentionReadersOnly) {
  LockManager lm;
  const ResourceId p = ResourceId::Partition(1, 77);
  ASSERT_TRUE(lm.Acquire(1, p, kS).ok());
  ASSERT_TRUE(lm.Acquire(1, p, kIX).ok());  // S then IX: upgrade to SIX
  EXPECT_TRUE(lm.holds(1, p, kSIX));
  EXPECT_FALSE(lm.holds(1, p, kX));
  EXPECT_TRUE(lm.TryAcquire(2, p, kIS));
  EXPECT_FALSE(lm.TryAcquire(3, p, kS));
  EXPECT_FALSE(lm.TryAcquire(3, p, kIX));
  lm.ReleaseAll(1);
  lm.ReleaseAll(2);
}

TEST(LockManagerTest, DeadlockCycleDetectedAndTagged) {
  LockManager lm;
  const ResourceId a = ResourceId::Key(1, 100);
  const ResourceId b = ResourceId::Key(1, 200);
  ASSERT_TRUE(lm.Acquire(1, a, kX).ok());
  ASSERT_TRUE(lm.Acquire(2, b, kX).ok());

  Status s1, s2;
  std::thread t1([&] {
    s1 = lm.Acquire(1, b, kX);
    if (!s1.ok()) lm.ReleaseAll(1);  // victim dissolves the cycle
  });
  while (lm.stats().waits < 1) std::this_thread::yield();
  std::thread t2([&] {
    s2 = lm.Acquire(2, a, kX);
    if (!s2.ok()) lm.ReleaseAll(2);
  });
  t1.join();
  t2.join();
  // Exactly one side is the victim; the survivor was granted.
  EXPECT_NE(s1.ok(), s2.ok());
  const Status& victim = s1.ok() ? s2 : s1;
  EXPECT_EQ(victim.code(), StatusCode::kAborted);
  EXPECT_TRUE(IsDeadlockAbort(victim));
  EXPECT_GE(lm.stats().deadlocks, 1);
  lm.ReleaseAll(1);
  lm.ReleaseAll(2);
}

TEST(LockManagerTest, UpgradeDeadlockBetweenTwoReaders) {
  // Two S holders both trying to upgrade to X is the canonical conversion
  // deadlock: each waits for the other to drop S.
  LockManager lm;
  const ResourceId r = ResourceId::Key(1, 9);
  ASSERT_TRUE(lm.Acquire(1, r, kS).ok());
  ASSERT_TRUE(lm.Acquire(2, r, kS).ok());
  Status s1, s2;
  std::thread t1([&] {
    s1 = lm.Acquire(1, r, kX);
    if (!s1.ok()) lm.ReleaseAll(1);
  });
  while (lm.stats().waits < 1) std::this_thread::yield();
  std::thread t2([&] {
    s2 = lm.Acquire(2, r, kX);
    if (!s2.ok()) lm.ReleaseAll(2);
  });
  t1.join();
  t2.join();
  EXPECT_NE(s1.ok(), s2.ok());
  EXPECT_TRUE(IsDeadlockAbort(s1.ok() ? s2 : s1));
  lm.ReleaseAll(1);
  lm.ReleaseAll(2);
}

TEST(StatusTagging, DeadlockRetryabilitySplit) {
  // Only the autocommit tag is retryable; a bare "[deadlock]" abort must
  // reach the client (their explicit transaction is gone).
  Status autocommit(StatusCode::kAborted,
                    std::string(kRetryableAbortTag) + " victim of txn 7");
  Status explicit_txn(StatusCode::kAborted, "[deadlock] victim of txn 7");
  EXPECT_TRUE(autocommit.IsRetryable());
  EXPECT_TRUE(IsDeadlockAbort(autocommit));
  EXPECT_FALSE(explicit_txn.IsRetryable());
  EXPECT_TRUE(IsDeadlockAbort(explicit_txn));
  EXPECT_FALSE(IsDeadlockAbort(Status::Aborted("metadata lost")));
}

// ---------------------------------------------------------------- engine

// Runs `script` as one explicit transaction, retrying the whole script when
// it loses a deadlock race. Any failure rolls back (which also clears the
// engine's poisoned-session state) before the next attempt. Retries back
// off with random jitter: N sessions doing SELECT-then-UPDATE on one key
// all take S and then all deadlock on the X upgrade, so immediate retry
// livelocks when the machine is slow enough (TSan) that they re-collide.
void RunTxnWithRetry(DirectConnection& conn,
                     const std::vector<std::string>& script) {
  thread_local std::mt19937 rng(std::random_device{}());
  for (int attempt = 0; attempt < 200; ++attempt) {
    bool failed = false;
    for (const std::string& sql : script) {
      auto r = conn.Execute(sql);
      if (!r.ok()) {
        ASSERT_TRUE(IsDeadlockAbort(r.status()) || r.status().IsRetryable())
            << sql << " -> " << r.status().ToString();
        (void)conn.Execute("ROLLBACK");
        failed = true;
        break;
      }
    }
    if (!failed) return;
    const int cap = 100 << std::min(attempt, 6);  // 100us .. 6.4ms
    std::this_thread::sleep_for(std::chrono::microseconds(
        std::uniform_int_distribution<int>(0, cap)(rng)));
  }
  FAIL() << "transaction never committed within the retry budget";
}

TEST(ConcurrentEngineTest, LostUpdatePreventedAcrossReadModifyWrite) {
  Database db(FlavorTraits::Postgres());
  {
    DirectConnection setup(&db);
    ASSERT_TRUE(setup.Execute("CREATE TABLE acct (id INTEGER NOT NULL, bal "
                              "INTEGER, PRIMARY KEY(id))")
                    .ok());
    ASSERT_TRUE(
        setup.Execute("INSERT INTO acct (id, bal) VALUES (1, 0)").ok());
  }
  constexpr int kThreads = 8;
  constexpr int kIters = 12;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db] {
      DirectConnection conn(&db);
      for (int i = 0; i < kIters; ++i) {
        // Read-modify-write across two statements: without 2PL (or with
        // early lock release) increments are lost; the S->X upgrade race
        // makes half of these deadlock and retry.
        RunTxnWithRetry(conn, {"BEGIN",
                               "SELECT bal FROM acct WHERE id = 1",
                               "UPDATE acct SET bal = bal + 1 WHERE id = 1",
                               "COMMIT"});
      }
    });
  }
  for (auto& t : threads) t.join();
  DirectConnection check(&db);
  auto r = check.Execute("SELECT bal FROM acct WHERE id = 1");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].as_int(), kThreads * kIters);
  // Transaction bookkeeping balanced: everything begun was resolved.
  auto ts = db.txn_manager().stats();
  EXPECT_EQ(ts.active, 0);
  EXPECT_EQ(ts.began, ts.committed + ts.aborted);
}

TEST(ConcurrentEngineTest, WriteSkewExcludedByTwoPhaseLocking) {
  Database db(FlavorTraits::Postgres());
  {
    DirectConnection setup(&db);
    ASSERT_TRUE(setup.Execute("CREATE TABLE duty (id INTEGER NOT NULL, bal "
                              "INTEGER, PRIMARY KEY(id))")
                    .ok());
    ASSERT_TRUE(
        setup.Execute("INSERT INTO duty (id, bal) VALUES (1, 50), (2, 50)")
            .ok());
  }
  // Each transaction reads BOTH rows and, if the combined balance allows,
  // withdraws 60 from its own. Snapshot-style engines let both commit
  // (sum -20); strict 2PL serializes them so at most one withdrawal fits.
  auto withdraw = [&db](int id) {
    DirectConnection conn(&db);
    for (int attempt = 0; attempt < 200; ++attempt) {
      auto begin = conn.Execute("BEGIN");
      ASSERT_TRUE(begin.ok());
      auto sum = conn.Execute("SELECT SUM(bal) FROM duty");
      if (!sum.ok()) {
        (void)conn.Execute("ROLLBACK");
        continue;
      }
      bool ok = true;
      if (sum->rows[0][0].as_int() >= 60) {
        auto upd = conn.Execute("UPDATE duty SET bal = bal - 60 WHERE id = " +
                                std::to_string(id));
        ok = upd.ok();
      }
      if (ok) {
        auto commit = conn.Execute("COMMIT");
        if (commit.ok()) return;
      } else {
        (void)conn.Execute("ROLLBACK");
      }
    }
    FAIL() << "withdrawal never resolved";
  };
  std::thread t1([&] { withdraw(1); });
  std::thread t2([&] { withdraw(2); });
  t1.join();
  t2.join();
  DirectConnection check(&db);
  auto r = check.Execute("SELECT SUM(bal) FROM duty");
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r->rows[0][0].as_int(), 0) << "write skew: both withdrawals won";
  EXPECT_EQ(r->rows[0][0].as_int(), 40);  // exactly one 60-withdrawal fits
}

TEST(ConcurrentEngineTest, ExplicitTxnDeadlockPoisonsUntilRollback) {
  Database db(FlavorTraits::Postgres());
  DirectConnection c1(&db), c2(&db);
  ASSERT_TRUE(c1.Execute("CREATE TABLE t (id INTEGER NOT NULL, v INTEGER, "
                         "PRIMARY KEY(id))")
                  .ok());
  ASSERT_TRUE(
      c1.Execute("INSERT INTO t (id, v) VALUES (1, 0), (2, 0)").ok());

  ASSERT_TRUE(c1.Execute("BEGIN").ok());
  ASSERT_TRUE(c2.Execute("BEGIN").ok());
  ASSERT_TRUE(c1.Execute("UPDATE t SET v = 1 WHERE id = 1").ok());
  ASSERT_TRUE(c2.Execute("UPDATE t SET v = 2 WHERE id = 2").ok());

  // Cross over: c1 blocks on key 2; c2 then closes the cycle on key 1.
  Status s1, s2;
  std::thread blocked([&] {
    auto r = c1.Execute("UPDATE t SET v = 1 WHERE id = 2");
    s1 = r.ok() ? Status::Ok() : r.status();
  });
  while (db.txn_manager().locks().stats().waits < 1) {
    std::this_thread::yield();
  }
  {
    auto r = c2.Execute("UPDATE t SET v = 2 WHERE id = 1");
    s2 = r.ok() ? Status::Ok() : r.status();
  }
  blocked.join();

  ASSERT_NE(s1.ok(), s2.ok());
  DirectConnection& victim = s1.ok() ? c2 : c1;
  DirectConnection& survivor = s1.ok() ? c1 : c2;
  const Status& verdict = s1.ok() ? s2 : s1;
  EXPECT_TRUE(IsDeadlockAbort(verdict));
  EXPECT_FALSE(verdict.IsRetryable()) << "explicit txns must not auto-retry";

  // The victim's session is poisoned until it acknowledges with ROLLBACK.
  auto poisoned = victim.Execute("SELECT v FROM t WHERE id = 1");
  ASSERT_FALSE(poisoned.ok());
  EXPECT_EQ(poisoned.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(victim.Execute("ROLLBACK").ok());

  // The survivor still holds its X locks; commit first so the victim's next
  // read doesn't block on them.
  EXPECT_TRUE(survivor.Execute("COMMIT").ok());
  EXPECT_TRUE(victim.Execute("SELECT v FROM t WHERE id = 1").ok());
  EXPECT_GE(db.stats().deadlock_aborts, 1);
  EXPECT_GE(db.txn_manager().locks().stats().deadlocks, 1);
}

// Serial-vs-concurrent tracking completeness: the same 8-thread tracked
// workload, run once under the lock manager and once under the serial-mode
// global mutex, must record identical dependency metadata — every worker
// transaction reads the seed row, so every trans_dep row carries the seed
// writer's trid, and nothing lands in tracking_gaps.
void RunTrackedWorkload(Database* db, bool serial,
                        int64_t* dep_rows_with_seed, int64_t* gap_rows) {
  db->set_serial_mode(serial);
  proxy::TxnIdAllocator alloc;
  int64_t seed_trid = 0;
  {
    DirectConnection direct(db);
    proxy::TrackingProxy setup(&direct, &alloc, db->traits());
    ASSERT_TRUE(setup.EnsureTrackingTables().ok());
    ASSERT_TRUE(setup
                    .Execute("CREATE TABLE wseed (k INTEGER NOT NULL, v "
                             "INTEGER, PRIMARY KEY(k))")
                    .ok());
    auto r = setup.Execute("INSERT INTO wseed (k, v) VALUES (1, 42)");
    ASSERT_TRUE(r.ok());
    seed_trid = 1;  // first allocated trid: the seed insert's wrap
    for (int t = 0; t < 8; ++t) {
      ASSERT_TRUE(setup
                      .Execute("CREATE TABLE wt" + std::to_string(t) +
                               " (k INTEGER NOT NULL, v INTEGER, "
                               "PRIMARY KEY(k))")
                      .ok());
    }
  }
  constexpr int kTxnsPerThread = 6;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([db, &alloc, t] {
      DirectConnection direct(db);
      proxy::TrackingProxy proxy(&direct, &alloc, db->traits());
      for (int i = 0; i < kTxnsPerThread; ++i) {
        ASSERT_TRUE(proxy.Execute("BEGIN").ok());
        auto sel = proxy.Execute("SELECT v FROM wseed WHERE k = 1");
        ASSERT_TRUE(sel.ok()) << sel.status().ToString();
        auto ins = proxy.Execute("INSERT INTO wt" + std::to_string(t) +
                                 " (k, v) VALUES (" + std::to_string(i) +
                                 ", " + std::to_string(i) + ")");
        ASSERT_TRUE(ins.ok()) << ins.status().ToString();
        proxy.SetAnnotation("w" + std::to_string(t));
        auto commit = proxy.Execute("COMMIT");
        ASSERT_TRUE(commit.ok()) << commit.status().ToString();
      }
    });
  }
  for (auto& th : threads) th.join();

  DirectConnection check(db);
  auto deps = check.Execute("SELECT dep_tr_ids FROM trans_dep");
  ASSERT_TRUE(deps.ok());
  int64_t with_seed = 0;
  const std::string token = "wseed:" + std::to_string(seed_trid);
  for (const auto& row : deps->rows) {
    if (row[0].as_string().find(token) != std::string::npos) ++with_seed;
  }
  *dep_rows_with_seed = with_seed;
  auto gaps = check.Execute("SELECT COUNT(*) FROM tracking_gaps");
  ASSERT_TRUE(gaps.ok());
  *gap_rows = gaps->rows[0][0].as_int();
}

TEST(ConcurrentEngineTest, TrackingCompletenessSerialVsConcurrent) {
  int64_t concurrent_deps = 0, concurrent_gaps = 0;
  {
    Database db(FlavorTraits::Postgres());
    RunTrackedWorkload(&db, /*serial=*/false, &concurrent_deps,
                       &concurrent_gaps);
  }
  int64_t serial_deps = 0, serial_gaps = 0;
  {
    Database db(FlavorTraits::Postgres());
    RunTrackedWorkload(&db, /*serial=*/true, &serial_deps, &serial_gaps);
  }
  // Every one of the 48 worker transactions read the seed row: complete
  // dependency capture regardless of interleaving.
  EXPECT_EQ(concurrent_deps, 8 * 6);
  EXPECT_EQ(serial_deps, concurrent_deps);
  EXPECT_EQ(concurrent_gaps, 0);
  EXPECT_EQ(serial_gaps, 0);
}

// ------------------------------------------------ partitions and probes

// Renders a lock plan as "table:level:mode" entries, e.g.
// "customer:T:IS customer:P:IS customer:K:S", and checks on the way that
// every partition named is the one of `w` (all shapes below run on w = 1).
std::string RenderPlan(Database& db, const Database::LockPlanView& view,
                       int w) {
  std::string out;
  for (const auto& [res, mode] : view.locks) {
    std::string table = "?";
    for (const std::string& name : tpcc::TableNames()) {
      auto id = db.catalog().TableId(name);
      if (id.ok() && *id == res.table_id) table = name;
    }
    if (res.is_partition()) {
      auto info = db.TableKeyInfo(table);
      EXPECT_TRUE(info.has_value());
      auto h = db.PartitionHashForValues(
          table, {{info->second[0], Value::Int(w)}});
      EXPECT_TRUE(h.has_value()) << table;
      EXPECT_EQ(res.key_hash,
                ResourceId::Partition(res.table_id, h.value_or(0)).key_hash)
          << table << " partition is not w=" << w;
    }
    if (!out.empty()) out += ' ';
    const char* level = res.is_table() ? "T" : res.is_partition() ? "P" : "K";
    out += table + ":" + level + ":" + concurrency::LockModeName(mode);
  }
  for (size_t d : view.probe_depths) out += " probe@" + std::to_string(d);
  return out;
}

TEST(LockPlanTest, GoldenPlansForEveryTpccStatementShape) {
  Database db(FlavorTraits::Postgres());
  DirectConnection conn(&db);
  ASSERT_TRUE(tpcc::CreateSchema(&conn).ok());

  struct Shape {
    const char* sql;
    std::string plan;
  };
  const std::vector<Shape> shapes = {
      // NewOrder
      {"SELECT c_discount, c_last, c_credit FROM customer WHERE c_w_id = 1 "
       "AND c_d_id = 2 AND c_id = 3",
       "customer:T:IS customer:P:IS customer:K:S"},
      {"SELECT w_tax FROM warehouse WHERE w_id = 1",
       "warehouse:T:IS warehouse:K:S"},
      {"SELECT d_next_o_id, d_tax FROM district WHERE d_w_id = 1 AND "
       "d_id = 2",
       "district:T:IS district:P:IS district:K:S"},
      {"UPDATE district SET d_next_o_id = 9 WHERE d_w_id = 1 AND d_id = 2",
       "district:T:IX district:P:IX district:K:X"},
      {"INSERT INTO orders(o_id, o_d_id, o_w_id, o_c_id, o_entry_d, "
       "o_carrier_id, o_ol_cnt, o_all_local) VALUES (8, 2, 1, 3, "
       "'2004-06-28', NULL, 5, 1)",
       "orders:T:IX orders:P:IX orders:K:X"},
      {"INSERT INTO new_order(no_o_id, no_d_id, no_w_id) VALUES (8, 2, 1)",
       "new_order:T:IX new_order:P:IX new_order:K:X"},
      {"SELECT i_price, i_name, i_data FROM item WHERE i_id = 7",
       "item:T:IS item:K:S"},
      {"SELECT s_quantity, s_data, s_dist_02 FROM stock WHERE s_i_id = 7 "
       "AND s_w_id = 1",
       "stock:T:IS stock:P:IS stock:K:S"},
      {"UPDATE stock SET s_quantity = 40, s_ytd = s_ytd + 3, s_order_cnt = "
       "s_order_cnt + 1 WHERE s_i_id = 7 AND s_w_id = 1",
       "stock:T:IX stock:P:IX stock:K:X"},
      {"INSERT INTO order_line(ol_o_id, ol_d_id, ol_w_id, ol_number, ol_i_id,"
       " ol_supply_w_id, ol_delivery_d, ol_quantity, ol_amount, ol_dist_info)"
       " VALUES (8, 2, 1, 1, 7, 1, NULL, 3, 9.5, 'x')",
       "order_line:T:IX order_line:P:IX order_line:K:X"},
      // Payment
      {"UPDATE warehouse SET w_ytd = w_ytd + 10.5 WHERE w_id = 1",
       "warehouse:T:IX warehouse:K:X"},
      {"SELECT w_name, w_street_1, w_city, w_state, w_zip FROM warehouse "
       "WHERE w_id = 1",
       "warehouse:T:IS warehouse:K:S"},
      {"UPDATE district SET d_ytd = d_ytd + 10.5 WHERE d_w_id = 1 AND "
       "d_id = 2",
       "district:T:IX district:P:IX district:K:X"},
      {"SELECT c_id FROM customer WHERE c_w_id = 1 AND c_d_id = 2 AND "
       "c_last = 'BARBARBAR' ORDER BY c_first",
       "customer:T:IS customer:P:S"},
      {"UPDATE customer SET c_balance = c_balance - 10.5, c_ytd_payment = "
       "c_ytd_payment + 10.5, c_payment_cnt = c_payment_cnt + 1 WHERE "
       "c_w_id = 1 AND c_d_id = 2 AND c_id = 3",
       "customer:T:IX customer:P:IX customer:K:X"},
      {"INSERT INTO history(h_c_id, h_c_d_id, h_c_w_id, h_d_id, h_w_id, "
       "h_date, h_amount, h_data) VALUES (3, 2, 1, 2, 1, '2004-06-28', "
       "10.5, 'payment')",
       "history:T:IX"},  // no primary key: appends under IX
      // Delivery
      {"SELECT no_o_id FROM new_order WHERE no_d_id = 2 AND no_w_id = 1 "
       "ORDER BY no_o_id LIMIT 1",
       "new_order:T:IS new_order:P:S"},
      {"DELETE FROM new_order WHERE no_o_id = 8 AND no_d_id = 2 AND "
       "no_w_id = 1",
       "new_order:T:IX new_order:P:IX new_order:K:X"},
      {"SELECT o_c_id FROM orders WHERE o_id = 8 AND o_d_id = 2 AND "
       "o_w_id = 1",
       "orders:T:IS orders:P:IS orders:K:S"},
      {"UPDATE orders SET o_carrier_id = 4 WHERE o_id = 8 AND o_d_id = 2 "
       "AND o_w_id = 1",
       "orders:T:IX orders:P:IX orders:K:X"},
      {"UPDATE order_line SET ol_delivery_d = '2004-06-28' WHERE "
       "ol_o_id = 8 AND ol_d_id = 2 AND ol_w_id = 1",
       "order_line:T:IX order_line:P:X"},
      {"SELECT SUM(ol_amount) FROM order_line WHERE ol_o_id = 8 AND "
       "ol_d_id = 2 AND ol_w_id = 1",
       "order_line:T:IS order_line:P:S"},
      {"UPDATE customer SET c_balance = c_balance + 10.5, c_delivery_cnt = "
       "c_delivery_cnt + 1 WHERE c_id = 3 AND c_d_id = 2 AND c_w_id = 1",
       "customer:T:IX customer:P:IX customer:K:X"},
      // OrderStatus
      {"SELECT c_balance, c_first, c_middle, c_last FROM customer WHERE "
       "c_w_id = 1 AND c_d_id = 2 AND c_id = 3",
       "customer:T:IS customer:P:IS customer:K:S"},
      {"SELECT o_id, o_entry_d, o_carrier_id FROM orders WHERE o_w_id = 1 "
       "AND o_d_id = 2 AND o_c_id = 3 ORDER BY o_id DESC LIMIT 1",
       "orders:T:IS orders:P:S"},
      {"SELECT ol_i_id, ol_supply_w_id, ol_quantity, ol_amount, "
       "ol_delivery_d FROM order_line WHERE ol_o_id = 8 AND ol_d_id = 2 AND "
       "ol_w_id = 1",
       "order_line:T:IS order_line:P:S"},
      // StockLevel: the order_line partition, then one key lock per stock
      // probe taken by the join itself.
      {"SELECT COUNT(DISTINCT s_i_id) FROM order_line, stock WHERE "
       "ol_w_id = 1 AND ol_d_id = 2 AND ol_o_id >= 1 AND ol_o_id < 21 AND "
       "s_w_id = ol_supply_w_id AND s_i_id = ol_i_id AND s_quantity < 15",
       "order_line:T:IS order_line:P:S stock:T:IS probe@1"},
  };
  for (const Shape& shape : shapes) {
    auto view = db.ExplainLocks(shape.sql);
    ASSERT_TRUE(view.ok()) << shape.sql << ": " << view.status().ToString();
    EXPECT_EQ(RenderPlan(db, *view, 1), shape.plan) << shape.sql;
    // No TPC-C statement may lock a whole table for reading or writing.
    for (const auto& [res, mode] : view->locks) {
      if (!res.is_table()) continue;
      EXPECT_TRUE(mode == kIS || mode == kIX)
          << shape.sql << " takes table " << concurrency::LockModeName(mode);
    }
  }
  // An unpinned scan still takes table S.
  auto scan = db.ExplainLocks("SELECT COUNT(*) FROM customer");
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(RenderPlan(db, *scan, 1), "customer:T:S");
}

// Two-column primary key: the leading column is the partition.
void CreateLedger(Database* db) {
  DirectConnection setup(db);
  ASSERT_TRUE(setup
                  .Execute("CREATE TABLE ledger (w INTEGER NOT NULL, id "
                           "INTEGER NOT NULL, v INTEGER, PRIMARY KEY(w, id))")
                  .ok());
  ASSERT_TRUE(setup
                  .Execute("INSERT INTO ledger (w, id, v) VALUES (1, 1, 10), "
                           "(1, 2, 20), (2, 1, 30)")
                  .ok());
}

TEST(PartitionLockTest, PartitionScanBlocksInsertIntoItsPartitionOnly) {
  Database db(FlavorTraits::Postgres());
  CreateLedger(&db);
  DirectConnection reader(&db), writer(&db);
  ASSERT_TRUE(reader.Execute("BEGIN").ok());
  auto before = reader.Execute("SELECT COUNT(*) FROM ledger WHERE w = 1");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->rows[0][0].as_int(), 2);

  // Another partition: no wait at all.
  ASSERT_TRUE(
      writer.Execute("INSERT INTO ledger (w, id, v) VALUES (2, 9, 0)").ok());
  EXPECT_EQ(db.txn_manager().locks().stats().waits, 0);

  // The scanned partition: the insert waits for the reader, so the reader
  // cannot see a phantom appear.
  std::atomic<bool> inserted{false};
  std::thread blocked([&] {
    ASSERT_TRUE(
        writer.Execute("INSERT INTO ledger (w, id, v) VALUES (1, 9, 0)").ok());
    inserted.store(true);
  });
  while (db.txn_manager().locks().stats().waits < 1) {
    std::this_thread::yield();
  }
  auto again = reader.Execute("SELECT COUNT(*) FROM ledger WHERE w = 1");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->rows[0][0].as_int(), 2);
  EXPECT_FALSE(inserted.load());
  ASSERT_TRUE(reader.Execute("COMMIT").ok());
  blocked.join();
  EXPECT_TRUE(inserted.load());
  auto after = reader.Execute("SELECT COUNT(*) FROM ledger WHERE w = 1");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->rows[0][0].as_int(), 3);
  EXPECT_EQ(db.txn_manager().locks().stats().deadlocks, 0);
}

// Outer table `lines` pins its partition; inner table `stock` is probed by
// its full primary key (w, i) bound from the outer row — the StockLevel
// join shape.
void CreateLinesAndStock(Database* db) {
  DirectConnection setup(db);
  for (const char* sql :
       {"CREATE TABLE lines (w INTEGER NOT NULL, o INTEGER NOT NULL, "
        "i INTEGER, PRIMARY KEY(w, o))",
        "CREATE TABLE stock (w INTEGER NOT NULL, i INTEGER NOT NULL, "
        "q INTEGER, PRIMARY KEY(w, i))",
        "CREATE TABLE other (id INTEGER NOT NULL, v INTEGER, PRIMARY KEY(id))",
        "INSERT INTO lines (w, o, i) VALUES (1, 1, 7), (1, 2, 8)",
        "INSERT INTO stock (w, i, q) VALUES (1, 7, 50), (1, 8, 50), "
        "(2, 7, 1)",
        "INSERT INTO other (id, v) VALUES (1, 0)"}) {
    ASSERT_TRUE(setup.Execute(sql).ok()) << sql;
  }
}

constexpr char kLowStockJoin[] =
    "SELECT COUNT(*) FROM lines, stock WHERE lines.w = 1 AND "
    "stock.w = lines.w AND stock.i = lines.i AND stock.q < 10";

TEST(ProbeLockTest, ConflictingProbeWaitsAndRerunsOnCommittedState) {
  Database db(FlavorTraits::Postgres());
  CreateLinesAndStock(&db);
  auto view = db.ExplainLocks(kLowStockJoin);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->probe_depths, std::vector<size_t>{1});

  DirectConnection writer(&db), reader(&db);
  ASSERT_TRUE(writer.Execute("BEGIN").ok());
  ASSERT_TRUE(
      writer.Execute("UPDATE stock SET q = 5 WHERE w = 1 AND i = 7").ok());
  // Untouched stock keys stay readable by a probe while the writer holds
  // its key: the join reads (1, 8) without waiting.
  auto clean = reader.Execute(
      "SELECT COUNT(*) FROM lines, stock WHERE lines.w = 1 AND lines.o = 2 "
      "AND stock.w = lines.w AND stock.i = lines.i");
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_EQ(clean->rows[0][0].as_int(), 1);
  EXPECT_EQ(db.txn_manager().locks().stats().waits, 0);

  int64_t low = -1;
  std::thread probe([&] {
    auto r = reader.Execute(kLowStockJoin);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    low = r->rows[0][0].as_int();
  });
  while (db.txn_manager().locks().stats().waits < 1) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(writer.Execute("COMMIT").ok());
  probe.join();
  EXPECT_EQ(low, 1);  // the re-run saw the committed q = 5
  EXPECT_EQ(db.txn_manager().locks().stats().deadlocks, 0);
}

TEST(ProbeLockTest, DeadlockThroughProbeWaitIsDetectedAndTagged) {
  Database db(FlavorTraits::Postgres());
  CreateLinesAndStock(&db);
  DirectConnection a(&db), b(&db);
  ASSERT_TRUE(a.Execute("BEGIN").ok());
  ASSERT_TRUE(b.Execute("BEGIN").ok());
  ASSERT_TRUE(a.Execute("UPDATE stock SET q = 5 WHERE w = 1 AND i = 7").ok());
  ASSERT_TRUE(b.Execute("UPDATE other SET v = 1 WHERE id = 1").ok());

  // a waits for b's key; b's join then probes a's stock key and closes the
  // cycle from inside a SELECT.
  Status sa;
  std::thread a_waits([&] {
    auto r = a.Execute("UPDATE other SET v = 2 WHERE id = 1");
    sa = r.ok() ? Status::Ok() : r.status();
  });
  while (db.txn_manager().locks().stats().waits < 1) {
    std::this_thread::yield();
  }
  auto rb = b.Execute(kLowStockJoin);
  const Status sb = rb.ok() ? Status::Ok() : rb.status();
  if (!sb.ok()) {
    // b lost: its rollback released the key a waits for.
    a_waits.join();
  } else {
    ASSERT_TRUE(b.Execute("COMMIT").ok());
    a_waits.join();
  }

  ASSERT_NE(sa.ok(), sb.ok()) << sa.ToString() << " / " << sb.ToString();
  const Status& verdict = sa.ok() ? sb : sa;
  EXPECT_TRUE(IsDeadlockAbort(verdict)) << verdict.ToString();
  EXPECT_FALSE(verdict.IsRetryable()) << "explicit txns must not auto-retry";
  EXPECT_GE(db.txn_manager().locks().stats().deadlocks, 1);
  DirectConnection& victim = sa.ok() ? b : a;
  DirectConnection& survivor = sa.ok() ? a : b;
  EXPECT_TRUE(victim.Execute("ROLLBACK").ok());
  if (&survivor == &a) {
    EXPECT_TRUE(a.Execute("COMMIT").ok());
  }
  auto state = victim.Execute("SELECT v FROM other WHERE id = 1");
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->rows[0][0].as_int(), &survivor == &a ? 2 : 1);
}

// A join that probes many keys of one partition escalates to S on the
// partition — but only when that needs no wait: next to an open writer in
// the partition it keeps locking keys and never blocks.
TEST(ProbeLockTest, ManyProbesEscalateToPartitionOnlyWithoutWaiting) {
  Database db(FlavorTraits::Postgres());
  CreateLinesAndStock(&db);
  {
    DirectConnection setup(&db);
    for (int i = 100; i < 140; ++i) {
      const std::string n = std::to_string(i);
      ASSERT_TRUE(setup
                      .Execute("INSERT INTO lines (w, o, i) VALUES (1, " + n +
                               ", " + n + ")")
                      .ok());
      ASSERT_TRUE(setup
                      .Execute("INSERT INTO stock (w, i, q) VALUES (1, " + n +
                               ", 50)")
                      .ok());
    }
  }
  DirectConnection writer(&db), reader(&db), other(&db);

  // An open writer holds IX on the stock partition of w = 1 (X on a key no
  // probe reads): escalation would wait, so the join locks keys instead.
  ASSERT_TRUE(writer.Execute("BEGIN").ok());
  ASSERT_TRUE(writer
                  .Execute("INSERT INTO stock (w, i, q) VALUES (1, 999, 5)")
                  .ok());
  ASSERT_TRUE(reader.Execute("BEGIN").ok());
  auto low = reader.Execute(kLowStockJoin);
  ASSERT_TRUE(low.ok()) << low.status().ToString();
  EXPECT_EQ(low->rows[0][0].as_int(), 0);
  EXPECT_EQ(db.txn_manager().locks().stats().waits, 0);
  ASSERT_TRUE(reader.Execute("COMMIT").ok());
  ASSERT_TRUE(writer.Execute("COMMIT").ok());

  // Uncontended, the same join ends up holding S on the partition: an
  // insert of a key it never probed now waits for the reader.
  ASSERT_TRUE(reader.Execute("BEGIN").ok());
  ASSERT_TRUE(reader.Execute(kLowStockJoin).ok());
  std::atomic<bool> inserted{false};
  std::thread blocked([&] {
    ASSERT_TRUE(
        other.Execute("INSERT INTO stock (w, i, q) VALUES (1, 998, 5)").ok());
    inserted.store(true);
  });
  while (db.txn_manager().locks().stats().waits < 1) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(inserted.load());
  ASSERT_TRUE(reader.Execute("COMMIT").ok());
  blocked.join();
  EXPECT_TRUE(inserted.load());
}

// Regression guard: two TPC-C terminals pinned to different warehouses,
// with nothing that crosses warehouses (no remote stock lines, no remote or
// by-name Payments), share only intention locks — the lock manager must
// never make one wait for the other.
TEST(PartitionLockTest, DisjointWarehouseTerminalsNeverWait) {
  Database db(FlavorTraits::Postgres());
  tpcc::TpccConfig cfg = tpcc::TpccConfig::Scaled(2);
  cfg.remote_item_pct = 0;
  proxy::TxnIdAllocator alloc;
  {
    DirectConnection direct(&db);
    proxy::TrackingProxy setup(&direct, &alloc, db.traits());
    ASSERT_TRUE(setup.EnsureTrackingTables().ok());
    ASSERT_TRUE(tpcc::LoadDatabase(&setup, cfg).ok());  // creates the schema
  }
  const auto waits0 = db.txn_manager().locks().stats();
  const int64_t aborts0 = db.stats().deadlock_aborts;
  constexpr int kTxnsPerTerminal = 60;
  std::vector<std::thread> terminals;
  for (int w = 1; w <= 2; ++w) {
    terminals.emplace_back([&db, &alloc, cfg, w] {
      DirectConnection direct(&db);
      proxy::TrackingProxy proxy(&direct, &alloc, db.traits());
      tpcc::TpccDriver driver(&proxy, cfg, 1000 + static_cast<uint64_t>(w));
      driver.set_home_warehouse(w);
      driver.set_payment_variants(false);
      for (int i = 0; i < kTxnsPerTerminal; ++i) {
        auto r = driver.RunMixed();
        ASSERT_TRUE(r.ok()) << r.status().ToString();
      }
    });
  }
  for (auto& t : terminals) t.join();
  const auto after = db.txn_manager().locks().stats();
  EXPECT_EQ(after.waits - waits0.waits, 0);
  EXPECT_EQ(after.deadlocks - waits0.deadlocks, 0);
  EXPECT_EQ(after.timeouts - waits0.timeouts, 0);
  EXPECT_EQ(db.stats().deadlock_aborts - aborts0, 0);
}

}  // namespace
}  // namespace irdb
