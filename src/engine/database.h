// The minidb engine: executes SQL text against the catalog/storage layers,
// writes per-row WAL records in the active flavor's style, and supports
// sessions with BEGIN/COMMIT/ROLLBACK (plus autocommit).
//
// Concurrency model (DESIGN.md §5f): statements from different sessions
// execute concurrently under strict two-phase locking. Before a statement
// runs, the engine derives a lock plan from its AST — intention modes on
// each referenced table and partition plus S/X key locks when the
// statement provably touches single primary keys, S/X on the partition
// when it pins the leading key column, table S/X otherwise — and acquires
// it through the transaction manager (src/concurrency). Index nested-loop
// join probes lock their keys as they run instead (never waiting under a
// latch: the SELECT stops, waits outside, and re-runs). Locks are held
// until COMMIT/ROLLBACK; waits-for-graph detection aborts deadlocked
// requesters with a "[deadlock]"-tagged kAborted status (retryable for
// autocommit statements, whose transaction the abort fully undoes).
// Physical safety inside a statement comes from per-table latches (shared
// for reads, exclusive for writes), always taken after the planned 2PL
// locks are granted and in table-id order, so latches never deadlock.
//
// set_serial_mode(true) is a lock-planning policy, not a second execution
// path: every DML/SELECT plans one X lock on the database resource (and no
// probe locks), held to COMMIT/ROLLBACK like any 2PL lock. Serial mode
// therefore serializes whole transactions, not statements. It is the
// baseline leg of bench_concurrency and bench_index.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "concurrency/quarantine.h"
#include "concurrency/transaction_manager.h"
#include "engine/expr_eval.h"
#include "engine/io_model.h"
#include "engine/result_set.h"
#include "flavor/flavor_traits.h"
#include "sql/ast.h"
#include "storage/buffer_pool.h"
#include "storage/catalog.h"
#include "txn/stmt_journal.h"
#include "txn/wal_log.h"
#include "util/status.h"

namespace irdb {

struct DbStats {
  int64_t statements = 0;
  int64_t selects = 0;
  int64_t inserts = 0;
  int64_t updates = 0;
  int64_t deletes = 0;
  int64_t commits = 0;
  int64_t rollbacks = 0;
  int64_t deadlock_aborts = 0;
};

class Database {
 public:
  explicit Database(FlavorTraits traits, IoCostParams io_params = {});
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // Session lifecycle. Session 0 is pre-opened for convenience.
  int64_t OpenSession();
  void CloseSession(int64_t session_id);

  // Parses and executes one statement.
  Result<ResultSet> Execute(int64_t session_id, std::string_view sql_text);

  // Executes an already-parsed statement (used by tests; the wire path always
  // carries text, as the paper's portability argument requires).
  Result<ResultSet> ExecuteParsed(int64_t session_id, const sql::Statement& stmt);

  // The lock plan the engine declares for `sql` before running it —
  // resources in lock order, duplicates merged — and the FROM positions it
  // locks per join probe instead. Parses and plans only.
  struct LockPlanView {
    std::vector<std::pair<concurrency::ResourceId, concurrency::LockMode>>
        locks;
    std::vector<size_t> probe_depths;
  };
  Result<LockPlanView> ExplainLocks(std::string_view sql);

  const FlavorTraits& traits() const { return traits_; }
  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }
  WalLog& wal() { return wal_; }
  const WalLog& wal() const { return wal_; }

  // Statement journal: logical statement text of committed transactions,
  // sealed at COMMIT, discarded at ROLLBACK. The reenactment repair's replay
  // source (DESIGN.md §5i).
  StmtJournal& stmt_journal() { return stmt_journal_; }
  const StmtJournal& stmt_journal() const { return stmt_journal_; }
  IoModel& io_model() { return io_model_; }
  const IoModel& io_model() const { return io_model_; }
  DbStats stats() const;

  concurrency::TransactionManager& txn_manager() { return txn_mgr_; }
  const concurrency::TransactionManager& txn_manager() const { return txn_mgr_; }

  // Buffer pool every table of this engine pins pages through. Unbounded by
  // default; benches/tests cap it with set_capacity to exercise eviction.
  BufferPool& buffer_pool() { return buffer_pool_; }
  const BufferPool& buffer_pool() const { return buffer_pool_; }

  // Online-repair quarantine gate (DESIGN.md §5g). Consulted on the
  // statement path after lock planning: statements whose plan touches a
  // quarantined slice — or whose open transaction already pins one — are
  // rejected with a "[quarantine]"-tagged kUnavailable before any lock is
  // acquired. Sessions marked exempt (the repair engine's own connections)
  // bypass the gate.
  concurrency::QuarantineManager& quarantine() { return quarantine_; }
  const concurrency::QuarantineManager& quarantine() const {
    return quarantine_;
  }
  void SetSessionQuarantineExempt(int64_t session_id, bool exempt);

  // Force-aborts open transactions that hold locks overlapping the active
  // quarantine (the gate only catches them on their NEXT statement; an idle
  // transaction would pin its slice and stall the repair's drain forever).
  // Victims are rolled back, their locks released, and their session
  // poisoned with the retryable quarantine status. Sessions currently
  // executing a statement are skipped (best effort — callers retry around
  // the drain). Returns how many transactions were evicted.
  int EvictQuarantinePinnedTxns();

  // Allocates an engine transaction id without a session — the online
  // repair's drain pass uses one to X-lock quarantined slices through the
  // lock manager (txn_manager().Begin/Abort bracket the locks).
  int64_t AllocateTxnId() {
    return next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  }

  // --- key-hash bridge for the quarantine partition (src/repair) ---
  // Hash of `table`'s primary key as assembled from (column, value) pairs,
  // in the exact space PlanStatementLocks uses for key locks. nullopt when
  // the table/index is missing or the pairs don't cover the whole key.
  std::optional<uint64_t> KeyHashForValues(
      const std::string& table,
      const std::vector<std::pair<std::string, Value>>& row_values) const;
  // Hash of the leading primary-key column's value — the partition the
  // planner names for tables whose primary key has two or more columns.
  // nullopt when the table has no partition level (no index, single-column
  // key) or the value is missing or does not coerce.
  std::optional<uint64_t> PartitionHashForValues(
      const std::string& table,
      const std::vector<std::pair<std::string, Value>>& row_values) const;
  // Primary-key values of the live rows whose row address (hidden rowid,
  // or the `address_column` identity value when the flavor has no rowid)
  // is in `addresses`. Takes the catalog and table latches shared — safe
  // against concurrent traffic. Addresses of deleted rows are simply
  // absent from the result.
  std::vector<std::pair<int64_t, std::vector<std::pair<std::string, Value>>>>
  KeyValuesForRowAddresses(const std::string& table,
                           const std::vector<int64_t>& addresses,
                           const std::string& address_column) const;
  // (table id, primary-key column names) under the catalog latch; nullopt
  // when the table is missing, empty names when it has no primary-key index
  // (key-slicing impossible — callers fall back to whole-table).
  std::optional<std::pair<int32_t, std::vector<std::string>>> TableKeyInfo(
      const std::string& table) const;

  // Serial policy (baseline for bench_concurrency and bench_index): every
  // statement's lock plan becomes one X lock on ResourceId::Database(),
  // held to commit, so transactions run one at a time. Setup-only — flip it
  // before concurrent sessions start.
  void set_serial_mode(bool on) { serial_mode_ = on; }
  bool serial_mode() const { return serial_mode_; }

  // Canonical fingerprint of user-visible table contents: rows of each listed
  // table, decoded, sorted, hashed. Hidden rowids and (optionally) named
  // columns are excluded. Quiesced-state only (no latches taken).
  uint64_t StateHash(const std::vector<std::string>& tables,
                     const std::vector<std::string>& exclude_columns = {}) const;

 private:
  struct UndoEntry {
    LogOp op;
    int32_t table_id;
    int32_t page_hint;
    std::string before;  // encoded row (delete/update)
    std::string after;   // encoded row (insert/update)
  };

  // One entry of a statement's pre-declared lock plan.
  struct LockPlanEntry {
    concurrency::ResourceId res;
    concurrency::LockMode mode;
  };

  // Join-probe locking for one statement: the FROM positions whose rows
  // the index nested-loop join locks as it probes them (the plan declares
  // only IS on those tables), and the lock a probe could not take without
  // waiting — the SELECT stops, lets go of its latches, and
  // StatementOnSession blocks for that lock and re-runs it.
  struct ProbeLocks {
    int64_t txn_id = 0;
    bool quarantine_exempt = false;
    std::vector<size_t> depths;
    std::optional<LockPlanEntry> blocked;
  };

  struct Session {
    bool in_txn = false;
    int64_t txn_id = 0;
    std::vector<UndoEntry> undo;
    int64_t txn_log_bytes = 0;
    // Set when a deadlock abort rolled back an explicit transaction out
    // from under the client: every statement fails until the client
    // acknowledges with ROLLBACK (or COMMIT, which reports the abort).
    bool poisoned = false;
    // Distinguishes a quarantine-gate abort from a deadlock abort: the
    // poisoned-statement error stays kUnavailable/"[quarantine]" (retryable)
    // instead of the deadlock wording.
    bool quarantine_poisoned = false;
    // Repair-engine connections bypass the quarantine gate (they heal the
    // slices everyone else is fenced away from).
    bool quarantine_exempt = false;
    ProbeLocks probe;  // reset per statement
    // Serializes statements of one session (the wire layer already does;
    // this keeps direct multi-threaded use of a session id safe too).
    std::mutex mu;
  };

  // Atomic mirrors of DbStats (sessions update them concurrently).
  struct StatCounters {
    std::atomic<int64_t> statements{0};
    std::atomic<int64_t> selects{0};
    std::atomic<int64_t> inserts{0};
    std::atomic<int64_t> updates{0};
    std::atomic<int64_t> deletes{0};
    std::atomic<int64_t> commits{0};
    std::atomic<int64_t> rollbacks{0};
    std::atomic<int64_t> deadlock_aborts{0};
  };

  std::shared_ptr<Session> FindSession(int64_t session_id);

  // The statement path: lock plan, quarantine gate, 2PL locks, then
  // execution. Caller holds the session's mutex.
  Result<ResultSet> StatementOnSession(Session& s, const sql::Statement& stmt);

  // Runs a DML/SELECT under the catalog latch and per-table latches.
  Result<ResultSet> Dispatch(Session& s, const sql::Statement& stmt);

  Result<ResultSet> ExecSelect(Session& s, const sql::Statement& stmt);
  Result<ResultSet> ExecInsert(Session& s, const sql::Statement& stmt);
  Result<ResultSet> ExecUpdate(Session& s, const sql::Statement& stmt);
  Result<ResultSet> ExecDelete(Session& s, const sql::Statement& stmt);
  Result<ResultSet> ExecCreateTable(const sql::Statement& stmt);
  Result<ResultSet> ExecDropTable(const sql::Statement& stmt);
  Result<ResultSet> ExecCreateIndex(const sql::Statement& stmt);
  Result<ResultSet> ExecDropIndex(const sql::Statement& stmt);

  // Appends a successful DML/SELECT to the statement journal's pending
  // buffer for the session's open transaction.
  void JournalStmt(Session& s, const sql::Statement& stmt,
                   const ResultSet& result);

  void BeginTxn(Session& s);
  void CommitTxn(Session& s);
  // Undoes the open transaction under the catalog latch and exclusive
  // latches on every table it touched.
  Status RollbackTxn(Session& s);

  // --- lock planning ---
  // Derives the statement's lock plan from its AST. Called under the shared
  // catalog latch; conservative — anything not provably key-local coarsens
  // to a partition lock when the leading key column is pinned, to a table
  // lock otherwise. FROM positions locked per join probe go to
  // `probe_depths`. Never fails: unresolvable names produce an empty or
  // partial plan and the executor reports the real error. Under the serial
  // policy every DML/SELECT plans the database X lock alone.
  void PlanStatementLocks(const sql::Statement& stmt,
                          std::vector<LockPlanEntry>* plan,
                          std::vector<size_t>* probe_depths);
  // SELECT leg, defined in select_exec.cc next to the access-path planner
  // it mirrors.
  void PlanSelectLocks(const sql::Statement& stmt,
                       std::vector<LockPlanEntry>* plan,
                       std::vector<size_t>* probe_depths);
  // Puts a plan in lock order (table, level, hash — top-down) and merges
  // duplicate resources to the supremum of their modes.
  static void SortLockPlan(std::vector<LockPlanEntry>* plan);
  // Acquires a sorted plan in order. On deadlock the transaction keeps
  // already-held locks; the caller rolls back.
  Status AcquirePlanLocks(int64_t txn_id,
                          const std::vector<LockPlanEntry>& plan);
  // FNV hash of literal values for `key_columns` (the full primary key, or
  // just its leading column for a partition); nullopt when `exprs` are not
  // all literal-evaluable/coercible. `exprs` are in key-column order.
  // `leading` (optional) receives the hash of the first value alone — the
  // partition — whenever that value is literal, even if a later one is not.
  std::optional<uint64_t> HashKeyLiterals(
      const Schema& schema, const std::vector<int>& key_columns,
      const std::vector<const sql::Expr*>& exprs,
      std::optional<uint64_t>* leading = nullptr);
  // Statement-ending paths for a quarantine rejection and a lock abort.
  // Both roll back what the open transaction did; an explicit transaction's
  // session is then poisoned until the client acknowledges with ROLLBACK.
  Status RejectQuarantined(Session& s, bool autocommit);
  Status AbortDeadlockVictim(Session& s, bool autocommit, Status locked);

  // Appends a row-op WAL record in the flavor's style and tracks undo info.
  void LogRowOp(Session& s, LogOp op, int32_t table_id, const HeapTable& table,
                RowLoc loc, std::string before, std::string after);

  Result<HeapTable*> RequireTable(const std::string& name);

  // Aggregate-path SELECT executor (GROUP BY / aggregate functions).
  Result<ResultSet> ExecAggregateSelect(
      const sql::Statement& stmt,
      const std::vector<std::pair<HeapTable*, std::string>>& tables,
      ProbeLocks* probe);

  // Recursively enumerates the (filtered) cross product of `tables`,
  // invoking `fn` with a complete RowBinding for each surviving tuple.
  // Uses primary-key index prefixes (index nested-loop join) where the WHERE
  // clause provides equality bindings; falls back to page scans. With
  // `probe`, the listed depths lock each probed key (IS on its partition,
  // S on the key; S on the table for a heap scan) without waiting; a lock
  // that would wait stops the scan with `probe->blocked` set.
  Status JoinScan(
      const sql::Statement& stmt,
      const std::vector<std::pair<HeapTable*, std::string>>& tables,
      ProbeLocks* probe, const std::function<Status(const RowBinding&)>& fn);

  // Single-table row collection for UPDATE/DELETE: locations plus a copy of
  // the row bytes for every row satisfying `where` (index-accelerated).
  Result<std::vector<std::pair<RowLoc, std::string>>> CollectMatching(
      HeapTable* table, int32_t table_id, const std::string& effective_name,
      const sql::Expr* where);

  FlavorTraits traits_;
  BufferPool buffer_pool_;  // declared before catalog_ (tables pin through it)
  Catalog catalog_;
  WalLog wal_;
  StmtJournal stmt_journal_;
  IoModel io_model_;
  StatCounters stats_;

  concurrency::TransactionManager txn_mgr_;
  concurrency::QuarantineManager quarantine_;
  // Guards the catalog map: statements hold it shared while resolving and
  // executing; DDL holds it exclusive. Never held while blocking on a 2PL
  // lock (plan under the latch, release, acquire locks, re-take).
  mutable std::shared_mutex catalog_latch_;

  bool serial_mode_ = false;  // read only by lock planning

  std::mutex sessions_mu_;
  std::unordered_map<int64_t, std::shared_ptr<Session>> sessions_;
  std::atomic<int64_t> next_session_id_{1};
  std::atomic<int64_t> next_txn_id_{1};
};

}  // namespace irdb
