#include "repair/compensator.h"

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <thread>

#include "engine/database.h"
#include "obs/catalog.h"
#include "storage/bptree.h"
#include "obs/trace.h"
#include "proxy/rewriter.h"
#include "repair/quarantine.h"
#include "sql/ast.h"
#include "sql/printer.h"
#include "util/string_utils.h"

namespace irdb::repair {

namespace {

// Per-table old→new row-ID remapping with chain chasing (a repaired row can
// be re-inserted more than once if several of its writers are undone).
// Backed by the storage layer's B+ tree on order-preserving encoded int64
// keys — the same structure the table indexes use, exercised here on a
// second key space (long repair streams touch many addresses).
class RowIdRemap {
 public:
  int64_t Resolve(const std::string& table, int64_t address) const {
    auto t = maps_.find(table);
    if (t == maps_.end()) return address;
    int64_t cur = address;
    // Chase the chain; cycles are impossible because new row IDs are fresh.
    uint64_t next = 0;
    while (t->second->LookupFirst(Encode(cur), &next)) {
      cur = static_cast<int64_t>(next);
    }
    return cur;
  }

  void Add(const std::string& table, int64_t old_address, int64_t new_address) {
    auto [it, inserted] = maps_.try_emplace(table, nullptr);
    if (inserted) it->second = std::make_unique<BPTree>();
    const std::string key = Encode(old_address);
    // One mapping per old address: replace any stale entry.
    uint64_t prev = 0;
    if (it->second->LookupFirst(key, &prev)) it->second->Erase(key, prev);
    it->second->Insert(key, static_cast<uint64_t>(new_address));
  }

  void Discard(const std::string& table, int64_t old_address) {
    auto t = maps_.find(table);
    if (t == maps_.end()) return;
    const std::string key = Encode(old_address);
    uint64_t prev = 0;
    if (t->second->LookupFirst(key, &prev)) t->second->Erase(key, prev);
  }

 private:
  static std::string Encode(int64_t address) {
    std::string key;
    AppendEncodedKeyValue(Value::Int(address), &key);
    return key;
  }

  std::map<std::string, std::unique_ptr<BPTree>> maps_;
};

sql::ExprPtr AddressPredicate(const std::string& column, int64_t address) {
  return sql::MakeBinary(sql::BinaryOp::kEq, sql::MakeColumnRef("", column),
                         sql::MakeLiteral(Value::Int(address)));
}

// Row address plus (optionally) the row's primary-key literals. The key
// conjuncts are redundant for row selection — the address is unique — but
// they let the engine's lock planner name a single key lock instead of
// coarsening to table X, which is what keeps clean keys of the table
// available while an online-repair lane heals the quarantined ones.
sql::ExprPtr RowPredicate(
    const std::string& address_column, int64_t address,
    const std::vector<std::pair<std::string, Value>>* key_literals) {
  sql::ExprPtr where = AddressPredicate(address_column, address);
  if (key_literals == nullptr) return where;
  for (const auto& [col, v] : *key_literals) {
    where = sql::MakeBinary(
        sql::BinaryOp::kAnd, std::move(where),
        sql::MakeBinary(sql::BinaryOp::kEq, sql::MakeColumnRef("", col),
                        sql::MakeLiteral(v)));
  }
  return where;
}

// Emits and executes the compensating statement for one op. Shared by the
// serial walk and each parallel table batch: both feed it ops in inverse log
// order, with a remap that has seen every earlier op of the same table.
// `key_literals` (nullable) adds PK conjuncts via RowPredicate.
Status CompensateOp(const RepairOp& op, DbConnection* admin,
                    const FlavorTraits& traits,
                    const std::string& address_column, RowIdRemap* remap,
                    RepairReport* report,
                    const std::vector<std::pair<std::string, Value>>*
                        key_literals = nullptr) {
  const std::string table_key = ToLowerAscii(op.table);
  auto run = [&](sql::Statement& stmt, int64_t expect_affected) -> Status {
    auto r = admin->Execute(sql::PrintStatement(stmt));
    if (!r.ok()) return r.status();
    if (key_literals != nullptr && r->affected == 0) {
      // The key conjuncts only steer the access path; the row address is
      // authoritative. A row whose key moved since the annotation was
      // derived (a kept transaction rewrote it) is found by address alone.
      stmt.where = AddressPredicate(address_column,
                                    remap->Resolve(table_key, op.row_address));
      r = admin->Execute(sql::PrintStatement(stmt));
      if (!r.ok()) return r.status();
    }
    if (expect_affected >= 0 && r->affected != expect_affected) {
      return Status::Internal("compensating statement touched " +
                              std::to_string(r->affected) + " rows, expected " +
                              std::to_string(expect_affected) + ": " +
                              sql::PrintStatement(stmt));
    }
    ++report->ops_compensated;
    return Status::Ok();
  };

  switch (op.op) {
    case LogOp::kInsert: {
      // Undo an insert: delete the row (at its possibly-remapped address).
      auto stmt = sql::MakeStatement(sql::StatementKind::kDelete);
      stmt->table = op.table;
      stmt->where = RowPredicate(address_column,
                                 remap->Resolve(table_key, op.row_address),
                                 key_literals);
      IRDB_RETURN_IF_ERROR(run(*stmt, 1));
      ++report->compensating_deletes;
      // The row's lifetime starts here; any mapping for it is now obsolete.
      remap->Discard(table_key, op.row_address);
      break;
    }
    case LogOp::kDelete: {
      // Undo a delete: put the row back. Flavors with a hidden rowid
      // cannot force the old one — record the fresh ID in the remap table.
      // The Sybase flavor's rid is an ordinary (identity) column carried in
      // op.values, so the original address is restored exactly.
      auto stmt = sql::MakeStatement(sql::StatementKind::kInsert);
      stmt->table = op.table;
      std::vector<sql::ExprPtr> row;
      for (const auto& [col, v] : op.values) {
        stmt->insert_columns.push_back(col);
        row.push_back(sql::MakeLiteral(v));
      }
      stmt->insert_rows.push_back(std::move(row));
      auto r = admin->Execute(sql::PrintStatement(*stmt));
      if (!r.ok()) return r.status();
      ++report->ops_compensated;
      ++report->compensating_inserts;
      if (traits.has_rowid) {
        IRDB_CHECK(r->last_rowid != kNoRowId);
        if (r->last_rowid != op.row_address) {
          remap->Add(table_key, op.row_address, r->last_rowid);
          ++report->rows_remapped;
        }
      }
      break;
    }
    case LogOp::kUpdate: {
      // Undo an update: restore the changed columns' before values.
      auto stmt = sql::MakeStatement(sql::StatementKind::kUpdate);
      stmt->table = op.table;
      for (const auto& [col, v] : op.values) {
        stmt->assignments.emplace_back(col, sql::MakeLiteral(v));
      }
      stmt->where = RowPredicate(address_column,
                                 remap->Resolve(table_key, op.row_address),
                                 key_literals);
      IRDB_RETURN_IF_ERROR(run(*stmt, 1));
      ++report->compensating_updates;
      break;
    }
    default:
      break;
  }
  return Status::Ok();
}

}  // namespace

namespace {

// Multi-lane compensation with one private engine session per table batch.
// Each lane brackets its own transaction, so lanes never serialize on a
// shared session (the admin session's statement mutex would otherwise turn
// the "parallel" walk into a serial one — on a disk-bound engine the stall
// charges only overlap across sessions). Mirrors the RepairOnline lane
// loop: gate-exempt connection, bounded deadlock retries, first failing
// lane in deterministic batch order wins.
Status CompensateLanes(const DependencyAnalysis& analysis,
                       const std::set<int64_t>& undo_proxy_ids, Database* db,
                       const FlavorTraits& traits, RepairReport* report,
                       util::ThreadPool* pool) {
  const OpKeyMap op_keys =
      ComputeContaminatedPartition(db, analysis, undo_proxy_ids).op_keys;
  IRDB_ASSIGN_OR_RETURN(
      std::vector<CompensationBatch> batches,
      BuildCompensationBatches(analysis, undo_proxy_ids, &op_keys));
  report->compensate_lanes = std::max<int>(1, static_cast<int>(batches.size()));
  std::vector<Status> lane_status(batches.size(), Status::Ok());
  std::vector<RepairReport> lane_report(batches.size());
  std::atomic<bool> abort{false};
  auto run_lane = [&](size_t idx) {
    if (abort.load(std::memory_order_relaxed)) return;
    const CompensationBatch& batch = batches[idx];
    obs::Span lane_span(obs::span::kRepairCompensateLane);
    lane_span.AddArg("lane", static_cast<int64_t>(idx));
    lane_span.AddArg("tables", 1);
    lane_span.AddArg("stmts", static_cast<int64_t>(batch.ops.size()));
    Status st = Status::Ok();
    for (int attempt = 0; attempt < 3; ++attempt) {
      DirectConnection conn(db);
      db->SetSessionQuarantineExempt(conn.session_id(), true);
      lane_report[idx] = RepairReport{};
      auto begin = conn.Execute("BEGIN");
      if (!begin.ok()) {
        st = begin.status();
        break;
      }
      st = CompensateBatch(batch, &conn, traits, &lane_report[idx]);
      if (st.ok()) {
        auto commit = conn.Execute("COMMIT");
        st = commit.ok() ? Status::Ok() : commit.status();
      } else {
        (void)conn.Execute("ROLLBACK");
      }
      if (st.ok() || st.code() != StatusCode::kAborted) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1 + attempt));
    }
    lane_status[idx] = st;
    if (!st.ok()) abort.store(true, std::memory_order_relaxed);
  };
  std::vector<std::future<void>> pending;
  pending.reserve(batches.size());
  for (size_t i = 0; i < batches.size(); ++i) {
    pending.push_back(pool->Submit([&, i] { run_lane(i); }));
  }
  for (std::future<void>& f : pending) f.wait();
  for (const RepairReport& part : lane_report) {
    report->ops_compensated += part.ops_compensated;
    report->compensating_inserts += part.compensating_inserts;
    report->compensating_deletes += part.compensating_deletes;
    report->compensating_updates += part.compensating_updates;
    report->rows_remapped += part.rows_remapped;
  }
  for (const Status& st : lane_status) {
    if (!st.ok()) return st;
  }
  return Status::Ok();
}

}  // namespace

Status Compensate(const DependencyAnalysis& analysis,
                  const std::set<int64_t>& undo_proxy_ids, DbConnection* admin,
                  const FlavorTraits& traits, RepairReport* report,
                  util::ThreadPool* pool, Database* db) {
  report->undo_set = undo_proxy_ids;

  if (pool != nullptr && pool->lanes() > 1 && db != nullptr) {
    return CompensateLanes(analysis, undo_proxy_ids, db, traits, report, pool);
  }

  // Internal IDs of the transactions to undo.
  std::set<int64_t> undo_internal;
  for (int64_t proxy_id : undo_proxy_ids) {
    auto it = analysis.proxy_to_internal.find(proxy_id);
    if (it == analysis.proxy_to_internal.end()) {
      return Status::NotFound("proxy transaction " + std::to_string(proxy_id) +
                              " not found in the log");
    }
    undo_internal.insert(it->second);
  }

  const std::string address_column =
      traits.has_rowid ? traits.rowid_name : proxy::kSybaseRowIdColumn;

  // The plan: every op to undo, in inverse log order.
  std::vector<const RepairOp*> plan;
  for (auto it = analysis.ops.rbegin(); it != analysis.ops.rend(); ++it) {
    if (undo_internal.count(it->internal_txn_id)) plan.push_back(&*it);
  }

  {
    auto r = admin->Execute("BEGIN");
    if (!r.ok()) return r.status();
  }

  if (pool == nullptr || pool->lanes() <= 1) {
    // Primary-key literals per op (the ones online repair derives for its
    // lanes) let each compensating statement take the index path instead
    // of scanning the heap for the row address.
    OpKeyMap op_keys;
    if (db != nullptr) {
      op_keys = ComputeContaminatedPartition(db, analysis, undo_proxy_ids)
                    .op_keys;
    }
    RowIdRemap remap;
    for (const RepairOp* op : plan) {
      auto key = op_keys.find(op);
      IRDB_RETURN_IF_ERROR(CompensateOp(
          *op, admin, traits, address_column, &remap, report,
          key == op_keys.end() ? nullptr : &key->second));
    }
  } else {
    // Batched compensation: every compensating statement addresses rows by
    // row ID within a single table, and the remap is keyed per table, so the
    // plan splits into per-table batches — inverse-LSN order preserved
    // *within* each batch — whose row-id sets cannot overlap across tables.
    // The batches therefore commute and run concurrently, one lane per
    // table, each with its own remap and partial report (merged below).
    std::map<std::string, std::vector<const RepairOp*>> batches;
    for (const RepairOp* op : plan) {
      batches[ToLowerAscii(op->table)].push_back(op);
    }
    report->compensate_lanes = static_cast<int>(batches.size());
    std::vector<Status> lane_status(batches.size(), Status::Ok());
    std::vector<RepairReport> lane_report(batches.size());
    std::atomic<bool> abort{false};
    std::vector<std::future<void>> pending;
    pending.reserve(batches.size());
    size_t lane = 0;
    for (auto& [table, batch_ops] : batches) {
      const size_t idx = lane++;
      const std::vector<const RepairOp*>* batch = &batch_ops;
      pending.push_back(pool->Submit([&, idx, batch] {
        obs::Span lane_span(obs::span::kRepairCompensateLane);
        lane_span.AddArg("lane", static_cast<int64_t>(idx));
        lane_span.AddArg("tables", 1);
        lane_span.AddArg("stmts", static_cast<int64_t>(batch->size()));
        RowIdRemap remap;
        for (const RepairOp* op : *batch) {
          if (abort.load(std::memory_order_relaxed)) return;
          Status s = CompensateOp(*op, admin, traits, address_column, &remap,
                                  &lane_report[idx]);
          if (!s.ok()) {
            lane_status[idx] = std::move(s);
            abort.store(true, std::memory_order_relaxed);
            return;
          }
        }
      }));
    }
    for (std::future<void>& f : pending) f.wait();
    for (const RepairReport& part : lane_report) {
      report->ops_compensated += part.ops_compensated;
      report->compensating_inserts += part.compensating_inserts;
      report->compensating_deletes += part.compensating_deletes;
      report->compensating_updates += part.compensating_updates;
      report->rows_remapped += part.rows_remapped;
    }
    // First failing table in (deterministic) batch order wins.
    for (const Status& s : lane_status) {
      if (!s.ok()) return s;
    }
  }

  {
    auto r = admin->Execute("COMMIT");
    if (!r.ok()) return r.status();
  }
  return Status::Ok();
}

Result<std::vector<CompensationBatch>> BuildCompensationBatches(
    const DependencyAnalysis& analysis, const std::set<int64_t>& undo_proxy_ids,
    const std::map<const RepairOp*,
                   std::vector<std::pair<std::string, Value>>>* op_keys) {
  std::set<int64_t> undo_internal;
  for (int64_t proxy_id : undo_proxy_ids) {
    auto it = analysis.proxy_to_internal.find(proxy_id);
    if (it == analysis.proxy_to_internal.end()) {
      return Status::NotFound("proxy transaction " + std::to_string(proxy_id) +
                              " not found in the log");
    }
    undo_internal.insert(it->second);
  }
  std::map<std::string, CompensationBatch> by_table;
  for (auto it = analysis.ops.rbegin(); it != analysis.ops.rend(); ++it) {
    if (undo_internal.count(it->internal_txn_id) == 0) continue;
    const std::string table_key = ToLowerAscii(it->table);
    CompensationBatch& batch = by_table[table_key];
    batch.table = table_key;
    batch.ops.push_back(&*it);
    std::vector<std::pair<std::string, Value>> key;
    if (op_keys != nullptr) {
      auto hit = op_keys->find(&*it);
      if (hit != op_keys->end()) key = hit->second;
    }
    batch.keys.push_back(std::move(key));
  }
  std::vector<CompensationBatch> out;
  out.reserve(by_table.size());
  for (auto& [table, batch] : by_table) out.push_back(std::move(batch));
  return out;
}

Status CompensateBatch(const CompensationBatch& batch, DbConnection* admin,
                       const FlavorTraits& traits, RepairReport* report) {
  const std::string address_column =
      traits.has_rowid ? traits.rowid_name : proxy::kSybaseRowIdColumn;
  RowIdRemap remap;
  for (size_t i = 0; i < batch.ops.size(); ++i) {
    const std::vector<std::pair<std::string, Value>>* key = nullptr;
    if (i < batch.keys.size() && !batch.keys[i].empty()) key = &batch.keys[i];
    IRDB_RETURN_IF_ERROR(CompensateOp(*batch.ops[i], admin, traits,
                                      address_column, &remap, report, key));
  }
  return Status::Ok();
}

}  // namespace irdb::repair
