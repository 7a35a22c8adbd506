#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "storage/env.h"
#include "storage/object_store.h"
#include "test_util.h"

namespace mmdb {
namespace {

using mmdb::testing::RemoveStoreFiles;
using mmdb::testing::TempPath;

std::string StorePath() {
  return TempPath("mmdb_torture.db");
}

using StoreState = std::map<uint64_t, std::string>;

/// The scripted workload: a sequence of batches, each a group of
/// mutations that must commit (or disappear) atomically. Batch payloads
/// include a multi-page blob so crashes land inside chain writes too.
struct Batch {
  std::vector<std::pair<uint64_t, std::string>> puts;
  std::vector<uint64_t> deletes;
};

std::vector<Batch> TortureWorkload() {
  std::vector<Batch> batches;
  batches.push_back({{{10, "alpha"}, {11, std::string(9000, 'A')}}, {}});
  batches.push_back({{{12, "beta"}, {13, std::string(300, 'B')}}, {}});
  batches.push_back({{{14, std::string(5000, 'C')}}, {11}});
  batches.push_back({{{10, "alpha-rewritten"}, {15, "delta"}}, {10}});
  return batches;
}

/// Applies `batch` to the model state `state`.
void ApplyBatch(const Batch& batch, StoreState* state) {
  for (uint64_t key : batch.deletes) state->erase(key);
  for (const auto& [key, value] : batch.puts) (*state)[key] = value;
}

/// The store states a correct engine may expose after a crash anywhere in
/// the workload: exactly the state after some batch prefix.
std::vector<StoreState> ExpectedPrefixStates() {
  std::vector<StoreState> states;
  StoreState state;
  states.push_back(state);  // Before any batch.
  for (const Batch& batch : TortureWorkload()) {
    ApplyBatch(batch, &state);
    states.push_back(state);
  }
  return states;
}

/// Runs `batch` against `store` as one atomic batch, aborting it when a
/// mutation fails. True iff its CommitBatch returned OK.
bool RunBatch(DiskObjectStore* store, const Batch& batch) {
  if (!store->BeginBatch().ok()) return false;
  bool batch_ok = true;
  for (uint64_t key : batch.deletes) {
    if (!store->Delete(key).ok()) {
      batch_ok = false;
      break;
    }
  }
  for (const auto& [key, value] : batch.puts) {
    if (!batch_ok) break;
    const Status put = store->Contains(key) ? store->Upsert(key, value)
                                            : store->Put(key, value);
    if (!put.ok()) batch_ok = false;
  }
  if (!batch_ok) {
    store->AbortBatch().ok();
    return false;
  }
  return store->CommitBatch().ok();
}

/// Runs the workload against `store`, one atomic batch per entry.
/// Returns the index of the last batch whose commit was confirmed
/// (0 = none), stopping at the first failure.
int RunWorkload(DiskObjectStore* store) {
  int committed = 0;
  for (const Batch& batch : TortureWorkload()) {
    if (!RunBatch(store, batch)) break;
    ++committed;
  }
  return committed;
}

/// Reads the full contents of `store` (keys and payloads).
Result<StoreState> ReadState(DiskObjectStore* store) {
  StoreState state;
  for (uint64_t key : store->Keys()) {
    MMDB_ASSIGN_OR_RETURN(state[key], store->Get(key));
  }
  return state;
}

// The crash-point torture sweep: run the scripted multi-batch workload,
// crash after the k-th I/O operation — for every k from 0 to the fault-
// free operation count — reopen through a clean env, and assert the
// journal's all-or-nothing invariant:
//   * the store reopens without error (recovery handles every crash
//     point),
//   * its contents equal the state after some batch prefix j,
//   * j covers at least every batch whose CommitBatch returned OK,
//   * Scrub finds no corruption (recovery never leaves torn state).
TEST(CrashTortureTest, EveryCrashPointRecoversToAPrefixState) {
  const std::string path = StorePath();
  const std::vector<StoreState> expected = ExpectedPrefixStates();

  // Fault-free probe to size the sweep.
  int64_t total_ops = 0;
  {
    RemoveStoreFiles(path);
    FaultInjectingEnv env(Env::Default());
    Result<std::unique_ptr<DiskObjectStore>> store =
        DiskObjectStore::Open(path, 64, true, &env);
    ASSERT_TRUE(store.ok()) << store.status().message();
    ASSERT_EQ(RunWorkload(store->get()),
              static_cast<int>(TortureWorkload().size()));
    total_ops = env.op_count();
  }
  ASSERT_GT(total_ops, 20) << "workload too small to be a meaningful sweep";

  for (int64_t k = 0; k <= total_ops; ++k) {
    SCOPED_TRACE("crash after op " + std::to_string(k) + " of " +
                 std::to_string(total_ops));
    RemoveStoreFiles(path);
    int confirmed = 0;
    {
      FaultInjectingEnv env(Env::Default());
      env.CrashAfterOps(k);
      Result<std::unique_ptr<DiskObjectStore>> store =
          DiskObjectStore::Open(path, 64, true, &env);
      if (store.ok()) confirmed = RunWorkload(store->get());
      // (An Open refused by the crash point is itself a valid crash.)
    }

    // Reboot: reopen through the real env and let recovery run.
    Result<std::unique_ptr<DiskObjectStore>> store = DiskObjectStore::Open(path);
    ASSERT_TRUE(store.ok()) << store.status().message();
    Result<StoreState> state = ReadState(store->get());
    ASSERT_TRUE(state.ok()) << state.status().message();

    int matched = -1;
    for (size_t j = 0; j < expected.size(); ++j) {
      if (*state == expected[j]) {
        matched = static_cast<int>(j);
        break;
      }
    }
    ASSERT_GE(matched, 0) << "recovered state matches no batch prefix";
    EXPECT_GE(matched, confirmed)
        << "a confirmed commit was lost by the crash";

    Result<DiskObjectStore::ScrubReport> report = (*store)->Scrub();
    ASSERT_TRUE(report.ok()) << report.status().message();
    EXPECT_TRUE(report->clean()) << "recovery left corrupt pages behind";
  }
  RemoveStoreFiles(path);
}

/// Whether operation `i` of `ops` belongs to a journal reset — the
/// truncate of `journal` or the sync right after it. The reset is the
/// commit point: when it fails, the store cannot tell whether the batch
/// is durable.
bool InJournalReset(const std::vector<FaultInjectingEnv::OpRecord>& ops,
                    size_t i, const std::string& journal) {
  if (ops[i].path != journal) return false;
  if (ops[i].op == IoOp::kTruncate) return true;
  return ops[i].op == IoOp::kSync && i > 0 && ops[i - 1].path == journal &&
         ops[i - 1].op == IoOp::kTruncate;
}

// The single-fault sweep, beside the crash sweep: instead of dying, the
// process survives one failed I/O operation and keeps going. The
// workload (the crash sweep's batches plus one, on the smallest pool, so
// batches also evict mid-body) fails each write, sync and truncate it
// issues after Open in turn, runs every batch even after one has failed,
// and aborts any batch whose body fails. Then:
//   * the live store and a clean reopen both hold exactly the batches
//     whose CommitBatch returned OK — a failed batch leaves no trace,
//     whatever step of it failed;
//   * Scrub finds no corruption.
// The one exception is a failure inside the journal reset (the commit
// point): the store must then refuse every later mutation, and the
// reopened store may also hold that one batch.
TEST(FaultTortureTest, EverySingleFaultLeavesExactlyTheConfirmedBatches) {
  const std::string path = StorePath() + ".faults";
  const std::string journal = path + ".journal";
  std::vector<Batch> batches = TortureWorkload();
  batches.push_back({{{16, std::string(7000, 'D')}, {12, "beta-rewritten"}},
                     {13}});

  // Fault-free probe: every operation the workload issues after Open.
  std::vector<FaultInjectingEnv::OpRecord> ops;
  {
    RemoveStoreFiles(path);
    FaultInjectingEnv env(Env::Default());
    Result<std::unique_ptr<DiskObjectStore>> store =
        DiskObjectStore::Open(path, 8, true, &env);
    ASSERT_TRUE(store.ok()) << store.status().message();
    const int64_t opened = env.op_count();
    for (const Batch& batch : batches) {
      ASSERT_TRUE(RunBatch(store->get(), batch));
    }
    ops.assign(env.log().begin() + opened, env.log().end());
  }

  int swept = 0;
  std::map<IoOp, int64_t> seen;  // Operations of each kind so far.
  for (size_t i = 0; i < ops.size(); ++i) {
    const IoOp op = ops[i].op;
    const int64_t nth = ++seen[op];
    if (op != IoOp::kWrite && op != IoOp::kSync && op != IoOp::kTruncate) {
      continue;
    }
    const bool commit_point = InJournalReset(ops, i, journal);
    SCOPED_TRACE("failing " + std::string(IoOpName(op)) + " #" +
                 std::to_string(nth) + " (op " + std::to_string(i + 1) +
                 " of " + std::to_string(ops.size()) + ") on " +
                 ops[i].path);
    RemoveStoreFiles(path);
    StoreState confirmed;
    StoreState with_failed;  // Plus the first failed batch.
    bool failed_any = false;
    {
      FaultInjectingEnv env(Env::Default());
      Result<std::unique_ptr<DiskObjectStore>> store =
          DiskObjectStore::Open(path, 8, true, &env);
      ASSERT_TRUE(store.ok()) << store.status().message();
      env.FailNth(op, nth);  // Counts operations of `op` from now.
      for (const Batch& batch : batches) {
        if (RunBatch(store->get(), batch)) {
          ApplyBatch(batch, &confirmed);
          ApplyBatch(batch, &with_failed);
        } else if (!failed_any) {
          failed_any = true;
          ApplyBatch(batch, &with_failed);
        }
      }
      ASSERT_TRUE(failed_any) << "the armed fault never failed a batch";
      if (commit_point) {
        EXPECT_FALSE((*store)->Put(99, "after").ok())
            << "a store whose commit point failed must refuse mutations";
      } else {
        Result<StoreState> live = ReadState(store->get());
        ASSERT_TRUE(live.ok()) << live.status().message();
        EXPECT_EQ(*live, confirmed) << "the live store kept a failed batch";
      }
    }

    Result<std::unique_ptr<DiskObjectStore>> store =
        DiskObjectStore::Open(path);
    ASSERT_TRUE(store.ok()) << store.status().message();
    Result<StoreState> reopened = ReadState(store->get());
    ASSERT_TRUE(reopened.ok()) << reopened.status().message();
    if (commit_point && *reopened == with_failed) {
      // The reset may have emptied the journal before it failed.
    } else {
      EXPECT_EQ(*reopened, confirmed)
          << "the reopened store differs from the confirmed batches";
    }
    Result<DiskObjectStore::ScrubReport> report = (*store)->Scrub();
    ASSERT_TRUE(report.ok()) << report.status().message();
    EXPECT_TRUE(report->clean()) << "a failed batch left corrupt pages";
    ++swept;
  }
  EXPECT_GT(swept, 50) << "workload too small to be a meaningful sweep";
  RemoveStoreFiles(path);
}

// Journal-off stores make no atomicity promise, but must still reopen
// cleanly after a crash (pages are checksummed either way); this pins the
// weaker contract so the journaled path's guarantees stay deliberate.
TEST(CrashTortureTest, UnjournaledStoreStillReopensAfterCrash) {
  const std::string path = StorePath() + ".nojournal";
  RemoveStoreFiles(path);
  {
    FaultInjectingEnv env(Env::Default());
    Result<std::unique_ptr<DiskObjectStore>> store =
        DiskObjectStore::Open(path, 64, false, &env);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put(1, "x").ok());
    env.CrashAfterOps(4);
    (*store)->Put(2, std::string(6000, 'y')).ok();  // Dies mid-batch.
    EXPECT_TRUE(env.crashed());
  }
  Result<std::unique_ptr<DiskObjectStore>> store =
      DiskObjectStore::Open(path, 64, false);
  ASSERT_TRUE(store.ok()) << store.status().message();
  RemoveStoreFiles(path);
}

}  // namespace
}  // namespace mmdb
