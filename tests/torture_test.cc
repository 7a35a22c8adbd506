#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "storage/env.h"
#include "storage/object_store.h"
#include "test_util.h"

namespace mmdb {
namespace {

using mmdb::testing::TempPath;

std::string StorePath() {
  return TempPath("mmdb_torture.db");
}

void RemoveStoreFiles(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".journal").c_str());
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

/// The store states a correct engine may expose after a crash anywhere in
/// the workload: exactly the state after some batch prefix.
std::vector<StoreState> ExpectedPrefixStates() {
  std::vector<StoreState> states;
  StoreState state;
  states.push_back(state);  // Before any batch.
  for (const Batch& batch : TortureWorkload()) {
    for (uint64_t key : batch.deletes) state.erase(key);
    for (const auto& [key, value] : batch.puts) state[key] = value;
    states.push_back(state);
  }
  return states;
}

/// Runs the workload against `store`, one atomic batch per entry.
/// Returns the index of the last batch whose commit was confirmed
/// (0 = none), stopping at the first failure.
int RunWorkload(DiskObjectStore* store) {
  int committed = 0;
  const std::vector<Batch> batches = TortureWorkload();
  for (size_t i = 0; i < batches.size(); ++i) {
    if (!store->BeginBatch().ok()) break;
    bool batch_ok = true;
    for (uint64_t key : batches[i].deletes) {
      if (!store->Delete(key).ok()) {
        batch_ok = false;
        break;
      }
    }
    for (const auto& [key, value] : batches[i].puts) {
      if (!batch_ok) break;
      const Status put = store->Contains(key) ? store->Upsert(key, value)
                                              : store->Put(key, value);
      if (!put.ok()) batch_ok = false;
    }
    if (!batch_ok) {
      store->AbortBatch().ok();
      break;
    }
    if (!store->CommitBatch().ok()) break;
    committed = static_cast<int>(i) + 1;
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
