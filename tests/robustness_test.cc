// Query lifecycle hardening: deadlines, cooperative cancellation,
// admission control, and retry/backoff over the fault seam.
//
// The torture matrix at the bottom is the acceptance piece: every
// (fault x admission policy x deadline) combination must terminate
// promptly with a *typed* status — never a hang, never an untyped error,
// never leaked in-flight work.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/admission.h"
#include "core/breaker.h"
#include "core/cancel.h"
#include "core/database.h"
#include "core/executor.h"
#include "core/query_service.h"
#include "datasets/augment.h"
#include "image/color.h"
#include "obs/metrics.h"
#include "storage/disk_manager.h"
#include "storage/env.h"
#include "storage/journal.h"
#include "storage/page.h"
#include "test_util.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace mmdb {
namespace {

using mmdb::testing::RemoveStoreFiles;
using mmdb::testing::TempPath;

/// A range predicate every image satisfies (any bin's fraction lies in
/// [0, 1]), forcing a full collection scan.
RangeQuery MatchAllQuery() {
  RangeQuery query;
  query.bin = 0;
  query.min_fraction = 0.0;
  query.max_fraction = 1.0;
  return query;
}

std::unique_ptr<MultimediaDatabase> MakeDataset(int total_images,
                                                uint64_t seed) {
  auto db = MultimediaDatabase::Open().value();
  datasets::DatasetSpec spec;
  spec.total_images = total_images;
  spec.edited_fraction = 0.7;
  spec.seed = seed;
  EXPECT_TRUE(datasets::BuildAugmentedDatabase(db.get(), spec).ok());
  return db;
}

/// One binary image plus `edited` edit scripts over it, flushed to a
/// disk store at `path` through the default env (so fault scripting
/// starts from a clean, fully persisted store).
void BuildSmallStore(const std::string& path, int edited,
                     ObjectId* base_id_out,
                     std::vector<ObjectId>* edited_ids_out) {
  RemoveStoreFiles(path);
  DatabaseOptions options;
  options.path = path;
  auto db = MultimediaDatabase::Open(options).value();
  Rng rng(4242);
  const ObjectId base_id =
      db->InsertBinaryImage(testing::RandomBlockImage(16, 12, 4, rng))
          .value();
  if (base_id_out != nullptr) *base_id_out = base_id;
  for (int i = 0; i < edited; ++i) {
    EditScript script;
    script.base_id = base_id;
    script.ops.emplace_back(ModifyOp{colors::kRed, colors::kGold});
    const ObjectId edited_id = db->InsertEditedImage(script).value();
    if (edited_ids_out != nullptr) edited_ids_out->push_back(edited_id);
  }
  ASSERT_TRUE(db->Flush().ok());
}

// --- Deadline / CancelCheck units --------------------------------------

TEST(DeadlineTest, DefaultIsInfinite) {
  const Deadline d;
  EXPECT_TRUE(d.IsInfinite());
  EXPECT_FALSE(d.Expired());
  EXPECT_TRUE(std::isinf(d.RemainingSeconds()));
}

TEST(DeadlineTest, AfterExpiresAndEarliestPicksTheFiniteOne) {
  EXPECT_TRUE(Deadline::After(-1.0).Expired());
  const Deadline far = Deadline::After(60.0);
  EXPECT_FALSE(far.Expired());
  EXPECT_GT(far.RemainingSeconds(), 30.0);

  const Deadline earliest = Deadline::Earliest(Deadline(), far);
  EXPECT_FALSE(earliest.IsInfinite());
  const Deadline near = Deadline::After(0.001);
  EXPECT_LE(Deadline::Earliest(far, near).RemainingSeconds(),
            near.RemainingSeconds() + 1.0);
}

TEST(CancelCheckTest, UnlimitedContextNeverTrips) {
  QueryContext ctx;
  CancelCheck check(ctx);
  EXPECT_FALSE(check.enabled());
  EXPECT_EQ(check.enabled_or_null(), nullptr);
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(check.Check().ok());
}

TEST(CancelCheckTest, TokenTripsOnNextCheckAndSticks) {
  CancelToken token;
  QueryContext ctx;
  ctx.cancel = &token;
  CancelCheck check(ctx);
  EXPECT_TRUE(check.Check().ok());
  token.Cancel();
  EXPECT_EQ(check.Check().code(), StatusCode::kCancelled);
  EXPECT_EQ(check.Check().code(), StatusCode::kCancelled) << "sticky";
}

TEST(CancelCheckTest, ExpiredDeadlineTripsWithinOneStride) {
  QueryContext ctx;
  ctx.deadline = Deadline::After(-1.0);
  ctx.check_stride = 8;
  CancelCheck check(ctx);
  Status tripped = Status::OK();
  for (int i = 0; i < ctx.check_stride + 1 && tripped.ok(); ++i) {
    tripped = check.Check();
  }
  EXPECT_EQ(tripped.code(), StatusCode::kDeadlineExceeded);
}

// --- AdmissionController units -----------------------------------------

TEST(AdmissionTest, DisabledGateAdmitsEverything) {
  AdmissionController gate(AdmissionOptions{});
  for (int i = 0; i < 4; ++i) {
    Result<AdmissionController::Ticket> ticket = gate.Admit();
    EXPECT_TRUE(ticket.ok());
  }
  EXPECT_EQ(gate.in_flight(), 0) << "a disabled gate keeps no state";
}

TEST(AdmissionTest, BlockPolicyHandsTheSlotToTheWaiter) {
  AdmissionOptions options;
  options.max_in_flight = 1;
  options.block_timeout_seconds = 5.0;
  AdmissionController gate(options);

  Result<AdmissionController::Ticket> first = gate.Admit();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(gate.in_flight(), 1);

  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    Result<AdmissionController::Ticket> second = gate.Admit();
    EXPECT_TRUE(second.ok());
    admitted.store(true);
  });
  while (gate.queued() == 0) std::this_thread::yield();
  EXPECT_FALSE(admitted.load());
  first = Status::ResourceExhausted("drop the ticket");
  waiter.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(gate.in_flight(), 0);
}

TEST(AdmissionTest, BlockPolicyTimesOutTyped) {
  AdmissionOptions options;
  options.max_in_flight = 1;
  options.block_timeout_seconds = 0.02;
  AdmissionController gate(options);
  Result<AdmissionController::Ticket> holder = gate.Admit();
  ASSERT_TRUE(holder.ok());

  Result<AdmissionController::Ticket> rejected = gate.Admit();
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(gate.queued(), 0) << "the timed-out waiter unparked itself";
}

TEST(AdmissionTest, BlockPolicyHonorsTheQueryDeadline) {
  AdmissionOptions options;
  options.max_in_flight = 1;
  options.block_timeout_seconds = 30.0;
  AdmissionController gate(options);
  Result<AdmissionController::Ticket> holder = gate.Admit();
  ASSERT_TRUE(holder.ok());

  Stopwatch watch;
  Result<AdmissionController::Ticket> rejected =
      gate.Admit(Deadline::After(0.02));
  EXPECT_EQ(rejected.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(watch.ElapsedSeconds(), 5.0);
}

TEST(AdmissionTest, RejectNewIsFastAndTyped) {
  AdmissionOptions options;
  options.max_in_flight = 1;
  options.policy = AdmissionPolicy::kRejectNew;
  AdmissionController gate(options);
  Result<AdmissionController::Ticket> holder = gate.Admit();
  ASSERT_TRUE(holder.ok());

  Stopwatch watch;
  Result<AdmissionController::Ticket> rejected = gate.Admit();
  const double seconds = watch.ElapsedSeconds();
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_LT(seconds, 0.001) << "reject-new must not wait";
}

TEST(AdmissionTest, ShedOldestEvictsTheOldestWaiterImmediately) {
  AdmissionOptions options;
  options.max_in_flight = 1;
  options.max_queued = 1;
  options.policy = AdmissionPolicy::kShedOldest;
  options.block_timeout_seconds = 5.0;
  AdmissionController gate(options);
  Result<AdmissionController::Ticket> holder = gate.Admit();
  ASSERT_TRUE(holder.ok());

  // The old waiter parks, then a newer arrival sheds it.
  std::atomic<bool> shed{false};
  std::thread old_waiter([&] {
    Stopwatch watch;
    Result<AdmissionController::Ticket> ticket = gate.Admit();
    EXPECT_EQ(ticket.status().code(), StatusCode::kResourceExhausted);
    EXPECT_LT(watch.ElapsedSeconds(), 2.0) << "shed waiters wake at once";
    shed.store(true);
  });
  while (gate.queued() == 0) std::this_thread::yield();

  std::thread new_waiter([&] {
    Result<AdmissionController::Ticket> ticket = gate.Admit();
    EXPECT_TRUE(ticket.ok()) << "the newer arrival takes the queue slot";
  });
  old_waiter.join();
  EXPECT_TRUE(shed.load());
  while (gate.queued() == 0) std::this_thread::yield();
  holder = Status::ResourceExhausted("release the slot");
  new_waiter.join();
  EXPECT_EQ(gate.in_flight(), 0);
  EXPECT_EQ(gate.queued(), 0);
}

// --- Circuit breaker ----------------------------------------------------

TEST(CircuitBreakerTest, OpensExactlyOnceAtTheThreshold) {
  CircuitBreaker breaker(3);
  const ObjectId id = 42;
  EXPECT_FALSE(breaker.RecordFailure(id));
  EXPECT_FALSE(breaker.RecordFailure(id));
  EXPECT_FALSE(breaker.IsOpen(id));
  EXPECT_TRUE(breaker.RecordFailure(id)) << "trips on failure #3";
  EXPECT_TRUE(breaker.IsOpen(id));
  EXPECT_FALSE(breaker.RecordFailure(id)) << "already open: no second trip";
  EXPECT_EQ(breaker.FailureCount(id), 3);
  EXPECT_FALSE(breaker.IsOpen(7)) << "per-image, not global";
}

// --- Executor shutdown semantics ---------------------------------------

TEST(ExecutorShutdownTest, FullQueueDrainsCompletelyOnShutdown) {
  // Regression: tasks sitting in the queue when Shutdown is called must
  // complete (or be handed back inline) — never dropped, never
  // deadlocked. The gate keeps the single worker busy so the queue is
  // genuinely full when Shutdown starts draining.
  constexpr int kTasks = 100;
  std::atomic<int> ran{0};
  std::atomic<bool> gate_open{false};
  {
    Executor pool(1);
    pool.Submit([&] {
      while (!gate_open.load()) std::this_thread::yield();
      ran.fetch_add(1);
    });
    for (int i = 0; i < kTasks - 1; ++i) {
      pool.Submit([&] { ran.fetch_add(1); });
    }
    std::thread opener([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      gate_open.store(true);
    });
    pool.Shutdown();
    opener.join();
  }
  EXPECT_EQ(ran.load(), kTasks);
}

// --- Cooperative cancellation through the processors -------------------

const QueryMethod kAllMethods[] = {
    QueryMethod::kInstantiate, QueryMethod::kRbm, QueryMethod::kBwm,
    QueryMethod::kBwmIndexed, QueryMethod::kParallelRbm};

TEST(CancellationTest, PreCancelledTokenStopsEveryMethodPromptly) {
  auto db = MakeDataset(60, 7001);
  CancelToken token;
  token.Cancel();

  for (QueryMethod method : kAllMethods) {
    QueryInterrupt interrupt;
    QueryContext ctx;
    ctx.cancel = &token;
    ctx.interrupt = &interrupt;
    Stopwatch watch;
    Result<QueryResult> result = db->RunRange(MatchAllQuery(), method, ctx);
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
        << QueryMethodName(method);
    EXPECT_LT(watch.ElapsedSeconds(), 2.0) << QueryMethodName(method);
    EXPECT_TRUE(interrupt.partial) << QueryMethodName(method);
    EXPECT_EQ(interrupt.reason, StatusCode::kCancelled);
  }
  // Cancellation must leave no corruption-shaped side effects: images the
  // query never examined are not quarantined and trip no breaker.
  EXPECT_TRUE(db->QuarantinedImages().empty());
}

TEST(CancellationTest, MidRuleWalkCancelReportsPartialProgress) {
  auto db = MakeDataset(60, 7003);
  const Result<QueryResult> full = db->RunRange(MatchAllQuery(),
                                                QueryMethod::kRbm);
  ASSERT_TRUE(full.ok());

  // An already-expired deadline with stride 1 trips at the first
  // per-image boundary of the rule walk: partial progress is bounded by
  // what a single check interval allows.
  QueryInterrupt interrupt;
  QueryContext ctx;
  ctx.deadline = Deadline::After(-1.0);
  ctx.check_stride = 1;
  ctx.interrupt = &interrupt;
  const Result<QueryResult> cut = db->RunRange(MatchAllQuery(),
                                               QueryMethod::kRbm, ctx);
  EXPECT_EQ(cut.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(interrupt.partial);
  EXPECT_EQ(interrupt.reason, StatusCode::kDeadlineExceeded);
  EXPECT_LE(interrupt.results_so_far,
            static_cast<int64_t>(full->ids.size()));
  EXPECT_LT(interrupt.stats.edited_images_bounded,
            full->stats.edited_images_bounded);
}

TEST(CancellationTest, MidClusterAcceptCancelReportsPartialProgress) {
  auto db = MakeDataset(60, 7005);
  const Result<QueryResult> full = db->RunRange(MatchAllQuery(),
                                                QueryMethod::kBwm);
  ASSERT_TRUE(full.ok());

  QueryInterrupt interrupt;
  QueryContext ctx;
  ctx.deadline = Deadline::After(-1.0);
  ctx.check_stride = 1;
  ctx.interrupt = &interrupt;
  const Result<QueryResult> cut = db->RunRange(MatchAllQuery(),
                                               QueryMethod::kBwm, ctx);
  EXPECT_EQ(cut.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(interrupt.partial);
  EXPECT_LT(interrupt.stats.edited_images_skipped +
                interrupt.stats.edited_images_bounded,
            full->stats.edited_images_skipped +
                full->stats.edited_images_bounded);
  EXPECT_TRUE(db->QuarantinedImages().empty());
}

/// A top-k query for a stored binary image's own histogram.
SimilarityQuery NearestToFirstBinary(const MultimediaDatabase& db) {
  SimilarityQuery query;
  query.histogram =
      db.collection().FindBinary(db.collection().binary_ids().front())
          ->histogram;
  query.k = 5;
  return query;
}

TEST(CancellationTest, PreCancelledTokenStopsTopKWithPartialFlag) {
  // Top-k keeps the interrupt contract of the range paths: the typed
  // status plus the partial-progress record.
  auto db = MakeDataset(60, 7009);
  CancelToken token;
  token.Cancel();
  QueryInterrupt interrupt;
  QueryContext ctx;
  ctx.cancel = &token;
  ctx.interrupt = &interrupt;
  const Result<QueryResult> result =
      db->RunSimilarity(NearestToFirstBinary(*db), ctx);
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_TRUE(interrupt.partial);
  EXPECT_EQ(interrupt.reason, StatusCode::kCancelled);
  // No candidate is final before the cutoff, so none is reported.
  EXPECT_EQ(interrupt.results_so_far, 0);
}

TEST(CancellationTest, TopKDeadlineTripsBeforeFirstEditedImage) {
  // Top-k checks once per image. With the clock first read at check
  // number binaries + 1, the deadline trips at the check before the first
  // edited image: every binary image is scored, no edited one.
  auto db = MakeDataset(60, 7011);
  const int64_t binaries =
      static_cast<int64_t>(db->collection().BinaryCount());
  ASSERT_GT(db->collection().EditedCount(), 0u);
  QueryInterrupt interrupt;
  QueryContext ctx;
  ctx.deadline = Deadline::After(-1.0);
  ctx.check_stride = static_cast<int>(binaries) + 1;
  ctx.interrupt = &interrupt;
  const Result<QueryResult> cut =
      db->RunSimilarity(NearestToFirstBinary(*db), ctx);
  EXPECT_EQ(cut.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(interrupt.partial);
  EXPECT_EQ(interrupt.reason, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(interrupt.stats.binary_images_checked, binaries);
  EXPECT_EQ(interrupt.stats.edited_images_bounded, 0);
}

TEST(CancellationTest, UnlimitedContextMatchesLegacyPathExactly) {
  auto db = MakeDataset(60, 7007);
  for (QueryMethod method : kAllMethods) {
    const Result<QueryResult> legacy = db->RunRange(MatchAllQuery(), method);
    const Result<QueryResult> ctxed =
        db->RunRange(MatchAllQuery(), method, QueryContext{});
    ASSERT_TRUE(legacy.ok());
    ASSERT_TRUE(ctxed.ok());
    EXPECT_EQ(legacy->ids, ctxed->ids) << QueryMethodName(method);
  }
}

// --- Service-level lifecycle -------------------------------------------

TEST(ServiceLifecycleTest, DeadlineAndCancelCountersAndPartialFlag) {
  auto db = MakeDataset(50, 7101);
  QueryServiceOptions options;
  options.threads = 2;
  QueryService service(db.get(), options);

  QueryRequest timed = QueryRequest::Range(MatchAllQuery(),
                                           QueryMethod::kRbm);
  timed.deadline = Deadline::After(-1.0);
  Result<QueryResult> result = service.Execute(timed);
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);

  CancelToken batch_token;
  batch_token.Cancel();
  const std::vector<QueryRequest> requests(
      4, QueryRequest::Range(MatchAllQuery(), QueryMethod::kBwm));
  BatchOptions batch;
  batch.cancel = &batch_token;
  for (const Result<QueryResult>& r :
       service.ExecuteBatch(requests, batch)) {
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  }

  const QueryService::CounterSnapshot snapshot = service.Snapshot();
  EXPECT_EQ(snapshot.deadline_exceeded, 1);
  EXPECT_EQ(snapshot.cancelled_queries, 4);
  EXPECT_EQ(snapshot.failed_queries, 5);
  EXPECT_EQ(snapshot.partial_queries, 5);
}

TEST(ServiceLifecycleTest, InterruptedTopKCountsAsPartial) {
  auto db = MakeDataset(50, 7103);
  QueryServiceOptions options;
  options.threads = 2;
  QueryService service(db.get(), options);
  CancelToken batch_token;
  batch_token.Cancel();
  BatchOptions batch;
  batch.cancel = &batch_token;
  const std::vector<QueryRequest> requests = {
      QueryRequest::Similarity(NearestToFirstBinary(*db))};
  for (const Result<QueryResult>& r : service.ExecuteBatch(requests, batch)) {
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  }
  const QueryService::CounterSnapshot snapshot = service.Snapshot();
  EXPECT_EQ(snapshot.cancelled_queries, 1);
  EXPECT_EQ(snapshot.partial_queries, 1);
}

TEST(ServiceLifecycleTest, BlockAdmissionAdmitsAllUnderContention) {
  auto db = MakeDataset(50, 7103);
  QueryServiceOptions options;
  options.threads = 4;
  options.admission.max_in_flight = 1;
  options.admission.policy = AdmissionPolicy::kBlock;
  options.admission.block_timeout_seconds = 30.0;
  QueryService service(db.get(), options);
  ASSERT_NE(service.admission(), nullptr);

  const std::vector<QueryRequest> requests(
      16, QueryRequest::Range(MatchAllQuery(), QueryMethod::kRbm));
  for (const Result<QueryResult>& r : service.ExecuteBatch(requests)) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
  EXPECT_EQ(service.Snapshot().admission_rejected, 0);
  EXPECT_EQ(service.admission()->in_flight(), 0) << "no leaked slots";
}

TEST(ServiceLifecycleTest, RejectNewOverloadRejectsTypedOnly) {
  auto db = MakeDataset(50, 7105);
  QueryServiceOptions options;
  options.threads = 4;
  options.admission.max_in_flight = 1;
  options.admission.policy = AdmissionPolicy::kRejectNew;
  QueryService service(db.get(), options);

  const std::vector<QueryRequest> requests(
      32, QueryRequest::Range(MatchAllQuery(), QueryMethod::kRbm));
  int ok = 0;
  int rejected = 0;
  for (const Result<QueryResult>& r : service.ExecuteBatch(requests)) {
    if (r.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
      ++rejected;
    }
  }
  EXPECT_EQ(ok + rejected, 32);
  EXPECT_GE(ok, 1) << "the slot holder always executes";
  const QueryService::CounterSnapshot snapshot = service.Snapshot();
  EXPECT_EQ(snapshot.admission_rejected, rejected);
  EXPECT_EQ(snapshot.failed_queries, rejected);
  EXPECT_EQ(service.admission()->in_flight(), 0);
}

// --- Storage retry / breaker / fsync -----------------------------------

int64_t CounterValue(const char* name, const char* help) {
  return obs::Registry::Default().GetCounter(name, help)->Value();
}

TEST(StorageRetryTest, TransientReadBurstIsAbsorbedByBackoffRetries) {
  const std::string path = TempPath("mmdb_robust_transient.db");
  ObjectId base_id = kInvalidObjectId;
  std::vector<ObjectId> edited_ids;
  BuildSmallStore(path, 2, &base_id, &edited_ids);

  FaultInjectingEnv env(Env::Default());
  DatabaseOptions options;
  options.path = path;
  options.env = &env;
  auto db = MultimediaDatabase::Open(options).value();

  const int64_t retries_before = CounterValue(
      "mmdb_storage_retries_total",
      "Page read attempts repeated after a transient I/O failure.");
  // Two consecutive reads fail, then the device recovers: the default
  // policy's three attempts absorb the burst without surfacing an error.
  env.TransientReadFailures(2);
  const Result<QueryResult> result =
      db->RunRange(MatchAllQuery(), QueryMethod::kInstantiate);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.corrupt_images_skipped, 0);
  EXPECT_TRUE(db->QuarantinedImages().empty());
  if constexpr (obs::kObsEnabled) {
    EXPECT_GE(CounterValue(
                  "mmdb_storage_retries_total",
                  "Page read attempts repeated after a transient I/O "
                  "failure.") -
                  retries_before,
              2);
  }
  RemoveStoreFiles(path);
}

TEST(StorageRetryTest, PersistentFailuresTripTheBreakerIntoQuarantine) {
  const std::string path = TempPath("mmdb_robust_breaker.db");
  ObjectId base_id = kInvalidObjectId;
  std::vector<ObjectId> edited_ids;
  BuildSmallStore(path, 1, &base_id, &edited_ids);
  ASSERT_EQ(edited_ids.size(), 1u);

  FaultInjectingEnv env(Env::Default());
  DatabaseOptions options;
  options.path = path;
  options.env = &env;
  auto db = MultimediaDatabase::Open(options).value();

  // Every read fails: retries exhaust, the per-image breaker counts one
  // trip per query, and on the third it opens and quarantines the image —
  // after which queries degrade gracefully instead of failing.
  env.TransientReadFailures(1'000'000);
  for (int attempt = 0; attempt < 2; ++attempt) {
    const Result<QueryResult> failed =
        db->RunRange(MatchAllQuery(), QueryMethod::kInstantiate);
    EXPECT_EQ(failed.status().code(), StatusCode::kIoError);
  }
  EXPECT_FALSE(db->circuit_breaker().IsOpen(edited_ids[0]));
  const Result<QueryResult> degraded =
      db->RunRange(MatchAllQuery(), QueryMethod::kInstantiate);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_EQ(degraded->stats.corrupt_images_skipped, 1);
  EXPECT_TRUE(db->circuit_breaker().IsOpen(edited_ids[0]));
  EXPECT_TRUE(db->IsQuarantined(edited_ids[0]));
  env.ClearFaults();
  RemoveStoreFiles(path);
}

TEST(FsyncTest, JournalSyncFailureIsStickyDataLoss) {
  const std::string path = TempPath("mmdb_robust_journal.jrn");
  std::remove(path.c_str());
  FaultInjectingEnv env(Env::Default());
  auto journal = Journal::Open(path, &env).value();

  Page page;
  page.WriteU64(0, 0xabcdefULL);
  ASSERT_TRUE(journal->Append(1, page).ok());
  env.FailNth(IoOp::kSync, 1);
  EXPECT_EQ(journal->EnsureSynced().code(), StatusCode::kDataLoss);
  // Sticky: the fault is gone but the records may be too — the journal
  // must never claim durability it might not have.
  EXPECT_EQ(journal->EnsureSynced().code(), StatusCode::kDataLoss);
  // A successful Reset (fresh empty journal, synced) clears the state.
  ASSERT_TRUE(journal->Reset().ok());
  EXPECT_TRUE(journal->EnsureSynced().ok());
  ASSERT_TRUE(journal->Append(2, page).ok());
  EXPECT_TRUE(journal->EnsureSynced().ok());
  std::remove(path.c_str());
}

/// What the facade keeps in memory about its images: the collection's
/// id lists and its BWM components.
struct FacadeMemory {
  std::vector<ObjectId> binary_ids;
  std::vector<ObjectId> edited_ids;
  std::map<ObjectId, std::vector<ObjectId>> clusters;
  std::vector<ObjectId> unclassified;
  bool operator==(const FacadeMemory&) const = default;
};

FacadeMemory SnapshotMemory(const MultimediaDatabase& db) {
  const AugmentedCollection& collection = db.collection();
  FacadeMemory out;
  out.binary_ids = collection.binary_ids();
  out.edited_ids = collection.edited_ids();
  for (ObjectId id : out.binary_ids) {
    out.clusters[id] = collection.FindBinary(id)->cluster;
  }
  out.unclassified = collection.unclassified();
  return out;
}

// A failed insert or delete leaves no trace: the facade changes memory
// only after its store batch commits, and the store undoes the failed
// batch. Every mutation fails once at its first write (a journal append)
// and once at its first sync; memory must stay as it was, the next id
// must be the one the failed inserts would have taken, and a reopen must
// find exactly what memory holds.
TEST(FailedMutationTest, LeavesMemoryAndDiskUnchanged) {
  const std::string path = TempPath("mmdb_robust_failed_mutation.db");
  RemoveStoreFiles(path);
  FaultInjectingEnv env(Env::Default());
  DatabaseOptions options;
  options.path = path;
  options.env = &env;
  auto db = MultimediaDatabase::Open(options).value();
  Rng rng(77);
  const ObjectId base =
      db->InsertBinaryImage(testing::RandomBlockImage(16, 12, 4, rng))
          .value();
  const ObjectId spare =
      db->InsertBinaryImage(testing::RandomBlockImage(16, 12, 4, rng))
          .value();
  EditScript script;
  script.base_id = base;
  script.ops.emplace_back(ModifyOp{colors::kRed, colors::kGold});
  const ObjectId edited = db->InsertEditedImage(script).value();
  ASSERT_TRUE(db->Flush().ok());
  const FacadeMemory before = SnapshotMemory(*db);
  const Image image = testing::RandomBlockImage(16, 12, 4, rng);

  const std::vector<std::pair<std::string, std::function<Status()>>>
      mutations = {
          {"binary insert",
           [&] { return db->InsertBinaryImage(image).status(); }},
          {"edited insert",
           [&] { return db->InsertEditedImage(script).status(); }},
          {"binary delete", [&] { return db->DeleteImage(spare); }},
          {"edited delete", [&] { return db->DeleteImage(edited); }},
      };
  for (IoOp op : {IoOp::kWrite, IoOp::kSync}) {
    for (const auto& [name, mutate] : mutations) {
      SCOPED_TRACE(name + " failing its first " + std::string(IoOpName(op)));
      env.FailNth(op, 1);
      EXPECT_FALSE(mutate().ok());
      env.ClearFaults();
      EXPECT_TRUE(SnapshotMemory(*db) == before)
          << "a failed mutation changed memory";
    }
  }
  EXPECT_EQ(db->InsertBinaryImage(image).value(), edited + 1)
      << "a failed insert used up an id";
  ASSERT_TRUE(db->Flush().ok());
  const FacadeMemory live = SnapshotMemory(*db);
  db.reset();

  options.env = nullptr;
  auto reopened = MultimediaDatabase::Open(options).value();
  EXPECT_TRUE(SnapshotMemory(*reopened) == live)
      << "the reopened store holds other images than memory did";
  const auto verified = reopened->VerifyIntegrity(/*deep_pixels=*/true);
  EXPECT_TRUE(verified.ok()) << verified.status().ToString();
  reopened.reset();
  RemoveStoreFiles(path);
}

TEST(StorageDeadlineTest, StalledReadStopsAtTheNextPageBoundary) {
  const std::string path = TempPath("mmdb_robust_stall.db");
  BuildSmallStore(path, 2, nullptr, nullptr);

  FaultInjectingEnv env(Env::Default());
  DatabaseOptions options;
  options.path = path;
  options.env = &env;
  auto db = MultimediaDatabase::Open(options).value();

  // The first query read stalls well past the deadline; the scoped
  // per-page check trips right after it, so the query is late by one
  // stall, never by the rest of the scan.
  env.StallNth(IoOp::kRead, 1, 0.15);
  QueryInterrupt interrupt;
  QueryContext ctx;
  ctx.deadline = Deadline::After(0.02);
  ctx.check_stride = 1;
  ctx.interrupt = &interrupt;
  Stopwatch watch;
  const Result<QueryResult> result =
      db->RunRange(MatchAllQuery(), QueryMethod::kInstantiate, ctx);
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().ToString();
  EXPECT_LT(watch.ElapsedSeconds(), 2.0);
  EXPECT_TRUE(interrupt.partial);
  env.ClearFaults();
  RemoveStoreFiles(path);
}

// --- The torture matrix -------------------------------------------------

enum class TortureFault { kNone, kTransientBurst, kPersistentReads, kCrash };

const char* TortureFaultName(TortureFault fault) {
  switch (fault) {
    case TortureFault::kNone:
      return "none";
    case TortureFault::kTransientBurst:
      return "transient-burst";
    case TortureFault::kPersistentReads:
      return "persistent-reads";
    case TortureFault::kCrash:
      return "crash";
  }
  return "?";
}

bool AllowedTortureStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kCancelled:
    case StatusCode::kResourceExhausted:
    case StatusCode::kDataLoss:
    case StatusCode::kIoError:
    case StatusCode::kCorruption:
      return true;
    default:
      return false;
  }
}

TEST(TortureMatrixTest, EveryFaultPolicyDeadlineComboTerminatesTyped) {
  const std::string path = TempPath("mmdb_robust_torture.db");
  BuildSmallStore(path, 3, nullptr, nullptr);

  FaultInjectingEnv env(Env::Default());
  DatabaseOptions db_options;
  db_options.path = path;
  db_options.env = &env;
  auto db = MultimediaDatabase::Open(db_options).value();

  const TortureFault faults[] = {
      TortureFault::kNone, TortureFault::kTransientBurst,
      TortureFault::kPersistentReads, TortureFault::kCrash};
  const AdmissionPolicy policies[] = {AdmissionPolicy::kBlock,
                                      AdmissionPolicy::kShedOldest,
                                      AdmissionPolicy::kRejectNew};
  // Index 0 = unlimited, 1 = tight-but-positive, 2 = already expired.
  const double deadline_seconds[] = {-1.0, 0.002, 0.0};

  for (TortureFault fault : faults) {
    for (AdmissionPolicy policy : policies) {
      for (double deadline : deadline_seconds) {
        SCOPED_TRACE(std::string("fault=") + TortureFaultName(fault) +
                     " policy=" + std::string(AdmissionPolicyName(policy)) +
                     " deadline=" + std::to_string(deadline));
        env.ClearFaults();
        switch (fault) {
          case TortureFault::kNone:
            break;
          case TortureFault::kTransientBurst:
            env.TransientReadFailures(2);
            break;
          case TortureFault::kPersistentReads:
            env.TransientReadFailures(1'000'000);
            break;
          case TortureFault::kCrash:
            env.CrashAfterOps(0);
            break;
        }

        // threads = 1 keeps the env's fault sequence in one program
        // order; the admission gate still runs per query.
        QueryServiceOptions service_options;
        service_options.threads = 1;
        service_options.admission.max_in_flight = 1;
        service_options.admission.policy = policy;
        service_options.admission.block_timeout_seconds = 0.5;
        QueryService service(db.get(), service_options);

        std::vector<QueryRequest> requests;
        for (QueryMethod method :
             {QueryMethod::kInstantiate, QueryMethod::kRbm,
              QueryMethod::kBwm}) {
          QueryRequest request = QueryRequest::Range(MatchAllQuery(), method);
          if (deadline >= 0.0) request.deadline = Deadline::After(deadline);
          requests.push_back(request);
          requests.push_back(request);
        }

        Stopwatch watch;
        const std::vector<Result<QueryResult>> results =
            service.ExecuteBatch(requests);
        const double wall = watch.ElapsedSeconds();
        ASSERT_EQ(results.size(), requests.size());
        for (const Result<QueryResult>& result : results) {
          EXPECT_TRUE(AllowedTortureStatus(result.status()))
              << result.status().ToString();
        }
        // No hang: the batch is bounded by the per-query deadlines, the
        // bounded retry backoff, and the admission timeout — all far
        // under this ceiling.
        EXPECT_LT(wall, 5.0);
        const QueryService::CounterSnapshot snapshot = service.Snapshot();
        EXPECT_EQ(snapshot.queries,
                  static_cast<int64_t>(requests.size()))
            << "every request accounted for";
        if (service.admission() != nullptr) {
          EXPECT_EQ(service.admission()->in_flight(), 0)
              << "no leaked in-flight slots";
          EXPECT_EQ(service.admission()->queued(), 0);
        }
      }
    }
  }
  env.ClearFaults();
  RemoveStoreFiles(path);
}

}  // namespace
}  // namespace mmdb
