// The `shard` label: the fault-tolerant sharded corpus — partitioning,
// the scatter-gather coordinator, and its failure envelope. Coverage:
//
//  * partitioning + ghost replication — `ShardOf` properties, mirrored
//    corpora get identical global ids, cross-shard Merge targets are
//    ghost-replicated under the same global id;
//  * all-healthy equivalence — the coordinator's merged answer (ids,
//    stats, top-k intervals) is bit-identical to a single store holding
//    the whole corpus, for every query shape, over local and remote
//    backends, plus a seed-swept top-k merge property test;
//  * the failure envelope — a shard that is down before dispatch, dies
//    mid-id-stream, or dies before its stats trailer (× admission
//    policies on the survivors) degrades to a partial result with typed
//    errors naming the shard, inside the deadline — never a hang or a
//    silent subset. Hedged retries beat a stalled primary; the breaker
//    ejects a failing shard and a probe re-admits it;
//  * protocol v3 — partial-result trailer and health frames round-trip,
//    absent tags decode as complete (v2 interop), wire code 13;
//  * the client reconnect satellite — transparent re-dial with backoff
//    across a server restart and a late-starting server.
//
// The binary is meant to also run under TSan (cmake -DMMDB_SANITIZE=thread,
// then `ctest -L shard`).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/cancel.h"
#include "core/database.h"
#include "core/query_service.h"
#include "datasets/augment.h"
#include "gtest/gtest.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/status_codes.h"
#include "obs/metrics.h"
#include "shard/backend.h"
#include "shard/coordinator.h"
#include "shard/health.h"
#include "shard/partition.h"
#include "shard/sharded_db.h"
#include "storage/env.h"
#include "test_util.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace mmdb {
namespace {

using shard::Coordinator;
using shard::CoordinatorOptions;
using shard::LocalShardBackend;
using shard::RemoteShardBackend;
using shard::ShardBackend;
using shard::ShardedDatabase;
using shard::ShardedDatabaseOptions;
using shard::ShardedResult;

std::unique_ptr<MultimediaDatabase> BuildSingleStore(int images,
                                                     uint64_t seed) {
  auto db = MultimediaDatabase::Open().value();
  datasets::DatasetSpec spec;
  spec.total_images = images;
  spec.edited_fraction = 0.7;
  // Well below 1: a healthy fraction of scripts Merge into real targets,
  // so mirroring exercises cross-shard ghost replication.
  spec.widening_probability = 0.5;
  spec.seed = seed;
  EXPECT_TRUE(datasets::BuildAugmentedDatabase(db.get(), spec).ok());
  return db;
}

RangeQuery RandomRange(Rng& rng) {
  RangeQuery range;
  range.bin = static_cast<BinIndex>(rng.UniformInt(0, 63));
  range.min_fraction = rng.UniformDouble(0.0, 0.5);
  range.max_fraction = rng.UniformDouble(0.5, 1.0);
  return range;
}

SimilarityQuery RandomSimilarity(Rng& rng) {
  SimilarityQuery similarity;
  similarity.histogram = ColorHistogram(64);
  const int occupied = rng.UniformInt(1, 4);
  for (int i = 0; i < occupied; ++i) {
    similarity.histogram.Add(static_cast<BinIndex>(rng.UniformInt(0, 63)),
                             rng.UniformInt(1, 100));
  }
  similarity.k = static_cast<uint32_t>(rng.UniformInt(1, 25));
  return similarity;
}

QueryRequest MatchAll(QueryMethod method) {
  RangeQuery all;
  all.bin = 0;
  all.min_fraction = 0.0;
  all.max_fraction = 1.0;
  return QueryRequest::Range(all, method);
}

void ExpectSameStats(const QueryStats& a, const QueryStats& b) {
  EXPECT_EQ(a.binary_images_checked, b.binary_images_checked);
  EXPECT_EQ(a.edited_images_bounded, b.edited_images_bounded);
  EXPECT_EQ(a.edited_images_skipped, b.edited_images_skipped);
  EXPECT_EQ(a.rules_applied, b.rules_applied);
  EXPECT_EQ(a.images_instantiated, b.images_instantiated);
  EXPECT_EQ(a.corrupt_images_skipped, b.corrupt_images_skipped);
}

/// Whether `method` emits ids in collection-scan order (binaries
/// ascending, then edited ascending) — the order the coordinator's
/// canonical merge reproduces exactly. The BWM family instead emits in
/// cluster order, which is not reconstructible from per-shard streams,
/// so its merged answer is canonically re-sorted: set-identical, with a
/// deterministic (but different) order.
bool IsScanOrderMethod(QueryMethod method) {
  return method == QueryMethod::kInstantiate || method == QueryMethod::kRbm ||
         method == QueryMethod::kParallelRbm;
}

void ExpectSameMatches(const std::vector<SimilarityMatch>& a,
                       const std::vector<SimilarityMatch>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    // Bit-identical intervals, not approximately equal ones.
    EXPECT_EQ(a[i].distance_lo, b[i].distance_lo);
    EXPECT_EQ(a[i].distance_hi, b[i].distance_hi);
    EXPECT_EQ(a[i].exact, b[i].exact);
  }
}

/// A mirrored sharded corpus fronted by a coordinator over in-process
/// backends. Member order gives the destruction order the layers need:
/// coordinator first (joins in-flight attempts), then services, then
/// the stores.
struct LocalHarness {
  std::unique_ptr<ShardedDatabase> sharded;
  std::vector<std::unique_ptr<QueryService>> services;
  std::unique_ptr<Coordinator> coordinator;
};

LocalHarness MakeLocalHarness(const MultimediaDatabase& source,
                              size_t shards,
                              CoordinatorOptions options = {},
                              QueryServiceOptions service_options = {}) {
  LocalHarness harness;
  ShardedDatabaseOptions sharded_options;
  sharded_options.shards = shards;
  harness.sharded = ShardedDatabase::Open(sharded_options).value();
  EXPECT_TRUE(shard::MirrorDatabase(source, harness.sharded.get()).ok());
  std::vector<std::vector<std::unique_ptr<ShardBackend>>> backends;
  for (size_t s = 0; s < shards; ++s) {
    harness.services.push_back(std::make_unique<QueryService>(
        harness.sharded->shard(s), service_options));
    std::vector<std::unique_ptr<ShardBackend>> replicas;
    replicas.push_back(std::make_unique<LocalShardBackend>(
        harness.services.back().get(), &harness.sharded->catalog(), s));
    backends.push_back(std::move(replicas));
  }
  harness.coordinator = std::make_unique<Coordinator>(
      std::move(backends), &harness.sharded->catalog(), options);
  return harness;
}

// --- Partitioning -------------------------------------------------------

TEST(ShardOfTest, DeterministicInRangeAndSpreadsAcrossShards) {
  constexpr size_t kShards = 4;
  std::vector<int> hits(kShards, 0);
  for (ObjectId id = 2; id < 2002; ++id) {
    const size_t a = shard::ShardOf(id, kShards);
    const size_t b = shard::ShardOf(id, kShards);
    ASSERT_LT(a, kShards);
    EXPECT_EQ(a, b);
    ++hits[a];
  }
  // splitmix64 mixing: sequential ids land everywhere, roughly evenly.
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_GT(hits[s], 2000 / 10) << "shard " << s << " starved";
  }
}

TEST(ShardOfTest, OneOrZeroShardsAlwaysRouteToZero) {
  for (ObjectId id = 2; id < 50; ++id) {
    EXPECT_EQ(shard::ShardOf(id, 1), 0u);
    EXPECT_EQ(shard::ShardOf(id, 0), 0u);
  }
}

// --- Deadline budgets ---------------------------------------------------

TEST(DeadlineBudgetTest, InfiniteParentStaysInfinite) {
  const Deadline budget = Deadline::Budget(Deadline(), 0.9);
  EXPECT_TRUE(budget.IsInfinite());
  EXPECT_FALSE(budget.Expired());
}

TEST(DeadlineBudgetTest, BudgetIsAFractionOfRemainingTime) {
  const Deadline parent = Deadline::After(1.0);
  const Deadline budget = Deadline::Budget(parent, 0.5);
  EXPECT_FALSE(budget.IsInfinite());
  EXPECT_LE(budget.RemainingSeconds(), 0.5 + 1e-6);
  EXPECT_GT(budget.RemainingSeconds(), 0.2);
  EXPECT_LT(budget.RemainingSeconds(), parent.RemainingSeconds());
}

TEST(DeadlineBudgetTest, ExpiredParentYieldsExpiredBudget) {
  const Deadline parent = Deadline::After(-1.0);
  EXPECT_TRUE(Deadline::Budget(parent, 0.9).Expired());
}

// --- Sharded corpus construction ---------------------------------------

TEST(ShardedDatabaseTest, MirrorPreservesGlobalIdsAndPixels) {
  auto single = BuildSingleStore(80, 11);
  ShardedDatabaseOptions options;
  options.shards = 3;
  auto sharded = ShardedDatabase::Open(options).value();
  ASSERT_TRUE(shard::MirrorDatabase(*single, sharded.get()).ok());

  const auto& collection = single->collection();
  EXPECT_EQ(sharded->catalog().GlobalCount(),
            collection.BinaryCount() + collection.EditedCount());
  // Spot-check pixels under the *same* global ids, and that every image
  // landed on the shard the partition function names.
  Rng rng(3);
  const auto& binary_ids = collection.binary_ids();
  for (int round = 0; round < 10; ++round) {
    const ObjectId id = binary_ids[rng.Uniform(binary_ids.size())];
    const Image mirrored = sharded->GetImage(id).value();
    const Image original = single->GetImage(id).value();
    EXPECT_TRUE(mirrored == original) << "pixel drift for id " << id;
    EXPECT_EQ(sharded->HomeShard(id).value(), shard::ShardOf(id, 3));
  }
}

TEST(ShardedDatabaseTest, CrossShardMergeTargetIsGhostReplicated) {
  ShardedDatabaseOptions options;
  options.shards = 2;
  auto sharded = ShardedDatabase::Open(options).value();
  Rng rng(7);
  // Insert binaries until two of them live on different shards.
  std::vector<ObjectId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(
        sharded->InsertBinaryImage(testing::RandomBlockImage(24, 24, 3, rng))
            .value());
  }
  ObjectId base = kInvalidObjectId;
  ObjectId target = kInvalidObjectId;
  for (ObjectId a : ids) {
    for (ObjectId b : ids) {
      if (sharded->HomeShard(a).value() != sharded->HomeShard(b).value()) {
        base = a;
        target = b;
        break;
      }
    }
    if (base != kInvalidObjectId) break;
  }
  ASSERT_NE(base, kInvalidObjectId) << "8 ids all hashed to one shard?";
  const size_t base_shard = sharded->HomeShard(base).value();
  ASSERT_EQ(sharded->catalog().GhostCount(base_shard), 0);

  EditScript script;
  script.base_id = base;
  MergeOp merge;
  merge.target = target;
  script.ops.emplace_back(merge);
  const ObjectId edited = sharded->InsertEditedImage(script).value();
  // The edited image lives with its base; the cross-shard target got a
  // ghost copy there, aliased to the target's own global id.
  EXPECT_EQ(sharded->HomeShard(edited).value(), base_shard);
  EXPECT_EQ(sharded->catalog().GhostCount(base_shard), 1);
  EXPECT_FALSE(sharded->catalog().IsEdited(target));
  EXPECT_TRUE(sharded->catalog().IsEdited(edited));

  // A cross-shard *edited* Merge target is refused, not silently wrong.
  EditScript chained;
  chained.base_id = target;  // Lives on the other shard than `edited`.
  MergeOp bad;
  bad.target = edited;
  chained.ops.emplace_back(bad);
  const auto refused = sharded->InsertEditedImage(chained);
  if (sharded->HomeShard(target).value() !=
      sharded->HomeShard(edited).value()) {
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  }
}

// A failed insert on one shard uses up neither a global nor a local id:
// every later insert, on that shard too, gets the next sequential global
// id and its own pixels back.
TEST(ShardedDatabaseTest, FailedShardInsertKeepsLaterIdsSequential) {
  const std::string path = testing::TempPath("mmdb_shard_failed_insert.db");
  FaultInjectingEnv env(Env::Default());
  ShardedDatabaseOptions options;
  options.shards = 2;
  options.shard_options.path = path;
  options.shard_envs = {&env, Env::Default()};
  for (size_t s = 0; s < options.shards; ++s) {
    testing::RemoveStoreFiles(path + ".shard" + std::to_string(s));
  }
  {
    auto sharded = ShardedDatabase::Open(options).value();
    Rng rng(5);
    ObjectId next =
        sharded->InsertBinaryImage(testing::RandomBlockImage(12, 12, 3, rng))
            .value() +
        1;
    bool failed = false;
    for (int i = 0; i < 16; ++i) {
      const Image image = testing::RandomBlockImage(12, 12, 3, rng);
      if (!failed && i >= 4 && shard::ShardOf(next, options.shards) == 0) {
        env.FailNth(IoOp::kWrite, 1);
        EXPECT_FALSE(sharded->InsertBinaryImage(image).ok());
        env.ClearFaults();
        failed = true;
      }
      const Result<ObjectId> id = sharded->InsertBinaryImage(image);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      EXPECT_EQ(*id, next++);
      EXPECT_TRUE(sharded->GetImage(*id).value() == image);
    }
    ASSERT_TRUE(failed) << "no insert after the fourth landed on shard 0";
  }
  for (size_t s = 0; s < options.shards; ++s) {
    testing::RemoveStoreFiles(path + ".shard" + std::to_string(s));
  }
}

// --- All-healthy equivalence to the single store ------------------------

TEST(CoordinatorEquivalenceTest, EveryMethodBitIdenticalToSingleStore) {
  auto single = BuildSingleStore(120, 77);
  QueryService embedded(single.get());
  LocalHarness harness = MakeLocalHarness(*single, 3);
  Rng rng(123);
  for (QueryMethod method :
       {QueryMethod::kInstantiate, QueryMethod::kRbm, QueryMethod::kBwm,
        QueryMethod::kBwmIndexed, QueryMethod::kParallelRbm}) {
    for (int round = 0; round < 4; ++round) {
      QueryRequest request;
      if (round % 2 == 0) {
        request = QueryRequest::Range(RandomRange(rng), method);
      } else {
        ConjunctiveQuery conjunctive;
        const int conjuncts = rng.UniformInt(1, 3);
        for (int i = 0; i < conjuncts; ++i) {
          conjunctive.conjuncts.push_back(RandomRange(rng));
        }
        request = QueryRequest::Conjunctive(conjunctive, method);
      }
      const Result<ShardedResult> fanned =
          harness.coordinator->Execute(request);
      const Result<QueryResult> reference = embedded.Execute(request);
      ASSERT_TRUE(fanned.ok()) << fanned.status().ToString();
      ASSERT_TRUE(reference.ok());
      EXPECT_TRUE(fanned->complete);
      EXPECT_TRUE(fanned->shard_errors.empty());
      if (IsScanOrderMethod(method)) {
        EXPECT_EQ(fanned->result.ids, reference->ids)
            << QueryMethodName(method);
      } else {
        EXPECT_EQ(testing::AsSet(fanned->result.ids),
                  testing::AsSet(reference->ids))
            << QueryMethodName(method);
      }
      ExpectSameStats(fanned->result.stats, reference->stats);
    }
  }
}

TEST(CoordinatorEquivalenceTest, PlannedMethodIsSetIdentical) {
  auto single = BuildSingleStore(100, 31);
  QueryService embedded(single.get());
  LocalHarness harness = MakeLocalHarness(*single, 3);
  Rng rng(9);
  for (int round = 0; round < 5; ++round) {
    ConjunctiveQuery conjunctive;
    const int conjuncts = rng.UniformInt(1, 3);
    for (int i = 0; i < conjuncts; ++i) {
      conjunctive.conjuncts.push_back(RandomRange(rng));
    }
    const QueryRequest request =
        QueryRequest::Conjunctive(conjunctive, QueryMethod::kPlanned);
    const Result<ShardedResult> fanned = harness.coordinator->Execute(request);
    const Result<QueryResult> reference = embedded.Execute(request);
    ASSERT_TRUE(fanned.ok()) << fanned.status().ToString();
    ASSERT_TRUE(reference.ok());
    EXPECT_TRUE(fanned->complete);
    // The planner promises the set, not an emission order — same
    // contract the single store documents.
    EXPECT_EQ(testing::AsSet(fanned->result.ids),
              testing::AsSet(reference->ids));
    // Every shard runs one scan, so the ghost-compensated counters are
    // the single store's. `rules_applied` may differ: each shard orders
    // the conjuncts by its own statistics.
    const QueryStats& a = fanned->result.stats;
    const QueryStats& b = reference->stats;
    EXPECT_EQ(a.binary_images_checked, b.binary_images_checked);
    EXPECT_EQ(a.edited_images_bounded, b.edited_images_bounded);
    EXPECT_EQ(a.edited_images_skipped, b.edited_images_skipped);
    EXPECT_EQ(a.images_instantiated, b.images_instantiated);
    EXPECT_EQ(a.corrupt_images_skipped, b.corrupt_images_skipped);
  }
}

TEST(CoordinatorEquivalenceTest, TopKMergeIdenticalAcrossSeedsAndShardCounts) {
  // The satellite property test: for every seed and shard count, the
  // coordinator's global top-k (ids, order, intervals) is exactly the
  // single store's — the k-inflation + dedup + cutoff-recompute merge
  // loses nothing and invents nothing.
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    auto single = BuildSingleStore(70, 1000 + seed);
    QueryService embedded(single.get());
    const size_t shards = 2 + seed % 3;
    LocalHarness harness = MakeLocalHarness(*single, shards);
    Rng rng(seed);
    for (int round = 0; round < 4; ++round) {
      const QueryRequest request =
          QueryRequest::Similarity(RandomSimilarity(rng));
      const Result<ShardedResult> fanned =
          harness.coordinator->Execute(request);
      const Result<QueryResult> reference = embedded.Execute(request);
      ASSERT_TRUE(fanned.ok()) << fanned.status().ToString();
      ASSERT_TRUE(reference.ok());
      EXPECT_TRUE(fanned->complete);
      EXPECT_EQ(fanned->result.ids, reference->ids)
          << "seed " << seed << " shards " << shards;
      ExpectSameMatches(fanned->result.matches, reference->matches);
      ExpectSameStats(fanned->result.stats, reference->stats);
    }
  }
}

// --- Remote backends ----------------------------------------------------

/// The mirrored corpus served over real sockets: every shard behind its
/// own QueryServer, the coordinator dialing them as remote backends.
struct RemoteHarness {
  std::unique_ptr<ShardedDatabase> sharded;
  std::vector<std::unique_ptr<QueryService>> services;
  std::vector<std::unique_ptr<net::QueryServer>> servers;
  std::unique_ptr<Coordinator> coordinator;

  RemoteHarness() = default;
  RemoteHarness(RemoteHarness&&) = default;
  RemoteHarness& operator=(RemoteHarness&&) = default;

  ~RemoteHarness() {
    // The coordinator (and its pooled connections) must wind down
    // before the shard servers it dials.
    coordinator.reset();
    for (auto& server : servers) server->Stop();
  }
};

RemoteHarness MakeRemoteHarness(const MultimediaDatabase& source,
                                size_t shards,
                                CoordinatorOptions options = {}) {
  RemoteHarness harness;
  ShardedDatabaseOptions sharded_options;
  sharded_options.shards = shards;
  harness.sharded = ShardedDatabase::Open(sharded_options).value();
  EXPECT_TRUE(shard::MirrorDatabase(source, harness.sharded.get()).ok());
  std::vector<std::vector<std::unique_ptr<ShardBackend>>> backends;
  for (size_t s = 0; s < shards; ++s) {
    harness.services.push_back(
        std::make_unique<QueryService>(harness.sharded->shard(s)));
    harness.servers.push_back(std::make_unique<net::QueryServer>(
        harness.sharded->shard(s), harness.services.back().get()));
    EXPECT_TRUE(harness.servers.back()->Start().ok());
    std::vector<std::unique_ptr<ShardBackend>> replicas;
    replicas.push_back(std::make_unique<RemoteShardBackend>(
        "127.0.0.1", harness.servers.back()->port(),
        &harness.sharded->catalog(), s));
    backends.push_back(std::move(replicas));
  }
  harness.coordinator = std::make_unique<Coordinator>(
      std::move(backends), &harness.sharded->catalog(), options);
  return harness;
}

TEST(RemoteShardTest, WireBackendsBitIdenticalToSingleStore) {
  auto single = BuildSingleStore(90, 55);
  QueryService embedded(single.get());
  RemoteHarness harness = MakeRemoteHarness(*single, 3);
  Rng rng(42);
  for (QueryMethod method : {QueryMethod::kRbm, QueryMethod::kBwm}) {
    const QueryRequest request =
        QueryRequest::Range(RandomRange(rng), method);
    const Result<ShardedResult> fanned = harness.coordinator->Execute(request);
    const Result<QueryResult> reference = embedded.Execute(request);
    ASSERT_TRUE(fanned.ok()) << fanned.status().ToString();
    ASSERT_TRUE(reference.ok());
    EXPECT_TRUE(fanned->complete);
    if (IsScanOrderMethod(method)) {
      EXPECT_EQ(fanned->result.ids, reference->ids);
    } else {
      EXPECT_EQ(testing::AsSet(fanned->result.ids),
                testing::AsSet(reference->ids));
    }
    ExpectSameStats(fanned->result.stats, reference->stats);
  }
  const QueryRequest nearest =
      QueryRequest::Similarity(RandomSimilarity(rng));
  const Result<ShardedResult> fanned = harness.coordinator->Execute(nearest);
  const Result<QueryResult> reference = embedded.Execute(nearest);
  ASSERT_TRUE(fanned.ok()) << fanned.status().ToString();
  ASSERT_TRUE(reference.ok());
  EXPECT_TRUE(fanned->complete);
  ExpectSameMatches(fanned->result.matches, reference->matches);
}

// --- The failure envelope ----------------------------------------------

/// A wire "shard" that dies at a chosen point of the response: after
/// streaming id chunks but before the trailer, or mid-way through the
/// chunk stream. Deterministic — no timing games — so the kill-a-shard
/// matrix is reproducible under TSan.
class MisbehavingWireShard {
 public:
  enum class Mode { kCloseDuringIds, kCloseBeforeTrailer };

  explicit MisbehavingWireShard(Mode mode) : mode_(mode) {
    listener_ = net::ListenSocket::Listen("127.0.0.1", 0).value();
    port_ = listener_.port();
    thread_ = std::thread([this] { Loop(); });
  }

  ~MisbehavingWireShard() {
    stop_.store(true);
    thread_.join();
    listener_.Close();
  }

  int port() const { return port_; }

 private:
  void Loop() {
    while (!stop_.load()) {
      bool timed_out = false;
      Result<net::Socket> accepted =
          listener_.AcceptWithTimeout(0.05, &timed_out);
      if (!accepted.ok()) {
        if (timed_out) continue;
        return;
      }
      Serve(*accepted);
    }
  }

  void Serve(net::Socket& socket) {
    std::string payload;
    bool closed = false;
    if (!net::ReadFrame(socket, 1 << 20, &payload, &closed).ok() || closed) {
      return;
    }
    // Whatever arrived, answer like a shard mid-result and then die.
    const std::vector<ObjectId> some_ids = {2, 3, 4};
    (void)net::WriteFrame(socket, net::EncodeResultChunk(some_ids));
    if (mode_ == Mode::kCloseBeforeTrailer) {
      (void)net::WriteFrame(socket, net::EncodeResultChunk(some_ids));
    }
    socket.Close();  // No kResultDone: the stream is torn, not truncated.
  }

  Mode mode_;
  net::ListenSocket listener_;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

int FreePort() {
  net::ListenSocket probe =
      net::ListenSocket::Listen("127.0.0.1", 0).value();
  const int port = probe.port();
  probe.Close();
  return port;
}

TEST(FailureEnvelopeTest, KilledShardDegradesToTypedPartialResult) {
  auto single = BuildSingleStore(60, 21);
  QueryService embedded(single.get());
  const std::set<ObjectId> reference =
      testing::AsSet(embedded.Execute(MatchAll(QueryMethod::kBwm))->ids);

  enum class Down { kBeforeDispatch, kDuringIdStream, kBeforeTrailer };
  for (Down down : {Down::kBeforeDispatch, Down::kDuringIdStream,
                    Down::kBeforeTrailer}) {
    for (AdmissionPolicy policy :
         {AdmissionPolicy::kBlock, AdmissionPolicy::kShedOldest}) {
      ShardedDatabaseOptions sharded_options;
      sharded_options.shards = 3;
      auto sharded = ShardedDatabase::Open(sharded_options).value();
      ASSERT_TRUE(shard::MirrorDatabase(*single, sharded.get()).ok());

      QueryServiceOptions service_options;
      service_options.admission.max_in_flight = 2;
      service_options.admission.max_queued = 8;
      service_options.admission.policy = policy;
      std::vector<std::unique_ptr<QueryService>> services;
      std::unique_ptr<MisbehavingWireShard> misbehaving;
      std::vector<std::vector<std::unique_ptr<ShardBackend>>> backends;
      for (size_t s = 0; s < 3; ++s) {
        std::vector<std::unique_ptr<ShardBackend>> replicas;
        if (s == 1) {
          int port = 0;
          if (down == Down::kBeforeDispatch) {
            port = FreePort();  // Nothing listens: connection refused.
          } else {
            misbehaving = std::make_unique<MisbehavingWireShard>(
                down == Down::kDuringIdStream
                    ? MisbehavingWireShard::Mode::kCloseDuringIds
                    : MisbehavingWireShard::Mode::kCloseBeforeTrailer);
            port = misbehaving->port();
          }
          replicas.push_back(std::make_unique<RemoteShardBackend>(
              "127.0.0.1", port, &sharded->catalog(), s));
        } else {
          services.push_back(std::make_unique<QueryService>(
              sharded->shard(s), service_options));
          replicas.push_back(std::make_unique<LocalShardBackend>(
              services.back().get(), &sharded->catalog(), s));
        }
        backends.push_back(std::move(replicas));
      }
      {
        Coordinator coordinator(std::move(backends), &sharded->catalog());
        QueryRequest request = MatchAll(QueryMethod::kBwm);
        request.deadline = Deadline::After(5.0);
        Stopwatch watch;
        const Result<ShardedResult> fanned = coordinator.Execute(request);
        const double elapsed = watch.ElapsedSeconds();
        ASSERT_TRUE(fanned.ok()) << fanned.status().ToString();
        // Inside the deadline, partial, and the failure names shard 1.
        EXPECT_LT(elapsed, 5.0);
        EXPECT_FALSE(fanned->complete);
        ASSERT_EQ(fanned->shard_errors.size(), 1u);
        EXPECT_EQ(fanned->shard_errors[0].shard, 1u);
        EXPECT_FALSE(fanned->shard_errors[0].status.ok());
        EXPECT_NE(fanned->shard_errors[0].status.message().find("shard 1"),
                  std::string::npos)
            << fanned->shard_errors[0].status.ToString();
        // The survivors' answers are complete: every reference id homed
        // on shard 0 or 2 is present, and nothing outside the reference
        // set was invented.
        const std::set<ObjectId> got = testing::AsSet(fanned->result.ids);
        for (ObjectId id : reference) {
          if (sharded->HomeShard(id).value() != 1) {
            EXPECT_TRUE(got.count(id)) << "lost id " << id;
          }
        }
        for (ObjectId id : got) {
          EXPECT_TRUE(reference.count(id)) << "invented id " << id;
        }
      }
    }
  }
}

TEST(FailureEnvelopeTest, PartialSimilarityStillAnswersInOrder) {
  auto single = BuildSingleStore(60, 23);
  ShardedDatabaseOptions sharded_options;
  sharded_options.shards = 2;
  auto sharded = ShardedDatabase::Open(sharded_options).value();
  ASSERT_TRUE(shard::MirrorDatabase(*single, sharded.get()).ok());
  std::vector<std::unique_ptr<QueryService>> services;
  services.push_back(std::make_unique<QueryService>(sharded->shard(0)));
  std::vector<std::vector<std::unique_ptr<ShardBackend>>> backends(2);
  backends[0].push_back(std::make_unique<LocalShardBackend>(
      services.back().get(), &sharded->catalog(), 0));
  backends[1].push_back(std::make_unique<RemoteShardBackend>(
      "127.0.0.1", FreePort(), &sharded->catalog(), 1));
  Coordinator coordinator(std::move(backends), &sharded->catalog());

  Rng rng(5);
  const Result<ShardedResult> fanned =
      coordinator.Execute(QueryRequest::Similarity(RandomSimilarity(rng)));
  ASSERT_TRUE(fanned.ok()) << fanned.status().ToString();
  EXPECT_FALSE(fanned->complete);
  ASSERT_EQ(fanned->shard_errors.size(), 1u);
  EXPECT_EQ(fanned->shard_errors[0].shard, 1u);
  // The surviving shard's top-k comes back well-formed and ordered.
  EXPECT_FALSE(fanned->result.matches.empty());
  for (size_t i = 1; i < fanned->result.matches.size(); ++i) {
    EXPECT_LE(fanned->result.matches[i - 1].distance_lo,
              fanned->result.matches[i].distance_lo);
  }
  EXPECT_EQ(fanned->result.ids.size(), fanned->result.matches.size());
}

/// Wraps a backend and stalls every Execute by a fixed delay.
class StallBackend : public ShardBackend {
 public:
  StallBackend(std::unique_ptr<ShardBackend> inner, double seconds)
      : inner_(std::move(inner)), seconds_(seconds) {}
  Result<QueryResult> Execute(const QueryRequest& request) override {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds_));
    return inner_->Execute(request);
  }
  Status Probe() override { return inner_->Probe(); }
  std::string name() const override { return "stalled:" + inner_->name(); }

 private:
  std::unique_ptr<ShardBackend> inner_;
  double seconds_;
};

/// Wraps a backend behind a switch: while `fail` is set every call is
/// Unavailable; flip it off and the shard is healthy again.
class SwitchableBackend : public ShardBackend {
 public:
  explicit SwitchableBackend(std::unique_ptr<ShardBackend> inner)
      : inner_(std::move(inner)) {}
  Result<QueryResult> Execute(const QueryRequest& request) override {
    if (fail.load()) return Status::Unavailable("switched off");
    return inner_->Execute(request);
  }
  Status Probe() override {
    if (fail.load()) return Status::Unavailable("switched off");
    return inner_->Probe();
  }
  std::string name() const override { return "switch:" + inner_->name(); }

  std::atomic<bool> fail{true};

 private:
  std::unique_ptr<ShardBackend> inner_;
};

TEST(FailureEnvelopeTest, StalledShardIsCutAtItsDeadlineBudget) {
  auto single = BuildSingleStore(50, 29);
  ShardedDatabaseOptions sharded_options;
  sharded_options.shards = 2;
  auto sharded = ShardedDatabase::Open(sharded_options).value();
  ASSERT_TRUE(shard::MirrorDatabase(*single, sharded.get()).ok());
  std::vector<std::unique_ptr<QueryService>> services;
  for (size_t s = 0; s < 2; ++s) {
    services.push_back(std::make_unique<QueryService>(sharded->shard(s)));
  }
  std::vector<std::vector<std::unique_ptr<ShardBackend>>> backends(2);
  backends[0].push_back(std::make_unique<LocalShardBackend>(
      services[0].get(), &sharded->catalog(), 0));
  backends[1].push_back(std::make_unique<StallBackend>(
      std::make_unique<LocalShardBackend>(services[1].get(),
                                          &sharded->catalog(), 1),
      2.0));
  CoordinatorOptions options;
  options.max_attempts_per_shard = 1;  // No hedge to the rescue here.
  Coordinator coordinator(std::move(backends), &sharded->catalog(), options);

  QueryRequest request = MatchAll(QueryMethod::kRbm);
  request.deadline = Deadline::After(0.4);
  Stopwatch watch;
  const Result<ShardedResult> fanned = coordinator.Execute(request);
  const double elapsed = watch.ElapsedSeconds();
  ASSERT_TRUE(fanned.ok()) << fanned.status().ToString();
  // Returned at the budget, not after the 2s stall drained.
  EXPECT_LT(elapsed, 1.5);
  EXPECT_FALSE(fanned->complete);
  ASSERT_EQ(fanned->shard_errors.size(), 1u);
  EXPECT_EQ(fanned->shard_errors[0].status.code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(fanned->result.ids.empty());
}

TEST(FailureEnvelopeTest, HedgeToReplicaBeatsAStalledPrimary) {
  auto single = BuildSingleStore(60, 37);
  QueryService embedded(single.get());
  ShardedDatabaseOptions sharded_options;
  sharded_options.shards = 2;
  auto sharded = ShardedDatabase::Open(sharded_options).value();
  ASSERT_TRUE(shard::MirrorDatabase(*single, sharded.get()).ok());
  std::vector<std::unique_ptr<QueryService>> services;
  for (size_t s = 0; s < 2; ++s) {
    services.push_back(std::make_unique<QueryService>(sharded->shard(s)));
  }
  std::vector<std::vector<std::unique_ptr<ShardBackend>>> backends(2);
  // Shard 0: a primary stalled for 0.8s plus a healthy replica — the
  // hedge should win long before the primary wakes.
  backends[0].push_back(std::make_unique<StallBackend>(
      std::make_unique<LocalShardBackend>(services[0].get(),
                                          &sharded->catalog(), 0),
      0.8));
  backends[0].push_back(std::make_unique<LocalShardBackend>(
      services[0].get(), &sharded->catalog(), 0));
  backends[1].push_back(std::make_unique<LocalShardBackend>(
      services[1].get(), &sharded->catalog(), 1));
  CoordinatorOptions options;
  options.hedge_delay_seconds = 0.02;
  Coordinator coordinator(std::move(backends), &sharded->catalog(), options);

  const QueryRequest request = MatchAll(QueryMethod::kBwm);
  Stopwatch watch;
  const Result<ShardedResult> fanned = coordinator.Execute(request);
  const double elapsed = watch.ElapsedSeconds();
  ASSERT_TRUE(fanned.ok()) << fanned.status().ToString();
  EXPECT_TRUE(fanned->complete);
  EXPECT_LT(elapsed, 0.6) << "hedge did not rescue the query";
  EXPECT_EQ(testing::AsSet(fanned->result.ids),
            testing::AsSet(embedded.Execute(request)->ids));
  const Coordinator::Stats stats = coordinator.stats();
  EXPECT_GE(stats.hedges_launched, 1);
  EXPECT_GE(stats.hedge_wins, 1);
}

TEST(FailureEnvelopeTest, BreakerEjectsFlappingShardAndProbeReadmitsIt) {
  auto single = BuildSingleStore(50, 41);
  ShardedDatabaseOptions sharded_options;
  sharded_options.shards = 2;
  auto sharded = ShardedDatabase::Open(sharded_options).value();
  ASSERT_TRUE(shard::MirrorDatabase(*single, sharded.get()).ok());
  std::vector<std::unique_ptr<QueryService>> services;
  for (size_t s = 0; s < 2; ++s) {
    services.push_back(std::make_unique<QueryService>(sharded->shard(s)));
  }
  std::vector<std::vector<std::unique_ptr<ShardBackend>>> backends(2);
  backends[0].push_back(std::make_unique<LocalShardBackend>(
      services[0].get(), &sharded->catalog(), 0));
  auto switchable = std::make_unique<SwitchableBackend>(
      std::make_unique<LocalShardBackend>(services[1].get(),
                                          &sharded->catalog(), 1));
  SwitchableBackend* toggle = switchable.get();
  backends[1].push_back(std::move(switchable));
  CoordinatorOptions options;
  options.max_attempts_per_shard = 1;
  options.health.failure_threshold = 2;
  options.health.cooldown_seconds = 0.05;
  Coordinator coordinator(std::move(backends), &sharded->catalog(), options);

  const QueryRequest request = MatchAll(QueryMethod::kRbm);
  // Two failing fan-outs: threshold reached, breaker opens.
  for (int i = 0; i < 2; ++i) {
    const Result<ShardedResult> fanned = coordinator.Execute(request);
    ASSERT_TRUE(fanned.ok());
    EXPECT_FALSE(fanned->complete);
  }
  EXPECT_EQ(coordinator.health().StateOf(1), shard::BreakerState::kOpen);

  // While open, fan-outs skip the shard outright (typed Unavailable).
  const Result<ShardedResult> skipped = coordinator.Execute(request);
  ASSERT_TRUE(skipped.ok());
  EXPECT_FALSE(skipped->complete);
  ASSERT_EQ(skipped->shard_errors.size(), 1u);
  EXPECT_EQ(skipped->shard_errors[0].status.code(),
            StatusCode::kUnavailable);
  EXPECT_NE(
      skipped->shard_errors[0].status.message().find("circuit breaker"),
      std::string::npos);
  EXPECT_GE(coordinator.stats().breaker_skips, 1);

  // Heal the shard, let the cooldown elapse, probe: breaker closes and
  // the next fan-out is complete again.
  toggle->fail.store(false);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  coordinator.ProbeEjected();
  EXPECT_EQ(coordinator.health().StateOf(1), shard::BreakerState::kClosed);
  const Result<ShardedResult> healed = coordinator.Execute(request);
  ASSERT_TRUE(healed.ok());
  EXPECT_TRUE(healed->complete);
}

TEST(FailureEnvelopeTest, AllShardsFailedIsATypedErrorNotAnEmptyResult) {
  auto single = BuildSingleStore(40, 43);
  ShardedDatabaseOptions sharded_options;
  sharded_options.shards = 2;
  auto sharded = ShardedDatabase::Open(sharded_options).value();
  ASSERT_TRUE(shard::MirrorDatabase(*single, sharded.get()).ok());
  std::vector<std::vector<std::unique_ptr<ShardBackend>>> backends(2);
  for (size_t s = 0; s < 2; ++s) {
    backends[s].push_back(std::make_unique<RemoteShardBackend>(
        "127.0.0.1", FreePort(), &sharded->catalog(), s));
  }
  Coordinator coordinator(std::move(backends), &sharded->catalog());
  const Result<ShardedResult> fanned =
      coordinator.Execute(MatchAll(QueryMethod::kRbm));
  EXPECT_FALSE(fanned.ok());
  EXPECT_NE(fanned.status().message().find("shard"), std::string::npos);
}

// --- Protocol v3 --------------------------------------------------------

TEST(ProtocolV3Test, PartialResultTrailerRoundTrips) {
  QueryStats stats;
  stats.binary_images_checked = 7;
  std::vector<net::WireShardError> errors(2);
  errors[0].shard = 1;
  errors[0].wire_code =
      static_cast<uint16_t>(net::ToWireCode(StatusCode::kUnavailable));
  errors[0].message = "shard 1 (remote:h:1) is ejected by its breaker";
  errors[1].shard = 4;
  errors[1].wire_code =
      static_cast<uint16_t>(net::ToWireCode(StatusCode::kDeadlineExceeded));
  errors[1].message = "shard 4 missed its per-shard deadline budget";
  const std::string payload =
      net::EncodeResultDone(stats, 3, {}, /*complete=*/false, errors);
  const Result<net::Frame> frame = net::ParseFrame(payload);
  ASSERT_TRUE(frame.ok());
  const Result<net::ResultDone> done = net::DecodeResultDone(*frame);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  EXPECT_FALSE(done->complete);
  ASSERT_EQ(done->shard_errors.size(), 2u);
  EXPECT_EQ(done->shard_errors[0].shard, 1u);
  EXPECT_EQ(done->shard_errors[0].ToStatus().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(done->shard_errors[0].message, errors[0].message);
  EXPECT_EQ(done->shard_errors[1].ToStatus().code(),
            StatusCode::kDeadlineExceeded);
}

TEST(ProtocolV3Test, AbsentTrailerTagsDecodeAsComplete) {
  // A v2 sender (or any complete answer) never emits tags 4/5: the
  // decoder must default to a complete result with no shard errors.
  QueryStats stats;
  const std::string payload = net::EncodeResultDone(stats, 9);
  const Result<net::Frame> frame = net::ParseFrame(payload);
  ASSERT_TRUE(frame.ok());
  const Result<net::ResultDone> done = net::DecodeResultDone(*frame);
  ASSERT_TRUE(done.ok());
  EXPECT_TRUE(done->complete);
  EXPECT_TRUE(done->shard_errors.empty());
}

TEST(ProtocolV3Test, HealthFramesRoundTrip) {
  const std::string request = net::EncodeHealthRequest();
  const Result<net::Frame> request_frame = net::ParseFrame(request);
  ASSERT_TRUE(request_frame.ok());
  EXPECT_EQ(request_frame->type(), net::FrameType::kHealthRequest);

  net::HealthInfo info;
  info.serving = 1;
  info.shard_states = {
      static_cast<uint8_t>(net::ShardWireState::kServing),
      static_cast<uint8_t>(net::ShardWireState::kEjected),
      static_cast<uint8_t>(net::ShardWireState::kProbing)};
  const std::string response = net::EncodeHealthResponse(info);
  const Result<net::Frame> response_frame = net::ParseFrame(response);
  ASSERT_TRUE(response_frame.ok());
  EXPECT_EQ(response_frame->type(), net::FrameType::kHealthResponse);
  const Result<net::HealthInfo> decoded =
      net::DecodeHealthResponse(*response_frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->serving, 1);
  EXPECT_EQ(decoded->shard_states, info.shard_states);
}

TEST(ProtocolV3Test, UnavailableCrossesTheWire) {
  EXPECT_EQ(net::ToWireCode(StatusCode::kUnavailable),
            net::WireStatusCode::kUnavailable);
  EXPECT_EQ(net::FromWireCode(13), StatusCode::kUnavailable);
}

// --- Sharded serving end-to-end -----------------------------------------

TEST(ShardedServingTest, ClientSeesPartialityAndHealthOverTheWire) {
  auto single = BuildSingleStore(80, 61);
  QueryService front_service(single.get());
  RemoteHarness harness = MakeRemoteHarness(*single, 3);

  net::QueryServer front(single.get(), &front_service);
  front.AttachCoordinator(harness.coordinator.get());
  ASSERT_TRUE(front.Start().ok());

  net::Client client =
      net::Client::Connect("127.0.0.1", front.port()).value();
  // Healthy: complete answer, every shard serving.
  net::Completeness completeness;
  const Result<QueryResult> healthy =
      client.Execute(MatchAll(QueryMethod::kBwm), &completeness);
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  EXPECT_TRUE(completeness.complete);
  const Result<net::HealthInfo> health = client.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->serving, 1);
  ASSERT_EQ(health->shard_states.size(), 3u);
  for (uint8_t state : health->shard_states) {
    EXPECT_EQ(state, static_cast<uint8_t>(net::ShardWireState::kServing));
  }

  // Kill shard 1's server: the same wire query degrades to a partial
  // answer whose trailer names the dead shard.
  harness.servers[1]->Stop();
  const Result<QueryResult> degraded =
      client.Execute(MatchAll(QueryMethod::kBwm), &completeness);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_FALSE(completeness.complete);
  ASSERT_EQ(completeness.shard_errors.size(), 1u);
  EXPECT_EQ(completeness.shard_errors[0].shard, 1u);
  EXPECT_NE(completeness.shard_errors[0].message.find("shard 1"),
            std::string::npos);
  EXPECT_LT(degraded->ids.size(), healthy->ids.size());
  front.Stop();
}

// --- The client reconnect satellite ------------------------------------

TEST(ClientReconnectTest, TransparentReconnectAcrossServerRestart) {
  auto db = MultimediaDatabase::Open().value();
  datasets::DatasetSpec spec;
  spec.total_images = 40;
  spec.seed = 3;
  ASSERT_TRUE(datasets::BuildAugmentedDatabase(db.get(), spec).ok());
  QueryService service(db.get());

  auto server = std::make_unique<net::QueryServer>(db.get(), &service);
  ASSERT_TRUE(server->Start().ok());
  const int port = server->port();

  net::ClientOptions options;
  options.connect_retries = 4;
  options.retry_backoff_seconds = 0.02;
  net::Client client =
      net::Client::Connect("127.0.0.1", port, options).value();
  ASSERT_TRUE(client.Ping().ok());

  obs::Counter* reconnects = obs::Registry::Default().GetCounter(
      "mmdb_net_client_reconnects_total", "");
  const int64_t before = reconnects->Value();

  // Restart the server on the same port; the next RPC re-dials under
  // the hood instead of failing.
  server->Stop();
  server.reset();
  net::ServerOptions restart;
  restart.port = port;
  net::QueryServer restarted(db.get(), &service, restart);
  ASSERT_TRUE(restarted.Start().ok());

  const Result<QueryResult> result =
      client.Execute(MatchAll(QueryMethod::kRbm));
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(reconnects->Value(), before);
  restarted.Stop();
}

TEST(ClientReconnectTest, ConnectRetriesCoverALateStartingServer) {
  auto db = MultimediaDatabase::Open().value();
  datasets::DatasetSpec spec;
  spec.total_images = 30;
  spec.seed = 4;
  ASSERT_TRUE(datasets::BuildAugmentedDatabase(db.get(), spec).ok());
  QueryService service(db.get());
  const int port = FreePort();

  std::unique_ptr<net::QueryServer> server;
  std::thread late([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    net::ServerOptions options;
    options.port = port;
    server = std::make_unique<net::QueryServer>(db.get(), &service, options);
    ASSERT_TRUE(server->Start().ok());
  });

  net::ClientOptions options;
  options.connect_retries = 8;
  options.retry_backoff_seconds = 0.05;
  Result<net::Client> client =
      net::Client::Connect("127.0.0.1", port, options);
  late.join();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE(client->Ping().ok());
  server->Stop();
}

}  // namespace
}  // namespace mmdb
