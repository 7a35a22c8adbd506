// serve-sharded: the `mmdb_serve --shards 4` topology in one process. A
// QueryServer with an attached Coordinator fans every query over four
// in-memory shards (LocalShardBackend, default CoordinatorOptions)
// holding a 2x10^4-image flag corpus. Four client connections first
// drive an open loop at a fixed offered rate (latency timed from each
// request's due time), then a closed loop that measures qps. Per-shard
// scans are small, so wire framing, id streaming, fan-out/merge and
// queueing dominate.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <tuple>

#include "core/plan.h"
#include "datasets/generators.h"
#include "harness.h"
#include "net/client.h"
#include "net/server.h"
#include "shard/backend.h"
#include "shard/coordinator.h"
#include "shard/sharded_db.h"

namespace mmdb::perfbench {

namespace {

/// Open-loop offered rate: about 40% of the ~100 closed-loop q/s this
/// workload measures on the 4-core machine it was calibrated on. At 60%
/// the open-loop tail swung by half between runs, because queueing
/// amplifies the shared machine's run-to-run speed changes.
constexpr double kOfferedRate = 40.0;
constexpr int kConnections = 4;
constexpr size_t kShards = 4;
/// Rounds per untraced run (see Measure), and per round the top-k
/// queries (~250 ms each), GetImage calls and insert-probe chunks. With
/// ~2000 fetches a run the printed fetch tail is the ~99.5th percentile.
constexpr int kRounds = 12;
constexpr int kKnnPerRound = 1;
constexpr int kFetchesPerRound = 160;
/// Chunk insert times vary 2-4x within a run with the chunks' scripts;
/// 48 chunks of 300 images kept the rate's spread over ten seeds within
/// its bound, where 24 chunks of 200 did not.
constexpr int kProbeChunksPerRound = 4;
constexpr int kProbeChunkImages = 300;

/// The serving stack. Members are declared in construction order; the
/// destructor stops the server before anything it calls into goes away.
struct ServeFixture {
  std::unique_ptr<MultimediaDatabase> single;
  std::unique_ptr<shard::ShardedDatabase> sharded;
  std::unique_ptr<QueryService> single_service;
  std::vector<std::unique_ptr<QueryService>> shard_services;
  std::unique_ptr<shard::Coordinator> coordinator;
  std::unique_ptr<net::QueryServer> server;
  std::vector<net::Client> clients;

  CorpusIds ids;
  SetupClock setup;
  /// A second, initially empty sharded store whose insert rate the
  /// untraced run measures.
  std::unique_ptr<shard::ShardedDatabase> probe_db;
  std::unique_ptr<InsertProbe> probe;

  /// Distinct requests the loops draw from, with the single store's
  /// answer to each (the reference every fanned answer must match).
  std::vector<QueryRequest> pool;
  std::vector<QueryResult> reference;
  /// Pool indices by share of the mix.
  std::vector<size_t> range_bwm, range_other, conj, knn;

  ~ServeFixture() {
    for (net::Client& client : clients) client.Close();
    if (server != nullptr) server->Stop();
  }
};

bool SameSimilarity(const QueryResult& a, const QueryResult& b) {
  auto key = [](const QueryResult& r) {
    std::vector<std::tuple<ObjectId, double, double>> out;
    for (const SimilarityMatch& m : r.matches) {
      out.emplace_back(m.id, m.distance_lo, m.distance_hi);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  return key(a) == key(b);
}

/// True iff a fanned answer matches the single store's answer.
bool Matches(const QueryRequest& request, const QueryResult& got,
             const QueryResult& ref) {
  if (request.similarity() != nullptr) return SameSimilarity(got, ref);
  return Sign(got.ids).SameSet(Sign(ref.ids));
}

bool BuildFixture(const RunOptions& options, Rng& rng, Report* report,
                  ServeFixture* fx) {
  const int slices = 4;
  CorpusSpec spec;
  spec.kind = datasets::DatasetKind::kFlags;
  spec.images = (options.smoke ? 1200 : 20000) / slices;

  Stopwatch fixed;
  Result<std::unique_ptr<MultimediaDatabase>> single =
      MultimediaDatabase::Open(DatabaseOptions{});
  shard::ShardedDatabaseOptions sharded_options;
  sharded_options.shards = kShards;
  Result<std::unique_ptr<shard::ShardedDatabase>> sharded =
      shard::ShardedDatabase::Open(sharded_options);
  if (!single.ok() || !sharded.ok()) {
    report->Wrong("open failed");
    return false;
  }
  fx->single = std::move(single).value();
  fx->sharded = std::move(sharded).value();
  fx->setup.fixed = fixed.ElapsedSeconds();

  // Every image goes into the single reference store and the sharded
  // store, under the same global id.
  MultimediaDatabase* db = fx->single.get();
  shard::ShardedDatabase* sdb = fx->sharded.get();
  const auto same_id = [](Result<ObjectId> single,
                          Result<ObjectId> sharded) -> Result<ObjectId> {
    if (!single.ok()) return single;
    if (!sharded.ok()) return sharded;
    if (*single != *sharded) {
      return Status::Internal("the stores assigned different ids");
    }
    return single;
  };
  if (!BuildCorpus(
          spec, slices, rng,
          [&](const Image& image) {
            return same_id(db->InsertBinaryImage(image),
                           sdb->InsertBinaryImage(image));
          },
          [&](const EditScript& script) {
            return same_id(db->InsertEditedImage(script),
                           sdb->InsertEditedImage(script));
          },
          &fx->setup, &fx->ids, report)) {
    return false;
  }

  fixed.Restart();
  fx->single_service = std::make_unique<QueryService>(db);
  std::vector<std::vector<std::unique_ptr<shard::ShardBackend>>> backends;
  for (size_t s = 0; s < kShards; ++s) {
    fx->shard_services.push_back(std::make_unique<QueryService>(sdb->shard(s)));
    std::vector<std::unique_ptr<shard::ShardBackend>> replicas;
    replicas.push_back(std::make_unique<shard::LocalShardBackend>(
        fx->shard_services.back().get(), &sdb->catalog(), s));
    backends.push_back(std::move(replicas));
  }
  fx->coordinator = std::make_unique<shard::Coordinator>(std::move(backends),
                                                         &sdb->catalog());
  fx->server = std::make_unique<net::QueryServer>(db, fx->single_service.get());
  fx->server->AttachCoordinator(fx->coordinator.get());
  const Status started = fx->server->Start();
  if (!started.ok()) {
    report->Wrong("server start: " + started.ToString());
    return false;
  }
  for (int c = 0; c < kConnections; ++c) {
    Result<net::Client> client =
        net::Client::Connect("127.0.0.1", fx->server->port());
    if (!client.ok()) {
      report->Wrong("connect: " + client.status().ToString());
      return false;
    }
    fx->clients.push_back(std::move(client).value());
  }
  fx->setup.fixed += fixed.ElapsedSeconds();

  // The request pool, generated from the seed.
  const std::vector<Rgb> palette = datasets::FlagPalette();
  std::vector<RangeQuery> windows = SpreadBySelectivity(
      datasets::MakeGroundedRangeWorkload(db->collection(), db->quantizer(),
                                          palette, 128, rng),
      db->collection());
  windows.resize(32);
  std::vector<ConjunctiveQuery> conjunctions = SpreadBySelectivity(
      MakeConjunctions(db->collection(), db->quantizer(), palette, 64, rng),
      db->collection());
  conjunctions.resize(16);
  for (const RangeQuery& window : windows) {
    fx->range_bwm.push_back(fx->pool.size());
    fx->pool.push_back(QueryRequest::Range(window, QueryMethod::kBwm));
    for (QueryMethod method : {QueryMethod::kRbm, QueryMethod::kParallelRbm,
                               QueryMethod::kBwmIndexed}) {
      fx->range_other.push_back(fx->pool.size());
      fx->pool.push_back(QueryRequest::Range(window, method));
    }
  }
  for (const ConjunctiveQuery& conjunction : conjunctions) {
    fx->conj.push_back(fx->pool.size());
    fx->pool.push_back(
        QueryRequest::Conjunctive(conjunction, QueryMethod::kPlanned));
  }
  for (const SimilarityQuery& query :
       MakeSimilarityQueries(db->collection(), 4, 10, rng)) {
    fx->knn.push_back(fx->pool.size());
    fx->pool.push_back(QueryRequest::Similarity(query));
  }

  Result<std::unique_ptr<shard::ShardedDatabase>> probe_db =
      shard::ShardedDatabase::Open(sharded_options);
  if (!probe_db.ok()) {
    report->Wrong("open: " + probe_db.status().ToString());
    return false;
  }
  fx->probe_db = std::move(probe_db).value();
  shard::ShardedDatabase* probed = fx->probe_db.get();
  spec.images = kProbeChunkImages;
  fx->probe = std::make_unique<InsertProbe>(
      spec, kRounds * kProbeChunksPerRound, rng,
      [probed](const Image& image) { return probed->InsertBinaryImage(image); },
      [probed](const EditScript& script) {
        return probed->InsertEditedImage(script);
      });
  return true;
}

/// Correctness gate, before any timing: every pool request answered over
/// the wire by the coordinator equals the single store's answer (ids as
/// sets; similarity intervals exactly) and is complete.
bool Gate(Report* report, ServeFixture* fx) {
  for (const QueryRequest& request : fx->pool) {
    QueryRequest reference = request;
    if (request.range() != nullptr || request.conjunctive() != nullptr) {
      reference.method = QueryMethod::kRbm;
    }
    Result<QueryResult> ref = fx->single_service->Execute(reference);
    net::Completeness completeness;
    const Result<QueryResult> got =
        fx->clients[0].Execute(request, &completeness);
    if (!ref.ok() || !got.ok() || !completeness.complete ||
        !Matches(request, *got, *ref)) {
      report->Wrong("gate: fanned answer differs from the single store (" +
                    std::string(QueryMethodName(request.method)) + ")");
      return false;
    }
    fx->reference.push_back(std::move(ref).value());
  }
  return true;
}

/// The loops' request mix: mostly kBwm ranges, some kPlanned
/// conjunctions, a few kRbm / kParallelRbm / kBwmIndexed ranges. Top-k
/// queries run in their own phase: each one keeps all four cores busy
/// for ~250 ms, and mixed into the loops it made their medians swing
/// with how many happened to land in a run.
size_t Draw(const ServeFixture& fx, Rng& rng) {
  const double u = rng.NextDouble();
  const std::vector<size_t>& from = u < 0.62  ? fx.range_bwm
                                    : u < 0.82 ? fx.conj
                                               : fx.range_other;
  return from[rng.Uniform(from.size())];
}

/// Per-method latency samples of one loop.
struct MixTimes {
  Samples all;
  std::map<std::string, Samples> by_kind;
  Samples late;
  void Add(const QueryRequest& request, double seconds) {
    all.Add(seconds);
    by_kind[std::string(QueryMethodName(request.method))].Add(seconds);
  }
  void Append(const MixTimes& other) {
    all.Append(other.all);
    late.Append(other.late);
    for (const auto& [kind, samples] : other.by_kind) {
      by_kind[kind].Append(samples);
    }
  }
};

/// Runs one request on `client`, checks it, and returns whether it
/// counted as a success.
bool Issue(ServeFixture& fx, net::Client& client, size_t index,
           Report* report, std::mutex& report_mu) {
  net::Completeness completeness;
  const Result<QueryResult> got = client.Execute(fx.pool[index], &completeness);
  const bool ok = got.ok() && completeness.complete;
  const bool right = ok && Matches(fx.pool[index], *got, fx.reference[index]);
  std::lock_guard<std::mutex> lock(report_mu);
  if (ok && !right) {
    report->Wrong("fanned answer differs from the single store");
  } else {
    report->Attempt(ok);
  }
  return right;
}

/// Top-k queries `first ..` of the pool's, `count` of them, one at a time
/// over one connection.
Samples KnnPhase(ServeFixture& fx, size_t first, size_t count,
                 Report* report) {
  std::mutex report_mu;
  Samples times;
  for (size_t i = first; i < first + count; ++i) {
    const size_t index = fx.knn[i % fx.knn.size()];
    Stopwatch call;
    if (Issue(fx, fx.clients[0], index, report, report_mu)) {
      times.Add(call.ElapsedSeconds());
    }
  }
  return times;
}

/// Open loop: requests are due on a seeded Poisson schedule at
/// `kOfferedRate`; each connection takes the next due request, and its
/// latency runs from the due time, so a stall also charges the requests
/// queued behind it.
MixTimes OpenLoop(ServeFixture& fx, double seconds, Rng& rng, Report* report) {
  std::vector<double> due;
  std::vector<size_t> which;
  for (double t = 0.0; t < seconds;
       t += -std::log(1.0 - rng.NextDouble()) / kOfferedRate) {
    due.push_back(t);
    which.push_back(Draw(fx, rng));
  }
  std::atomic<size_t> next{0};
  std::mutex report_mu;
  std::vector<MixTimes> times(fx.clients.size());
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (size_t c = 0; c < fx.clients.size(); ++c) {
    workers.emplace_back([&, c] {
      for (size_t i = next++; i < due.size(); i = next++) {
        const auto due_at =
            start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(due[i]));
        std::this_thread::sleep_until(due_at);
        const auto sent = std::chrono::steady_clock::now();
        const bool ok = Issue(fx, fx.clients[c], which[i], report, report_mu);
        const auto done = std::chrono::steady_clock::now();
        if (!ok) continue;
        times[c].late.Add(std::chrono::duration<double>(sent - due_at).count());
        times[c].Add(fx.pool[which[i]],
                     std::chrono::duration<double>(done - due_at).count());
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  MixTimes merged;
  for (const MixTimes& t : times) merged.Append(t);
  return merged;
}

/// Closed loop: every connection sends its next request as soon as the
/// previous one answers. Adds the loop's wall time to `*elapsed`.
MixTimes ClosedLoop(ServeFixture& fx, double seconds, uint64_t seed,
                    Report* report, double* elapsed) {
  std::mutex report_mu;
  std::vector<MixTimes> times(fx.clients.size());
  Stopwatch watch;
  std::vector<std::thread> workers;
  for (size_t c = 0; c < fx.clients.size(); ++c) {
    workers.emplace_back([&, c] {
      Rng rng(seed * 7919 + c);
      while (watch.ElapsedSeconds() < seconds) {
        const size_t index = Draw(fx, rng);
        Stopwatch call;
        if (Issue(fx, fx.clients[c], index, report, report_mu)) {
          times[c].Add(fx.pool[index], call.ElapsedSeconds());
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  *elapsed += watch.ElapsedSeconds();
  MixTimes merged;
  for (const MixTimes& t : times) merged.Append(t);
  return merged;
}

void Fetch(ServeFixture& fx, int count, Rng& rng, Report* report,
           FetchTimes* fetches) {
  RunFetches([&](ObjectId id) { return fx.sharded->GetImage(id); },
             *fx.single, fx.ids.binary, fx.ids.edited, 0.0, count, rng, report,
             fetches);
}

/// The untraced run, in rounds: each round runs its share of the open
/// loop, then of the closed loop, then a top-k query, fetches and
/// insert-probe chunks. The machine this runs on slows for seconds at a
/// time; spread over the run, such a stretch touches every metric a
/// little instead of one phase wholly.
void Measure(const RunOptions& options, Rng& rng, ServeFixture& fx,
             Report* report) {
  MixTimes open, closed;
  double closed_seconds = 0.0;
  Samples knn;
  FetchTimes fetches;
  for (int round = 0; round < kRounds; ++round) {
    open.Append(OpenLoop(fx, 0.55 * options.seconds / kRounds, rng, report));
    closed.Append(ClosedLoop(fx, 0.25 * options.seconds / kRounds,
                             options.seed * kRounds + round, report,
                             &closed_seconds));
    knn.Append(KnnPhase(fx, round * kKnnPerRound, kKnnPerRound, report));
    Fetch(fx, kFetchesPerRound, rng, report, &fetches);
    for (int c = 0; c < kProbeChunksPerRound; ++c) {
      if (!fx.probe->Chunk(report)) return;
    }
  }
  const double qps = static_cast<double>(closed.all.count()) / closed_seconds;

  // Per-method medians come from the closed loop, whose samples are
  // plentiful and free of the open loop's arrival bursts.
  auto kind = [&](const char* name) {
    const auto found = closed.by_kind.find(name);
    return found == closed.by_kind.end() ? Samples() : found->second;
  };
  report->Metric("setup_s", fx.setup.TotalSeconds(), "s");
  report->Metric("qps", qps, "1/s");
  report->Latency("query", open.all, true);
  report->Latency("bwm", kind("bwm"), false);
  report->Latency("rbm", kind("rbm"), false);
  report->Latency("parallel", kind("parallel-rbm"), false);
  report->Latency("indexed", kind("bwm-indexed"), false);
  report->Latency("conj", kind("planned"), false);
  report->Latency("knn", knn, false);
  report->Metric("ingest_images_per_s", fx.probe->ImagesPerSecond(),
                 "images/s");
  report->Latency("fetch", fetches.all, false);
  char line[160];
  std::snprintf(line, sizeof(line),
                "open loop: %.1f q/s offered over %zu requests, generator "
                "late p50 %.3f ms",
                kOfferedRate, open.all.count(), open.late.MedianMs());
  report->Note(line);
}

/// The traced run: the client → coordinator → shard service → facade →
/// processor ladder, then a short open loop for the counters.
void Trace(const RunOptions& options, Rng& rng, ServeFixture& fx,
           Report* report) {
  Ladder ladder;
  BwmCounts bwm;
  double shard_images = 0.0;  // images per shard, on average
  for (size_t s = 0; s < kShards; ++s) {
    const AugmentedCollection& c = fx.sharded->shard(s)->collection();
    shard_images += static_cast<double>(c.BinaryCount() + c.EditedCount()) /
                    static_cast<double>(kShards);
  }
  std::vector<size_t> ladder_pool = fx.range_bwm;
  ladder_pool.insert(ladder_pool.end(), fx.range_other.begin(),
                     fx.range_other.end());
  ladder_pool.insert(ladder_pool.end(), fx.conj.begin(), fx.conj.end());

  Stopwatch phase;
  for (size_t i = 0; i < 10 || phase.ElapsedSeconds() < 0.5 * options.seconds;
       ++i) {
    const size_t index = ladder_pool[rng.Uniform(ladder_pool.size())];
    const QueryRequest& request = fx.pool[index];
    const std::string method(QueryMethodName(request.method));
    bool ok = true;
    Result<QueryResult> at_client = Status::Internal("not run");
    {
      obs::Span root = ladder.Request();
      ladder.Rung("client", [&] { at_client = fx.clients[0].Execute(request); });
      ladder.Rung("coordinator", [&] {
        const Result<shard::ShardedResult> fanned =
            fx.coordinator->Execute(request);
        ok = ok && fanned.ok() && fanned->complete;
      });
      double slowest = 0.0;
      ladder.Rung("shard_service", [&] {
        for (size_t s = 0; s < kShards; ++s) {
          Stopwatch call;
          ok = ok && fx.shard_services[s]->Execute(request).ok();
          slowest = std::max(slowest, call.ElapsedSeconds());
        }
      });
      ladder.Record("shard_service.max", slowest);
      slowest = 0.0;
      ladder.Rung("facade", [&] {
        for (size_t s = 0; s < kShards; ++s) {
          Stopwatch call;
          ok = ok && RunAtFacade(*fx.sharded->shard(s), request).ok();
          slowest = std::max(slowest, call.ElapsedSeconds());
        }
      });
      ladder.Record("facade.max", slowest);
      ladder.Rung("processor", [&] {
        for (size_t s = 0; s < kShards; ++s) {
          double make = 0.0;
          Stopwatch call;
          ok = ok && RunAtProcessor(*fx.sharded->shard(s), request, &make).ok();
          ladder.Record("make_processor", make);
          ladder.Record("processor." + method, call.ElapsedSeconds());
        }
      });
    }
    ok = ok && at_client.ok() && Matches(request, *at_client, fx.reference[index]);
    report->Attempt(ok);
    if (ok && request.method == QueryMethod::kBwm) bwm.Add(*at_client);
  }

  // Planner statistics lookups on a shard (cached: no mutation runs).
  Samples planner_times;
  std::shared_ptr<const CorpusStats> planner = fx.sharded->shard(0)->PlannerStats();
  int64_t rebuilds = 0;
  for (int i = 0; i < 100; ++i) {
    Stopwatch call;
    std::shared_ptr<const CorpusStats> current =
        fx.sharded->shard(0)->PlannerStats();
    planner_times.Add(call.ElapsedSeconds());
    if (current != planner) ++rebuilds;
    planner = std::move(current);
  }

  const auto run_bwm = [&](size_t i) {
    return fx.clients[0].Execute(fx.pool[fx.range_bwm[i % fx.range_bwm.size()]]).ok();
  };
  ReportScanLayer(bwm, fx.ids.edited.size(), 10, run_bwm, report);
  ReportTraceOverhead(&ladder, 20, [&](size_t i) { return run_bwm(i / 2); },
                      report);

  // Counters around a short open loop at the workload's offered rate.
  const shard::Coordinator::Stats coord0 = fx.coordinator->stats();
  const net::QueryServer::Stats net0 = fx.server->GetStats();
  for (auto& service : fx.shard_services) service->ResetCounters();
  const MixTimes open = OpenLoop(fx, 0.3 * options.seconds, rng, report);
  const shard::Coordinator::Stats coord1 = fx.coordinator->stats();
  const net::QueryServer::Stats net1 = fx.server->GetStats();
  double queue_wait = 0.0;
  int64_t pool_tasks = 0;
  for (auto& service : fx.shard_services) {
    const QueryService::CounterSnapshot snapshot = service->Snapshot();
    queue_wait += snapshot.total_queue_wait_seconds;
    pool_tasks += snapshot.pool_tasks;
  }
  const double queries = static_cast<double>(std::max<int64_t>(1, coord1.queries - coord0.queries));
  const double hedges = static_cast<double>(coord1.hedges_launched - coord0.hedges_launched);
  const double requests = static_cast<double>(std::max<int64_t>(1, net1.requests - net0.requests));

  const Result<QueryResult> top = fx.clients[0].Execute(fx.pool[fx.knn[0]]);
  report->Attempt(top.ok());

  FetchTimes fetches;
  Fetch(fx, kRounds * kFetchesPerRound, rng, report, &fetches);

  report->Metric("net.self_ms", ladder.SelfMs("client", "coordinator"), "ms");
  report->Metric("net.bytes_per_query",
                 static_cast<double>((net1.bytes_sent - net0.bytes_sent) +
                                     (net1.bytes_received - net0.bytes_received)) /
                     requests,
                 "B");
  report->Metric("shard.self_ms", ladder.SelfMs("coordinator", "shard_service.max"),
                 "ms");
  report->Metric("shard.hedges_per_query", hedges / queries, "count");
  report->Metric("shard.hedge_win_ratio",
                 hedges > 0 ? static_cast<double>(coord1.hedge_wins - coord0.hedge_wins) / hedges
                            : 0.0,
                 "ratio");
  report->Metric("service.self_ms", ladder.SelfMs("shard_service.max", "facade.max"),
                 "ms");
  report->Metric("service.queue_wait_ms",
                 pool_tasks > 0 ? 1e3 * queue_wait / static_cast<double>(pool_tasks) : 0.0,
                 "ms");
  report->Metric("db.make_processor_us",
                 ladder.Times("make_processor").MedianMs() * 1e3, "us");
  report->Metric("planner.stats_ms", planner_times.MedianMs(), "ms");
  report->Metric("planner.rebuilds", static_cast<double>(rebuilds), "count");
  ReportNsPerImage(&ladder, shard_images, report);
  report->Metric("knn.candidates_per_query",
                 top.ok() ? static_cast<double>(top->matches.size()) /
                                static_cast<double>(fx.pool[fx.knn[0]].similarity()->k)
                          : 0.0,
                 "ratio");
  report->Metric("editops.instantiate_ms",
                 fetches.edited.MedianMs() - fetches.binary.MedianMs(), "ms");
  report->Metric("loadgen.late_p99_ms", open.late.TailMs(), "ms");
  FinishTrace(options, ladder, fx.setup, report);
}

}  // namespace

int RunServeSharded(const RunOptions& options, Report* report) {
  Rng rng(options.seed);
  ServeFixture fx;
  if (!BuildFixture(options, rng, report, &fx)) return 1;
  if (!Gate(report, &fx)) return 1;
  if (options.trace) {
    Trace(options, rng, fx, report);
  } else {
    Measure(options, rng, fx, report);
  }
  return report->correct() ? 0 : 1;
}

}  // namespace mmdb::perfbench
