// mmdb_stats — observability front end. Runs a representative RBM + BWM
// workload through the query service on a disk-backed database with
// fine-grained tracing enabled, then prints where the time went:
//
//   mmdb_stats                     breakdown table + Prometheus text
//   mmdb_stats --json              breakdown table + registry JSON
//   mmdb_stats --traces            ... + the recent-span ring as JSON
//   mmdb_stats --robustness        ... + the query-lifecycle counter
//                                  section (deadlines, cancellations,
//                                  admission, retries, breaker state),
//                                  after exercising those paths
//   mmdb_stats --sharding          ... + the scatter-gather coordinator
//                                  section (fan-outs, partial results,
//                                  hedges, shard breakers), after
//                                  fanning the workload across shards
//                                  with one shard down
//   mmdb_stats --images 600 --queries 24 --repeats 5
//   mmdb_stats --db photos.mmdb    use (and keep) an explicit page file
//
// The breakdown answers the paper's central question operationally: of a
// query's wall time, how much is BWM cluster acceptance vs. RBM-style
// rule walks vs. page I/O vs. executor queue wait.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/query_service.h"
#include "datasets/augment.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "shard/backend.h"
#include "shard/coordinator.h"
#include "shard/health.h"
#include "shard/sharded_db.h"
#include "util/table_printer.h"

namespace mmdb {
namespace {

int Usage() {
  std::cerr
      << "usage: mmdb_stats [options]\n"
         "  --images N    dataset size (default 300)\n"
         "  --queries N   range windows per method (default 12)\n"
         "  --repeats N   workload repetitions (default 3)\n"
         "  --threads N   query service threads (default 4)\n"
         "  --db PATH     page file to use and keep (default: a "
         "throwaway file under /tmp)\n"
         "  --json        print the registry as JSON instead of "
         "Prometheus text\n"
         "  --traces      also dump the recent-span ring as JSON\n"
         "  --robustness  exercise the lifecycle paths (deadlines, "
         "cancellation, shedding) and print the lifecycle counter "
         "section\n"
         "  --sharding    fan the workload across in-process shards "
         "(one left down) and print the coordinator counter section\n";
  return 2;
}

/// A backend whose shard is permanently offline — lets --sharding show
/// the coordinator's degradation counters (partial results, breaker
/// ejection) without real sockets or killed processes.
class DownBackend : public shard::ShardBackend {
 public:
  explicit DownBackend(size_t shard) : shard_(shard) {}
  Result<QueryResult> Execute(const QueryRequest&) override {
    return Status::Unavailable("shard store offline");
  }
  Status Probe() override {
    return Status::Unavailable("shard store offline");
  }
  std::string name() const override {
    return "down:" + std::to_string(shard_);
  }

 private:
  size_t shard_;
};

const char* BreakerStateName(shard::BreakerState state) {
  switch (state) {
    case shard::BreakerState::kClosed:
      return "closed";
    case shard::BreakerState::kOpen:
      return "open";
    case shard::BreakerState::kHalfOpen:
      return "half-open";
  }
  return "?";
}

void AddStageRow(TablePrinter* table, const std::string& label,
                 const obs::Histogram::Snapshot& snap) {
  table->AddRow({label, TablePrinter::Cell(snap.count),
                 TablePrinter::Cell(snap.sum * 1e3, 3),
                 TablePrinter::Cell(snap.mean() * 1e6, 2),
                 TablePrinter::Cell(snap.Percentile(0.95) * 1e6, 2),
                 TablePrinter::Cell(snap.max * 1e6, 2)});
}

int Run(int argc, char** argv) {
  int images = 300;
  int queries = 12;
  int repeats = 3;
  int threads = 4;
  std::string db_path;
  bool keep_db = false;
  bool as_json = false;
  bool dump_traces = false;
  bool robustness = false;
  bool sharding = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_int = [&](int* out) {
      if (i + 1 >= argc) return false;
      *out = std::atoi(argv[++i]);
      return *out > 0;
    };
    if (arg == "--images") {
      if (!next_int(&images)) return Usage();
    } else if (arg == "--queries") {
      if (!next_int(&queries)) return Usage();
    } else if (arg == "--repeats") {
      if (!next_int(&repeats)) return Usage();
    } else if (arg == "--threads") {
      if (!next_int(&threads)) return Usage();
    } else if (arg == "--db") {
      if (i + 1 >= argc) return Usage();
      db_path = argv[++i];
      keep_db = true;
    } else if (arg == "--json") {
      as_json = true;
    } else if (arg == "--traces") {
      dump_traces = true;
    } else if (arg == "--robustness") {
      robustness = true;
    } else if (arg == "--sharding") {
      sharding = true;
    } else {
      return Usage();
    }
  }
  if (db_path.empty()) {
    db_path = "/tmp/mmdb_stats_demo.db";
    std::remove(db_path.c_str());
    std::remove((db_path + ".journal").c_str());
  }

  // Fine spans on: we want the per-cluster-accept / per-rule-walk split,
  // and a diagnostics CLI is exactly the opt-in consumer they exist for.
  obs::Tracer::SetDetailEnabled(true);

  // 1. Disk-backed database so the storage stages (page I/O, journal,
  //    commits) show up in the breakdown alongside the query stages.
  DatabaseOptions options;
  options.path = db_path;
  auto db_or = MultimediaDatabase::Open(options);
  if (!db_or.ok()) {
    std::cerr << db_or.status().ToString() << "\n";
    return 1;
  }
  auto db = std::move(db_or).value();
  datasets::DatasetSpec spec;
  spec.kind = datasets::DatasetKind::kHelmets;
  spec.total_images = images;
  spec.edited_fraction = 0.8;
  spec.widening_probability = 0.8;
  spec.seed = 1234;
  auto built = datasets::BuildAugmentedDatabase(db.get(), spec);
  if (!built.ok()) {
    std::cerr << built.status().ToString() << "\n";
    return 1;
  }

  // 2. The same range windows through both access paths, batched on the
  //    service pool (so executor queue wait is part of the story).
  Rng rng(99);
  const auto windows = datasets::MakeRangeWorkload(
      db->quantizer(), datasets::HelmetPalette(), queries, rng);
  std::vector<QueryRequest> batch;
  for (const RangeQuery& window : windows) {
    batch.push_back(QueryRequest::Range(window, QueryMethod::kRbm));
    batch.push_back(QueryRequest::Range(window, QueryMethod::kBwm));
  }
  QueryService service(db.get(), QueryServiceOptions{threads, {}});
  for (int r = 0; r < repeats; ++r) {
    for (const auto& result : service.ExecuteBatch(batch)) {
      if (!result.ok()) {
        std::cerr << result.status().ToString() << "\n";
        return 1;
      }
    }
  }
  std::cout << "workload: " << built->binary_ids.size() << " binary + "
            << built->edited_ids.size() << " edited images ("
            << db_path << "), " << batch.size() << " queries/batch x "
            << repeats << " batches on " << threads << " threads\n\n";

  // 3. Per-stage latency breakdown from the span histograms, in pipeline
  //    order; anything not in the curated order is appended so new span
  //    sites can never silently vanish from this table.
  const std::vector<std::string> order = {
      "query_service.batch", "query_service.query",
      "query.rbm", "rbm.scan", "rbm.rule_walk",
      "query.bwm", "bwm.scan", "bwm.cluster_accept", "bwm.rule_walk",
      "disk.read_page", "disk.write_page",
      "journal.append", "journal.fsync", "store.commit",
  };
  std::map<std::string, obs::Histogram::Snapshot> stages;
  for (auto& summary : obs::Tracer::Default().Summaries()) {
    stages[summary.name] = std::move(summary.seconds);
  }
  TablePrinter table({"stage", "spans", "total ms", "mean us", "p95 us",
                      "max us"});
  AddStageRow(&table, "executor queue wait",
              obs::Registry::Default()
                  .GetHistogram("mmdb_executor_queue_wait_seconds", "")
                  ->Snap());
  for (const std::string& name : order) {
    auto it = stages.find(name);
    if (it == stages.end()) continue;
    AddStageRow(&table, name, it->second);
    stages.erase(it);
  }
  for (const auto& [name, snap] : stages) {
    AddStageRow(&table, name, snap);
  }
  std::cout << "=== Per-stage latency breakdown ===\n";
  table.Print(std::cout);

  // 4. The headline split: what BWM spends accepting whole clusters
  //    against what the RBM-style rule walks cost each method.
  const auto summaries = obs::Tracer::Default().Summaries();
  auto total = [&](const std::string& name) {
    for (const auto& summary : summaries) {
      if (summary.name == name) return summary.seconds.sum;
    }
    return 0.0;
  };
  const double bwm_scan = total("bwm.scan");
  const double rbm_scan = total("rbm.scan");
  std::cout << "\nBWM vs RBM time split:\n";
  if (rbm_scan > 0.0 && bwm_scan > 0.0) {
    std::cout << "  rbm.scan total " << rbm_scan * 1e3
              << " ms, of which rule walks " << total("rbm.rule_walk") * 1e3
              << " ms\n"
              << "  bwm.scan total " << bwm_scan * 1e3
              << " ms, of which cluster accepts "
              << total("bwm.cluster_accept") * 1e3 << " ms, rule walks "
              << total("bwm.rule_walk") * 1e3 << " ms\n"
              << "  BWM spent " << (1.0 - bwm_scan / rbm_scan) * 100.0
              << "% less scan time than RBM on the identical windows\n";
  }

  // 5. Query-lifecycle counters. The normal workload above never trips a
  //    limit, so first exercise each path — expired deadlines, a
  //    pre-cancelled token, and an overloaded shed gate — then read the
  //    registry (the exercised counters also appear in the dumps below).
  if (robustness) {
    QueryRequest doomed = QueryRequest::Range(windows[0], QueryMethod::kRbm);
    doomed.deadline = Deadline::After(0.0);
    for (int i = 0; i < 4; ++i) (void)service.Execute(doomed);
    CancelToken stop;
    stop.Cancel();
    QueryRequest stopped = QueryRequest::Range(windows[0], QueryMethod::kBwm);
    stopped.cancel = &stop;
    for (int i = 0; i < 4; ++i) (void)service.Execute(stopped);

    QueryServiceOptions overload_options;
    overload_options.threads = 1;
    overload_options.admission.max_in_flight = 1;
    overload_options.admission.max_queued = 1;
    overload_options.admission.policy = AdmissionPolicy::kShedOldest;
    QueryService overloaded(db.get(), overload_options);
    // A match-everything instantiate scan is the slowest path, so the
    // single slot stays busy long enough for the waiter queue to
    // overflow and shed.
    RangeQuery heavy;
    heavy.bin = 0;
    heavy.min_fraction = 0.0;
    std::vector<std::thread> clients;
    for (int c = 0; c < 6; ++c) {
      clients.emplace_back([&] {
        for (int i = 0; i < 4; ++i) {
          (void)overloaded.Execute(
              QueryRequest::Range(heavy, QueryMethod::kInstantiate));
        }
      });
    }
    for (std::thread& client : clients) client.join();

    auto counter = [](const std::string& name,
                      const obs::Labels& labels = {}) {
      return obs::Registry::Default().GetCounter(name, "", labels)->Value();
    };
    auto gauge = [](const std::string& name) {
      return obs::Registry::Default().GetGauge(name, "")->Value();
    };
    TablePrinter lifecycle({"lifecycle counter", "value"});
    lifecycle.AddRow({"queries deadline-exceeded",
                      TablePrinter::Cell(
                          counter("mmdb_query_deadline_exceeded_total"))});
    lifecycle.AddRow(
        {"queries cancelled",
         TablePrinter::Cell(counter("mmdb_query_cancelled_total"))});
    lifecycle.AddRow(
        {"admission admitted",
         TablePrinter::Cell(counter("mmdb_admission_admitted_total"))});
    for (const char* reason : {"queue-full", "timeout", "shed"}) {
      lifecycle.AddRow(
          {std::string("admission rejected (") + reason + ")",
           TablePrinter::Cell(counter("mmdb_admission_rejected_total",
                                      {{"reason", reason}}))});
    }
    lifecycle.AddRow(
        {"admission shed evictions",
         TablePrinter::Cell(counter("mmdb_admission_shed_total"))});
    lifecycle.AddRow(
        {"storage read retries",
         TablePrinter::Cell(counter("mmdb_storage_retries_total"))});
    lifecycle.AddRow({"storage checksum re-reads",
                      TablePrinter::Cell(counter(
                          "mmdb_storage_checksum_rereads_total"))});
    lifecycle.AddRow(
        {"breaker trips",
         TablePrinter::Cell(counter("mmdb_breaker_trips_total"))});
    lifecycle.AddRow(
        {"breaker open images",
         TablePrinter::Cell(static_cast<int64_t>(
             gauge("mmdb_breaker_open_images")))});
    lifecycle.AddRow(
        {"images quarantined (total)",
         TablePrinter::Cell(counter("mmdb_quarantines_total"))});
    lifecycle.AddRow(
        {"images quarantined (now)",
         TablePrinter::Cell(
             static_cast<int64_t>(db->QuarantinedImages().size()))});
    lifecycle.AddRow(
        {"breaker trip threshold",
         TablePrinter::Cell(db->circuit_breaker().trip_threshold())});
    std::cout << "\n=== Query-lifecycle counters (--robustness) ===\n";
    lifecycle.Print(std::cout);
  }

  // 6. Scatter-gather coordinator counters. Mirror the corpus across
  //    three in-process shards, leave the last one permanently down,
  //    and fan the same windows out: every query degrades to a partial
  //    result, the dead shard's breaker trips after a few failures, and
  //    later fan-outs skip it outright — so the mmdb_coord_* family
  //    shows real traffic through each branch of the failure envelope.
  if (sharding) {
    shard::ShardedDatabaseOptions sharded_options;
    sharded_options.shards = 3;
    auto sharded_or = shard::ShardedDatabase::Open(sharded_options);
    if (!sharded_or.ok()) {
      std::cerr << sharded_or.status().ToString() << "\n";
      return 1;
    }
    auto sharded = std::move(sharded_or).value();
    Status mirrored = shard::MirrorDatabase(*db, sharded.get());
    if (!mirrored.ok()) {
      std::cerr << mirrored.ToString() << "\n";
      return 1;
    }
    std::vector<std::unique_ptr<QueryService>> shard_services;
    std::vector<std::vector<std::unique_ptr<shard::ShardBackend>>> backends;
    for (size_t s = 0; s < sharded->shard_count(); ++s) {
      shard_services.push_back(std::make_unique<QueryService>(
          sharded->shard(s), QueryServiceOptions{2, {}}));
      std::vector<std::unique_ptr<shard::ShardBackend>> replicas;
      if (s + 1 == sharded->shard_count()) {
        replicas.push_back(std::make_unique<DownBackend>(s));
      } else {
        replicas.push_back(std::make_unique<shard::LocalShardBackend>(
            shard_services.back().get(), &sharded->catalog(), s));
      }
      backends.push_back(std::move(replicas));
    }
    shard::Coordinator coordinator(std::move(backends), &sharded->catalog());
    for (const RangeQuery& window : windows) {
      auto fanned =
          coordinator.Execute(QueryRequest::Range(window, QueryMethod::kBwm));
      if (!fanned.ok()) {
        std::cerr << fanned.status().ToString() << "\n";
        return 1;
      }
    }
    coordinator.ProbeEjected();  // The dead shard fails its trial too.

    const shard::Coordinator::Stats coord = coordinator.stats();
    auto coord_counter = [](const std::string& name) {
      return obs::Registry::Default().GetCounter(name, "")->Value();
    };
    TablePrinter fanouts({"coordinator counter", "value"});
    fanouts.AddRow({"fan-outs run", TablePrinter::Cell(coord.queries)});
    fanouts.AddRow(
        {"partial results", TablePrinter::Cell(coord.partial_results)});
    fanouts.AddRow(
        {"hedges launched", TablePrinter::Cell(coord.hedges_launched)});
    fanouts.AddRow({"hedge wins", TablePrinter::Cell(coord.hedge_wins)});
    fanouts.AddRow(
        {"shard attempt failures", TablePrinter::Cell(coord.shard_failures)});
    fanouts.AddRow(
        {"breaker skips", TablePrinter::Cell(coord.breaker_skips)});
    fanouts.AddRow(
        {"client reconnects",
         TablePrinter::Cell(
             coord_counter("mmdb_net_client_reconnects_total"))});
    for (size_t s = 0; s < coordinator.shard_count(); ++s) {
      fanouts.AddRow(
          {"shard " + std::to_string(s) + " breaker",
           TablePrinter::Cell(
               BreakerStateName(coordinator.health().StateOf(s)))});
    }
    std::cout << "\n=== Coordinator counters (--sharding) ===\n";
    fanouts.Print(std::cout);
  }

  // 7. Machine-readable views of the same registry.
  if (as_json) {
    std::cout << "\n=== Registry JSON snapshot ===\n";
    obs::Registry::Default().WriteJson(std::cout);
    std::cout << "\n";
  } else {
    std::cout << "\n=== Prometheus exposition ===\n";
    obs::Registry::Default().WriteText(std::cout);
  }
  if (dump_traces) {
    std::cout << "\n=== Recent spans ===\n";
    obs::Tracer::Default().DumpRecentJson(std::cout);
    std::cout << "\n";
  }

  if (!keep_db) {
    db.reset();
    std::remove(db_path.c_str());
    std::remove((db_path + ".journal").c_str());
  }
  return 0;
}

}  // namespace
}  // namespace mmdb

int main(int argc, char** argv) { return mmdb::Run(argc, argv); }
