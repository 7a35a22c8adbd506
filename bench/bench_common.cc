#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "obs/metrics.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

namespace mmdb::bench {

namespace {

/// Sorts `samples` in place and fills the timing's percentile fields.
void FillPercentiles(std::vector<double>* samples, WorkloadTiming* timing) {
  if (samples->empty()) return;
  std::sort(samples->begin(), samples->end());
  const auto at = [&](double q) {
    const size_t index = static_cast<size_t>(
        q * static_cast<double>(samples->size() - 1));
    return (*samples)[index];
  };
  timing->p50_query_seconds = at(0.5);
  timing->p95_query_seconds = at(0.95);
  timing->max_query_seconds = samples->back();
}

/// JSON string-escapes `text` into `out` (quotes, backslashes, and
/// control characters — plan renderings embed newlines).
void EscapeJson(std::ostream& out, std::string_view text) {
  for (char c : text) {
    switch (c) {
      case '\\': out << "\\\\"; break;
      case '"': out << "\\\""; break;
      case '\n': out << "\\n"; break;
      case '\r': out << "\\r"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out << buffer;
        } else {
          out << c;
        }
    }
  }
}

}  // namespace

Result<WorkloadTiming> TimeWorkload(const MultimediaDatabase& db,
                                    const std::vector<RangeQuery>& workload,
                                    QueryMethod method, int repeats) {
  WorkloadTiming timing;
  // Warm-up pass so first-touch costs do not skew the first method run.
  for (const RangeQuery& query : workload) {
    MMDB_ASSIGN_OR_RETURN(QueryResult result, db.RunRange(query, method));
    timing.stats += result.stats;
  }
  std::vector<double> samples;
  samples.reserve(workload.size() * static_cast<size_t>(repeats));
  Stopwatch watch;
  for (int r = 0; r < repeats; ++r) {
    for (const RangeQuery& query : workload) {
      Stopwatch per_query;
      MMDB_ASSIGN_OR_RETURN(QueryResult result, db.RunRange(query, method));
      samples.push_back(per_query.ElapsedSeconds());
      // Keep the optimizer honest.
      if (result.ids.size() > (1u << 30)) {
        return Status::Internal("impossible result size");
      }
    }
  }
  timing.total_seconds = watch.ElapsedSeconds();
  timing.queries = static_cast<int>(workload.size()) * repeats;
  timing.avg_query_seconds =
      timing.queries > 0 ? timing.total_seconds / timing.queries : 0.0;
  FillPercentiles(&samples, &timing);
  return timing;
}

Result<std::unique_ptr<MultimediaDatabase>> BuildDatabase(
    const datasets::DatasetSpec& spec, datasets::DatasetStats* stats) {
  MMDB_ASSIGN_OR_RETURN(std::unique_ptr<MultimediaDatabase> db,
                        MultimediaDatabase::Open());
  MMDB_ASSIGN_OR_RETURN(datasets::DatasetStats built,
                        datasets::BuildAugmentedDatabase(db.get(), spec));
  if (stats != nullptr) *stats = built;
  return db;
}

Result<std::vector<WorkloadTiming>> TimeMethodsInterleaved(
    const MultimediaDatabase& db, const std::vector<RangeQuery>& workload,
    const std::vector<QueryMethod>& methods, int repeats) {
  std::vector<WorkloadTiming> out(methods.size());
  std::vector<std::vector<double>> round_seconds(methods.size());

  // Warm-up (also collects the work counters once per method).
  for (size_t m = 0; m < methods.size(); ++m) {
    for (const RangeQuery& query : workload) {
      MMDB_ASSIGN_OR_RETURN(QueryResult result,
                            db.RunRange(query, methods[m]));
      out[m].stats += result.stats;
    }
  }
  std::vector<std::vector<double>> samples(methods.size());
  for (int r = 0; r < std::max(1, repeats); ++r) {
    for (size_t m = 0; m < methods.size(); ++m) {
      Stopwatch watch;
      for (const RangeQuery& query : workload) {
        Stopwatch per_query;
        MMDB_ASSIGN_OR_RETURN(QueryResult result,
                              db.RunRange(query, methods[m]));
        samples[m].push_back(per_query.ElapsedSeconds());
        if (result.ids.size() > (1u << 30)) {
          return Status::Internal("impossible result size");
        }
      }
      round_seconds[m].push_back(watch.ElapsedSeconds());
    }
  }
  for (size_t m = 0; m < methods.size(); ++m) {
    std::vector<double>& rounds = round_seconds[m];
    std::sort(rounds.begin(), rounds.end());
    const double median = rounds[rounds.size() / 2];
    out[m].queries = static_cast<int>(workload.size());
    out[m].total_seconds = median;
    out[m].avg_query_seconds =
        workload.empty() ? 0.0 : median / workload.size();
    FillPercentiles(&samples[m], &out[m]);
  }
  return out;
}

int RunFigureSweep(const FigureSweepConfig& config) {
  std::cout << "=== " << config.figure_name
            << ": Range query time vs. percentage of images stored as "
               "editing operations (" << KindName(config.kind)
            << " data set) ===\n"
            << "total images per point: " << config.total_images
            << ", queries: " << config.queries << " x" << config.repeats
            << " repeats, widening probability: "
            << config.widening_probability << ", seed: " << config.seed
            << "\n\n";

  TablePrinter table({"% edit-stored", "RBM w/out DS (ms/query)",
                      "BWM with DS (ms/query)", "speedup %", "rules RBM",
                      "rules BWM", "skipped by BWM"});
  JsonWriter json;
  json.BeginObject();
  json.Key("bench").String(config.json_name.empty() ? config.figure_name
                                                    : config.json_name);
  json.Key("workload").BeginObject();
  json.Key("figure").String(config.figure_name);
  json.Key("dataset").String(KindName(config.kind));
  json.Key("total_images").Int(config.total_images);
  json.Key("queries").Int(config.queries);
  json.Key("repeats").Int(config.repeats);
  json.Key("widening_probability").Number(config.widening_probability);
  json.Key("min_ops").Int(config.min_ops);
  json.Key("max_ops").Int(config.max_ops);
  json.Key("seed").Int(static_cast<int64_t>(config.seed));
  json.EndObject();
  json.Key("points").BeginArray();
  double speedup_sum = 0.0;
  int points = 0;
  for (int pct = 10; pct <= 90; pct += 10) {
    datasets::DatasetSpec spec;
    spec.kind = config.kind;
    spec.total_images = config.total_images;
    spec.edited_fraction = pct / 100.0;
    spec.widening_probability = config.widening_probability;
    spec.min_ops = config.min_ops;
    spec.max_ops = config.max_ops;
    spec.seed = config.seed + static_cast<uint64_t>(pct);

    datasets::DatasetStats stats;
    auto db = BuildDatabase(spec, &stats);
    if (!db.ok()) {
      std::cerr << "build failed: " << db.status().ToString() << "\n";
      return 1;
    }
    Rng rng(config.seed * 31 + static_cast<uint64_t>(pct));
    const auto workload = datasets::MakeGroundedRangeWorkload(
        (*db)->collection(), (*db)->quantizer(),
        datasets::PaletteFor(config.kind), config.queries, rng);

    const auto timed = TimeMethodsInterleaved(
        **db, workload, {QueryMethod::kRbm, QueryMethod::kBwm},
        config.repeats);
    if (!timed.ok()) {
      std::cerr << "workload failed: " << timed.status().ToString() << "\n";
      return 1;
    }
    const WorkloadTiming& rbm = (*timed)[0];
    const WorkloadTiming& bwm = (*timed)[1];
    const double speedup =
        rbm.avg_query_seconds > 0
            ? (1.0 - bwm.avg_query_seconds / rbm.avg_query_seconds) * 100.0
            : 0.0;
    speedup_sum += speedup;
    ++points;
    table.AddRow({TablePrinter::Cell(pct),
                  TablePrinter::Cell(rbm.avg_query_seconds * 1e3, 4),
                  TablePrinter::Cell(bwm.avg_query_seconds * 1e3, 4),
                  TablePrinter::Cell(speedup, 2),
                  TablePrinter::Cell(rbm.stats.rules_applied),
                  TablePrinter::Cell(bwm.stats.rules_applied),
                  TablePrinter::Cell(bwm.stats.edited_images_skipped)});
    json.BeginObject();
    json.Key("edit_stored_pct").Int(pct);
    json.Key("speedup_pct").Number(speedup);
    json.Key("rbm").BeginObject();
    AddTimingFields(&json, rbm);
    json.EndObject();
    json.Key("bwm").BeginObject();
    AddTimingFields(&json, bwm);
    json.EndObject();
    json.EndObject();
  }
  table.Print(std::cout);
  if (std::getenv("MMDB_BENCH_CSV") != nullptr) {
    std::cout << "\nCSV:\n";
    table.PrintCsv(std::cout);
  }
  std::cout << "\nAverage speedup of BWM over RBM: "
            << TablePrinter::Cell(speedup_sum / points, 2)
            << "% (paper reports 33.07% helmet / 22.08% flag; shape, not "
               "absolute numbers, is the reproduction target)\n";
  json.EndArray();
  json.Key("average_speedup_pct").Number(speedup_sum / points);
  json.Key("registry").Raw(RegistryJson());
  json.EndObject();
  if (!config.json_name.empty() &&
      !WriteBenchReport(config.json_name, json.Take())) {
    return 1;
  }
  return 0;
}

void JsonWriter::ValuePrefix() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (!needs_comma_.empty()) {
    if (needs_comma_.back()) out_ << ',';
    needs_comma_.back() = true;
  }
}

JsonWriter& JsonWriter::BeginObject() {
  ValuePrefix();
  out_ << '{';
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  needs_comma_.pop_back();
  out_ << '}';
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  ValuePrefix();
  out_ << '[';
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  needs_comma_.pop_back();
  out_ << ']';
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view name) {
  if (needs_comma_.back()) out_ << ',';
  needs_comma_.back() = true;
  out_ << '"';
  EscapeJson(out_, name);
  out_ << "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  ValuePrefix();
  out_ << '"';
  EscapeJson(out_, value);
  out_ << '"';
  return *this;
}

JsonWriter& JsonWriter::Number(double value) {
  ValuePrefix();
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out_ << buffer;
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  ValuePrefix();
  out_ << value;
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  ValuePrefix();
  out_ << (value ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::Raw(std::string_view json) {
  ValuePrefix();
  out_ << json;
  return *this;
}

std::string RegistryJson() {
  std::ostringstream out;
  obs::Registry::Default().WriteJson(out);
  return out.str();
}

void AddTimingFields(JsonWriter* json, const WorkloadTiming& timing) {
  json->Key("queries").Int(timing.queries);
  json->Key("total_seconds").Number(timing.total_seconds);
  json->Key("avg_query_seconds").Number(timing.avg_query_seconds);
  json->Key("p50_query_seconds").Number(timing.p50_query_seconds);
  json->Key("p95_query_seconds").Number(timing.p95_query_seconds);
  json->Key("max_query_seconds").Number(timing.max_query_seconds);
  json->Key("binary_images_checked").Int(timing.stats.binary_images_checked);
  json->Key("edited_images_bounded").Int(timing.stats.edited_images_bounded);
  json->Key("edited_images_skipped").Int(timing.stats.edited_images_skipped);
  json->Key("rules_applied").Int(timing.stats.rules_applied);
  json->Key("images_instantiated").Int(timing.stats.images_instantiated);
}

bool WriteBenchReport(const std::string& bench_name,
                      const std::string& json) {
  const std::string path = "BENCH_" + bench_name + ".json";
  std::ofstream out(path, std::ios::trunc);
  out << json << "\n";
  if (!out) {
    std::cerr << "failed to write " << path << "\n";
    return false;
  }
  std::cout << "machine-readable report: " << path << "\n";
  return true;
}

std::string KindName(datasets::DatasetKind kind) {
  switch (kind) {
    case datasets::DatasetKind::kFlags:
      return "flag";
    case datasets::DatasetKind::kHelmets:
      return "helmet";
    case datasets::DatasetKind::kRoadSigns:
      return "road-sign";
  }
  return "unknown";
}

}  // namespace mmdb::bench
