// mmdb_query — remote query CLI speaking the versioned wire protocol
// (docs/NETWORK.md) against a running mmdb_serve:
//
//   mmdb_query "color('#0038a8') >= 0.25"
//   mmdb_query --port 9000 --method rbm "color(12) <= 0.1"
//   mmdb_query --deadline-ms 50 --repeat 100 "color('#cc0000') >= 0.2"
//   mmdb_query "nearest(blue, 10)"
//   mmdb_query --explain "color(blue) >= 25% and color(white) <= 0.1"
//
// The server's quantizer shape is fetched first (kInfoRequest), so the
// expression is parsed against the exact bins the server stores —
// a remote query resolves colors identically to an embedded one.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <variant>

#include "core/cancel.h"
#include "core/quantizer.h"
#include "core/query_parser.h"
#include "core/query_service.h"
#include "net/client.h"
#include "util/stopwatch.h"

namespace mmdb {
namespace {

int Usage() {
  std::cerr
      << "usage: mmdb_query [options] EXPRESSION\n"
         "  --host ADDR       server address (default 127.0.0.1)\n"
         "  --port N          server port (default 7117)\n"
         "  --method NAME     instantiate | rbm | bwm | bwm-indexed |\n"
         "                    parallel-rbm | planned (default bwm)\n"
         "  --deadline-ms N   per-query wire deadline (default none)\n"
         "  --repeat N        send the query N times (default 1)\n"
         "  --explain         print the server's query plan, don't run\n"
         "  --quiet           print counts and timing only, no ids\n"
         "\n"
         "EXPRESSION is a color predicate conjunction or a top-k\n"
         "similarity request, e.g.\n"
         "  \"color('#0038a8') >= 0.25 and color('#ffffff') <= 0.1\"\n"
         "  \"nearest(blue, 10)\"\n";
  return 2;
}

int Run(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 7117;
  std::string method_name = "bwm";
  int64_t deadline_ms = 0;
  int repeat = 1;
  bool explain = false;
  bool quiet = false;
  std::string expression;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* value = nullptr;
    if (arg == "--host" && (value = next())) {
      host = value;
    } else if (arg == "--port" && (value = next())) {
      port = std::atoi(value);
    } else if (arg == "--method" && (value = next())) {
      method_name = value;
    } else if (arg == "--deadline-ms" && (value = next())) {
      deadline_ms = std::atoll(value);
    } else if (arg == "--repeat" && (value = next())) {
      repeat = std::atoi(value);
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (!arg.empty() && arg[0] != '-' && expression.empty()) {
      expression = arg;
    } else {
      return Usage();
    }
  }
  if (expression.empty()) return Usage();

  QueryMethod method = QueryMethod::kBwm;
  bool method_found = false;
  for (QueryMethod m : kQueryMethods) {
    if (method_name == QueryMethodName(m)) {
      method = m;
      method_found = true;
      break;
    }
  }
  if (!method_found) {
    std::cerr << "mmdb_query: unknown method '" << method_name << "'\n";
    return Usage();
  }

  Result<net::Client> client = net::Client::Connect(host, port);
  if (!client.ok()) {
    std::cerr << "mmdb_query: connect to " << host << ":" << port
              << " failed: " << client.status().ToString() << "\n";
    return 1;
  }

  Result<net::ServerInfo> info = client->GetInfo();
  if (!info.ok()) {
    std::cerr << "mmdb_query: server info failed: "
              << info.status().ToString() << "\n";
    return 1;
  }
  const ColorQuantizer quantizer(info->quantizer_divisions,
                                 static_cast<ColorSpace>(info->color_space));
  if (!quiet) {
    std::cout << "server " << host << ":" << port << " (protocol v"
              << info->protocol_version << ", " << info->image_count
              << " images, " << quantizer.BinCount() << " bins, "
              << ColorSpaceName(quantizer.space()) << ")\n";
  }

  Result<ParsedQuery> parsed = ParseQueryExpression(expression, quantizer);
  if (!parsed.ok()) {
    std::cerr << "mmdb_query: " << parsed.status().ToString() << "\n";
    return 1;
  }
  const bool similarity = std::holds_alternative<SimilarityQuery>(*parsed);

  auto make_request = [&]() {
    QueryRequest request =
        similarity
            ? QueryRequest::Similarity(std::get<SimilarityQuery>(*parsed))
            : QueryRequest::Conjunctive(std::get<ConjunctiveQuery>(*parsed),
                                        method);
    if (deadline_ms > 0) {
      request.deadline =
          Deadline::After(static_cast<double>(deadline_ms) / 1000.0);
    }
    return request;
  };

  if (explain) {
    Result<std::string> plan = client->Explain(make_request());
    if (!plan.ok()) {
      std::cerr << "mmdb_query: " << plan.status().ToString() << "\n";
      return 1;
    }
    std::cout << *plan;
    if (!plan->empty() && plan->back() != '\n') std::cout << "\n";
    return 0;
  }

  for (int iteration = 0; iteration < repeat; ++iteration) {
    Stopwatch watch;
    net::Completeness completeness;
    Result<QueryResult> result =
        client->Execute(make_request(), &completeness);
    const double elapsed = watch.ElapsedSeconds();
    if (!result.ok()) {
      std::cerr << "mmdb_query: " << result.status().ToString() << "\n";
      return 1;
    }
    std::cout << result->ids.size() << " matches in " << elapsed * 1e3
              << " ms ("
              << (similarity ? "similarity" : QueryMethodName(method)) << ", "
              << result->stats.binary_images_checked
              << " histograms checked, " << result->stats.edited_images_bounded
              << " scripts bounded)\n";
    if (!completeness.complete) {
      // Sharded server degraded: the answer covers the surviving shards
      // only. Make partiality loud — a silent subset is the one thing
      // the protocol's failure envelope promises never to produce.
      std::cout << "PARTIAL RESULT: " << completeness.shard_errors.size()
                << " shard(s) failed\n";
      for (const net::WireShardError& error : completeness.shard_errors) {
        std::cout << "  shard " << error.shard << ": "
                  << error.ToStatus().ToString() << "\n";
      }
    }
    if (!quiet) {
      if (similarity) {
        for (const SimilarityMatch& match : result->matches) {
          char line[128];
          std::snprintf(line, sizeof(line), "  %llu  d=[%.6f, %.6f]%s",
                        static_cast<unsigned long long>(match.id),
                        match.distance_lo, match.distance_hi,
                        match.exact ? " exact" : "");
          std::cout << line << "\n";
        }
      } else {
        for (ObjectId id : result->ids) std::cout << "  " << id << "\n";
      }
    }
  }
  return 0;
}

}  // namespace
}  // namespace mmdb

int main(int argc, char** argv) { return mmdb::Run(argc, argv); }
