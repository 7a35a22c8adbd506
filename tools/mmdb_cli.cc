// mmdb_cli — command-line front end for the augmented multimedia
// database. Enough to exercise the whole system from a shell:
//
//   mmdb_cli photos.mmdb init
//   mmdb_cli photos.mmdb import sunset.ppm           -> #2
//   mmdb_cli photos.mmdb augment 2                   -> standard variants
//   mmdb_cli photos.mmdb script 2 "modify:#cc0000:#6e2639;blur"
//   mmdb_cli photos.mmdb query "#0038a8" 0.25 1.0 --method=bwm
//   mmdb_cli photos.mmdb get 7 out.ppm
//   mmdb_cli photos.mmdb describe 7
//   mmdb_cli photos.mmdb delete 7
//   mmdb_cli photos.mmdb stats

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "core/database.h"
#include "core/query_parser.h"
#include "editops/dsl.h"
#include "editops/delta.h"
#include "datasets/recipes.h"
#include "editops/optimize.h"
#include "image/ppm_io.h"
#include "util/table_printer.h"

namespace mmdb {
namespace {

int Usage() {
  std::cerr <<
      "usage: mmdb_cli <db_path> <command> [args]\n"
      "commands:\n"
      "  init                         create an empty database\n"
      "  import <file.ppm>            store a binary image\n"
      "  augment <base_id>            store the standard augmentation "
      "recipes for an image\n"
      "  script <base_id> <spec>      store an edited image from a spec:\n"
      "                               ops separated by ';', each one of\n"
      "                               modify:#old:#new | blur | gauss |\n"
      "                               combine:w1..w9 | define:x0,y0,x1,y1\n"
      "                               | crop | scale:s[,sy] |\n"
      "                               translate:dx,dy | rotate:deg[,cx,cy]\n"
      "                               | matrix:m11..m33 | merge:target,x,y\n"
      "  query <#rrggbb|bin> <min> <max> "
      "[--method=rbm|bwm|bwmx|prbm|inst|planned]\n"
      "  queryx \"<expr>\"             query expression, e.g.\n"
      "                               \"color('#0038a8') >= 25% and "
      "color('#ffffff') <= 10%\"\n"
      "                               or \"nearest(blue, 10)\" for top-k\n"
      "  get <id> <out.ppm>           export an image (instantiates "
      "edited ones)\n"
      "  describe <id>                print catalog info / script dump\n"
      "  delete <id>                  remove an image\n"
      "  import-delta <base> <f.ppm>  store an image as a delta script "
      "against a stored base\n"
      "  knn <file.ppm> <k>           similarity-search candidates for a "
      "query image\n"
      "  verify [--deep]              integrity scan\n"
      "  stats                        database statistics\n";
  return 2;
}

bool ParseColor(const std::string& text, Rgb* out) {
  if (text.size() != 7 || text[0] != '#') return false;
  char* end = nullptr;
  const long value = std::strtol(text.c_str() + 1, &end, 16);
  if (end == nullptr || *end != '\0') return false;
  *out = Rgb::FromPacked(static_cast<uint32_t>(value));
  return true;
}

int Fail(const Status& status) {
  std::cerr << "error: " << status.ToString() << "\n";
  return 1;
}

int CmdImport(MultimediaDatabase& db, const std::string& path) {
  Result<Image> image = ReadPpmFile(path);
  if (!image.ok()) return Fail(image.status());
  Result<ObjectId> id = db.InsertBinaryImage(*image);
  if (!id.ok()) return Fail(id.status());
  std::cout << "#" << *id << "\n";
  return db.Flush().ok() ? 0 : 1;
}

int CmdAugment(MultimediaDatabase& db, ObjectId base) {
  const BinaryImageInfo* info = db.collection().FindBinary(base);
  if (info == nullptr) {
    return Fail(Status::NotFound("binary image " + std::to_string(base)));
  }
  for (const auto& recipe : datasets::StandardAugmentations(
           base, info->width, info->height,
           datasets::DefaultDarkenPairs())) {
    Result<ObjectId> id = db.InsertEditedImage(recipe.script);
    if (!id.ok()) return Fail(id.status());
    std::cout << "#" << *id << "  " << recipe.name << "  ("
              << recipe.script.ops.size() << " ops)\n";
  }
  return db.Flush().ok() ? 0 : 1;
}

int CmdScript(MultimediaDatabase& db, ObjectId base,
              const std::string& spec) {
  Result<EditScript> script = ParseScriptDsl(base, spec);
  if (!script.ok()) return Fail(script.status());
  OptimizeStats optimize_stats;
  const EditScript optimized = OptimizeScript(*script, &optimize_stats);
  Result<ObjectId> id = db.InsertEditedImage(optimized);
  if (!id.ok()) return Fail(id.status());
  std::cout << "#" << *id << "  (" << optimized.ops.size() << " ops";
  if (optimize_stats.removed_ops > 0) {
    std::cout << ", " << optimize_stats.removed_ops << " optimized away";
  }
  std::cout << ", "
            << (RuleEngine::IsAllBoundWidening(optimized)
                    ? "bound-widening"
                    : "unclassified")
            << ")\n";
  return db.Flush().ok() ? 0 : 1;
}

int CmdQuery(MultimediaDatabase& db, const std::vector<std::string>& args) {
  if (args.size() < 3) return Usage();
  RangeQuery query;
  Rgb color;
  if (ParseColor(args[0], &color)) {
    query.bin = db.BinOf(color);
  } else {
    query.bin = std::atoi(args[0].c_str());
  }
  query.min_fraction = std::atof(args[1].c_str());
  query.max_fraction = std::atof(args[2].c_str());
  QueryMethod method = QueryMethod::kBwm;
  for (size_t i = 3; i < args.size(); ++i) {
    if (args[i] == "--method=rbm") {
      method = QueryMethod::kRbm;
    } else if (args[i] == "--method=bwm") {
      method = QueryMethod::kBwm;
    } else if (args[i] == "--method=bwmx") {
      method = QueryMethod::kBwmIndexed;
    } else if (args[i] == "--method=prbm") {
      method = QueryMethod::kParallelRbm;
    } else if (args[i] == "--method=inst") {
      method = QueryMethod::kInstantiate;
    } else if (args[i] == "--method=planned") {
      method = QueryMethod::kPlanned;
    } else {
      std::cerr << "error: unknown option '" << args[i]
                << "' (expected --method=rbm|bwm|bwmx|prbm|inst|planned)\n";
      return 1;
    }
  }
  Result<QueryResult> result = db.RunRange(query, method);
  if (!result.ok()) return Fail(result.status());
  std::cout << result->ids.size() << " matches:";
  for (ObjectId id : result->ids) std::cout << " #" << id;
  std::cout << "\n(rules applied: " << result->stats.rules_applied
            << ", skipped via Main clusters: "
            << result->stats.edited_images_skipped
            << ", instantiated: " << result->stats.images_instantiated
            << ")\n";
  return 0;
}

int CmdQueryExpression(MultimediaDatabase& db, const std::string& text) {
  Result<ParsedQuery> parsed = ParseQueryExpression(text, db.quantizer());
  if (!parsed.ok()) return Fail(parsed.status());
  if (const auto* nearest = std::get_if<SimilarityQuery>(&*parsed)) {
    Result<QueryResult> result = db.RunSimilarity(*nearest);
    if (!result.ok()) return Fail(result.status());
    std::cout << result->matches.size()
              << " candidates (provably contain the true " << nearest->k
              << " nearest):\n";
    for (const SimilarityMatch& match : result->matches) {
      std::cout << "  #" << match.id << "  d=[" << match.distance_lo << ", "
                << match.distance_hi << "]" << (match.exact ? "  exact" : "")
                << "\n";
    }
    return 0;
  }
  const ConjunctiveQuery& query = std::get<ConjunctiveQuery>(*parsed);
  Result<QueryResult> result = db.RunConjunctive(query, QueryMethod::kBwm);
  if (!result.ok()) return Fail(result.status());
  std::cout << result->ids.size() << " matches:";
  for (ObjectId id : result->ids) std::cout << " #" << id;
  std::cout << "\n(rules applied: " << result->stats.rules_applied
            << ", skipped via Main clusters: "
            << result->stats.edited_images_skipped << ")\n";
  return 0;
}

int CmdGet(MultimediaDatabase& db, ObjectId id, const std::string& path) {
  Result<Image> image = db.GetImage(id);
  if (!image.ok()) return Fail(image.status());
  const Status written = WritePpmFile(*image, path);
  if (!written.ok()) return Fail(written);
  std::cout << "wrote " << path << " (" << image->width() << "x"
            << image->height() << ")\n";
  return 0;
}

int CmdDescribe(MultimediaDatabase& db, ObjectId id) {
  if (const BinaryImageInfo* binary = db.collection().FindBinary(id)) {
    std::cout << "#" << id << "  binary  " << binary->width << "x"
              << binary->height << "\n";
    const auto& hist = binary->histogram;
    for (BinIndex bin = 0; bin < hist.BinCount(); ++bin) {
      if (hist.Fraction(bin) >= 0.05) {
        std::cout << "  " << db.quantizer().DescribeBin(bin) << "  "
                  << TablePrinter::Cell(hist.Fraction(bin) * 100, 1)
                  << "%\n";
      }
    }
    std::vector<ObjectId> derived;
    for (ObjectId e : db.collection().edited_ids()) {
      if (db.collection().FindEdited(e)->script.base_id == id) {
        derived.push_back(e);
      }
    }
    if (!derived.empty()) {
      std::cout << "  derived edited images:";
      for (ObjectId e : derived) std::cout << " #" << e;
      std::cout << "\n";
    }
    return 0;
  }
  if (const EditedImageInfo* edited = db.collection().FindEdited(id)) {
    std::cout << "#" << id << "  edited  base=#" << edited->script.base_id
              << "  "
              << (RuleEngine::IsAllBoundWidening(edited->script)
                      ? "bound-widening (Main component)"
                      : "unclassified")
              << "\n";
    for (const EditOp& op : edited->script.ops) {
      std::cout << "  " << EditOpToString(op) << "\n";
    }
    std::cout << "  dsl: " << FormatScriptDsl(edited->script) << "\n";
    return 0;
  }
  return Fail(Status::NotFound("image " + std::to_string(id)));
}

int CmdDelete(MultimediaDatabase& db, ObjectId id) {
  const Status deleted = db.DeleteImage(id);
  if (!deleted.ok()) return Fail(deleted);
  std::cout << "deleted #" << id << "\n";
  return db.Flush().ok() ? 0 : 1;
}

int CmdImportDelta(MultimediaDatabase& db, ObjectId base,
                   const std::string& path) {
  const BinaryImageInfo* info = db.collection().FindBinary(base);
  if (info == nullptr) {
    return Fail(Status::NotFound("binary image " + std::to_string(base)));
  }
  Result<Image> target = ReadPpmFile(path);
  if (!target.ok()) return Fail(target.status());
  Result<Image> base_image = db.GetImage(base);
  if (!base_image.ok()) return Fail(base_image.status());
  Result<EditScript> script = MakeDeltaScript(base, *base_image, *target);
  if (!script.ok()) return Fail(script.status());
  Result<ObjectId> id = db.InsertEditedImage(*script);
  if (!id.ok()) return Fail(id.status());
  const size_t raster_bytes = EncodePpm(*target, PpmFormat::kBinary).size();
  std::cout << "#" << *id << "  delta of #" << base << "  ("
            << script->ops.size() << " ops vs " << raster_bytes
            << " raster bytes)\n";
  return db.Flush().ok() ? 0 : 1;
}

int CmdKnn(MultimediaDatabase& db, const std::string& path, uint64_t k) {
  if (k > std::numeric_limits<uint32_t>::max()) {
    return Fail(Status::InvalidArgument("knn k " + std::to_string(k) +
                                        " is too large"));
  }
  Result<Image> query_image = ReadPpmFile(path);
  if (!query_image.ok()) return Fail(query_image.status());
  SimilarityQuery query;
  query.histogram = ExtractHistogram(*query_image, db.quantizer());
  query.k = static_cast<uint32_t>(k);
  const Result<QueryResult> result = db.RunSimilarity(query);
  if (!result.ok()) return Fail(result.status());
  const std::vector<SimilarityMatch>& matches = result->matches;
  std::cout << matches.size() << " candidates (true top-" << k
            << " guaranteed inside):\n";
  for (size_t i = 0; i < matches.size() && i < k + 5; ++i) {
    const SimilarityMatch& match = matches[i];
    std::cout << "  #" << match.id << "  L1 in ["
              << TablePrinter::Cell(match.distance_lo, 4) << ", "
              << TablePrinter::Cell(match.distance_hi, 4) << "]"
              << (match.exact ? "  (exact)" : "") << "\n";
  }
  return 0;
}

int CmdVerify(MultimediaDatabase& db, bool deep) {
  const auto report = db.VerifyIntegrity(deep);
  if (!report.ok()) return Fail(report.status());
  std::cout << "OK: " << report->binary_images_checked << " binary + "
            << report->edited_images_checked << " edited images verified ("
            << report->rasters_verified << " rasters, "
            << report->scripts_verified << " scripts"
            << (deep ? ", deep pixel check" : "") << ")\n";
  return 0;
}

int CmdStats(MultimediaDatabase& db) {
  TablePrinter table({"statistic", "value"});
  table.AddRow({"binary images",
                TablePrinter::Cell(db.collection().BinaryCount())});
  table.AddRow({"edited images (edit sequences)",
                TablePrinter::Cell(db.collection().EditedCount())});
  table.AddRow({"BWM Main component members",
                TablePrinter::Cell(db.collection().MainEditedCount())});
  table.AddRow({"BWM Unclassified members",
                TablePrinter::Cell(db.collection().unclassified().size())});
  table.AddRow({"quantizer",
                std::string(ColorSpaceName(db.quantizer().space())) + " " +
                    std::to_string(db.quantizer().divisions()) + "^3 = " +
                    std::to_string(db.quantizer().BinCount()) + " bins"});
  table.AddRow({"stored objects",
                TablePrinter::Cell(db.object_store().Count())});
  table.Print(std::cout);
  return 0;
}

int Run(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string db_path = argv[1];
  const std::string command = argv[2];
  std::vector<std::string> args;
  for (int i = 3; i < argc; ++i) args.emplace_back(argv[i]);

  DatabaseOptions options;
  options.path = db_path;
  Result<std::unique_ptr<MultimediaDatabase>> db =
      MultimediaDatabase::Open(options);
  if (!db.ok()) return Fail(db.status());

  if (command == "init") {
    const Status flushed = (*db)->Flush();
    if (!flushed.ok()) return Fail(flushed);
    std::cout << "initialized " << db_path << "\n";
    return 0;
  }
  if (command == "import" && args.size() == 1) {
    return CmdImport(**db, args[0]);
  }
  if (command == "augment" && args.size() == 1) {
    return CmdAugment(**db, std::strtoull(args[0].c_str(), nullptr, 10));
  }
  if (command == "script" && args.size() == 2) {
    return CmdScript(**db, std::strtoull(args[0].c_str(), nullptr, 10),
                     args[1]);
  }
  if (command == "query") return CmdQuery(**db, args);
  if (command == "queryx" && args.size() == 1) {
    return CmdQueryExpression(**db, args[0]);
  }
  if (command == "get" && args.size() == 2) {
    return CmdGet(**db, std::strtoull(args[0].c_str(), nullptr, 10),
                  args[1]);
  }
  if (command == "describe" && args.size() == 1) {
    return CmdDescribe(**db, std::strtoull(args[0].c_str(), nullptr, 10));
  }
  if (command == "delete" && args.size() == 1) {
    return CmdDelete(**db, std::strtoull(args[0].c_str(), nullptr, 10));
  }
  if (command == "import-delta" && args.size() == 2) {
    return CmdImportDelta(**db, std::strtoull(args[0].c_str(), nullptr, 10),
                          args[1]);
  }
  if (command == "knn" && args.size() == 2) {
    return CmdKnn(**db, args[0],
                  std::strtoull(args[1].c_str(), nullptr, 10));
  }
  if (command == "verify") {
    return CmdVerify(**db, !args.empty() && args[0] == "--deep");
  }
  if (command == "stats") return CmdStats(**db);
  return Usage();
}

}  // namespace
}  // namespace mmdb

int main(int argc, char** argv) { return mmdb::Run(argc, argv); }
