// Microbenchmarks (google-benchmark) for the building blocks: rule
// application per operation type, the BOUNDS fold, top-k over stored
// bounds rows, histogram extraction, instantiation, PPM codec, and blob
// store.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "core/bounds.h"
#include "core/database.h"
#include "core/histogram.h"
#include "core/rules.h"
#include "datasets/augment.h"
#include "datasets/generators.h"
#include "image/editor.h"
#include "image/ppm_io.h"
#include "storage/object_store.h"
#include "util/random.h"

namespace mmdb {
namespace {

Image BenchImage(int32_t side = 96) {
  Rng rng(1);
  return datasets::MakeHelmetImages(1, rng, side)[0].image;
}

void BM_HistogramExtraction(benchmark::State& state) {
  const Image image = BenchImage(static_cast<int32_t>(state.range(0)));
  const ColorQuantizer quantizer(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExtractHistogram(image, quantizer));
  }
  state.SetItemsProcessed(state.iterations() * image.PixelCount());
}
BENCHMARK(BM_HistogramExtraction)->Arg(32)->Arg(96)->Arg(256);

void BM_RuleApplication(benchmark::State& state) {
  const ColorQuantizer quantizer(4);
  const RuleEngine engine(quantizer);
  const EditOp ops[] = {
      EditOp(DefineOp{Rect(2, 2, 60, 60)}),
      EditOp(ModifyOp{colors::kRed, colors::kBlue}),
      EditOp(CombineOp::BoxBlur()),
      EditOp(MutateOp::Translation(5, 5)),
      EditOp(MergeOp{}),
  };
  const EditOp& op = ops[state.range(0)];
  const std::vector<BinIndex> bins = {0};
  const RuleState initial = RuleEngine::InitialState({1000}, 96, 96);
  RuleState rule_state = initial;
  for (auto _ : state) {
    rule_state = initial;  // Same sizes: reuses the buffers.
    benchmark::DoNotOptimize(engine.ApplyRule(op, bins, nullptr, &rule_state));
  }
  state.SetLabel(EditOpToString(op).substr(0, 12));
}
BENCHMARK(BM_RuleApplication)->DenseRange(0, 4);

/// The fold over a script of range(0) operations for range(1) bins: 1 is
/// a range query, 3 a conjunction, 64 top-k. Items are rule applications
/// (operations x bins), as `rules_applied` counts them.
void BM_BoundsFoldVsScriptLength(benchmark::State& state) {
  const ColorQuantizer quantizer(4);
  const RuleEngine engine(quantizer);
  Rng rng(2);
  const EditScript script = datasets::MakeRandomScript(
      1, 96, 96, /*all_widening=*/true, static_cast<int>(state.range(0)),
      datasets::HelmetPalette(), {}, rng);
  const std::vector<int64_t> base_counts =
      ExtractHistogram(BenchImage(96), quantizer).counts();
  std::vector<BinIndex> bins(static_cast<size_t>(state.range(1)));
  std::iota(bins.begin(), bins.end(), BinIndex{0});
  RuleState fold_state;
  for (auto _ : state) {
    benchmark::DoNotOptimize(FoldRules(engine, script, bins, base_counts, 96,
                                       96, nullptr, &fold_state));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(script.ops.size()) *
                          state.range(1));
}
BENCHMARK(BM_BoundsFoldVsScriptLength)
    ->ArgNames({"ops", "bins"})
    ->ArgsProduct({{2, 8, 32}, {1, 3, 64}});

/// Facade top-k (k = 10) over a seeded augmented helmet corpus of 2000
/// images: each binary image's exact distance, and each edited image's
/// interval from its bounds row, folded when the corpus was built. Items
/// are images scored.
void BM_TopK(benchmark::State& state) {
  static const std::unique_ptr<MultimediaDatabase> db = [] {
    std::unique_ptr<MultimediaDatabase> opened =
        MultimediaDatabase::Open().value();
    datasets::DatasetSpec spec;
    spec.kind = datasets::DatasetKind::kHelmets;
    spec.total_images = 2000;
    spec.seed = 7;
    if (!datasets::BuildAugmentedDatabase(opened.get(), spec).ok()) {
      std::abort();
    }
    return opened;
  }();
  SimilarityQuery query;
  query.histogram = ExtractHistogram(BenchImage(96), db->quantizer());
  query.k = 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->RunSimilarity(query));
  }
  const size_t images =
      db->collection().BinaryCount() + db->collection().EditedCount();
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(images));
  state.SetLabel(std::to_string(images) + " images");
}
BENCHMARK(BM_TopK)->Unit(benchmark::kMillisecond);

void BM_Instantiation(benchmark::State& state) {
  const Image base = BenchImage(96);
  Rng rng(3);
  const EditScript script = datasets::MakeRandomScript(
      1, 96, 96, /*all_widening=*/true, static_cast<int>(state.range(0)),
      datasets::HelmetPalette(), {}, rng);
  const Editor editor;
  for (auto _ : state) {
    benchmark::DoNotOptimize(editor.Instantiate(base, script));
  }
}
BENCHMARK(BM_Instantiation)->Arg(2)->Arg(8);

void BM_PpmEncodeDecode(benchmark::State& state) {
  const Image image = BenchImage(96);
  for (auto _ : state) {
    const std::string encoded = EncodePpm(image, PpmFormat::kBinary);
    benchmark::DoNotOptimize(DecodePpm(encoded));
  }
  state.SetBytesProcessed(state.iterations() * image.PixelCount() * 3);
}
BENCHMARK(BM_PpmEncodeDecode);

void BM_MemoryStorePutGet(benchmark::State& state) {
  const std::string value(static_cast<size_t>(state.range(0)), 'x');
  uint64_t key = 1;
  MemoryObjectStore store;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Put(key, value));
    benchmark::DoNotOptimize(store.Get(key));
    ++key;
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MemoryStorePutGet)->Arg(128)->Arg(16384);

}  // namespace
}  // namespace mmdb

// Like BENCHMARK_MAIN(), but defaults --benchmark_out to the repo's
// machine-readable report convention (BENCH_micro.json, google-benchmark's
// own JSON schema). Explicit --benchmark_out/--benchmark_out_format flags
// still win because they are parsed after the injected defaults.
int main(int argc, char** argv) {
  std::vector<char*> args;
  args.push_back(argv[0]);
  std::string out_flag = "--benchmark_out=BENCH_micro.json";
  std::string format_flag = "--benchmark_out_format=json";
  args.push_back(out_flag.data());
  args.push_back(format_flag.data());
  for (int i = 1; i < argc; ++i) args.push_back(argv[i]);
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::cout << "machine-readable report: BENCH_micro.json\n";
  return 0;
}
