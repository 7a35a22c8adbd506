// Reproduces paper Table 1: the rules for adjusting the bounds on the
// number of pixels in a histogram bin HB, one row per editing-operation
// condition. For each rule the harness prints the bound adjustment on a
// worked example and validates it against actual instantiation.

#include <iostream>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/bounds.h"
#include "core/histogram.h"
#include "core/rules.h"
#include "image/editor.h"
#include "util/table_printer.h"

namespace mmdb {
namespace {

struct WorkedRow {
  std::string operation;
  std::string condition;
  EditScript script;
};

/// Resolves the non-null Merge row's one stored target to its exact
/// counts.
class StoredTarget final : public MergeTargetResolver {
 public:
  StoredTarget(ObjectId id, const Image& image, const ColorHistogram& hist)
      : id_(id), image_(image), hist_(hist) {}

  Result<const RuleState*> Resolve(
      ObjectId id, const std::vector<BinIndex>& bins) const override {
    if (id != id_) return Status::NotFound("target");
    std::vector<int64_t> counts;
    for (BinIndex bin : bins) counts.push_back(hist_.Count(bin));
    state_ = RuleEngine::InitialState(counts, image_.width(), image_.height());
    state_.size = hist_.Total();
    return &state_;
  }

 private:
  ObjectId id_;
  const Image& image_;
  const ColorHistogram& hist_;
  mutable RuleState state_;
};

int Run() {
  const ColorQuantizer quantizer(4);
  const RuleEngine engine(quantizer);

  // Worked example: a 10x10 base image, 40 red pixels (4x10 left band),
  // 60 white. Queried bin HB = bin(red). DR = left half (5x10 = 50 px).
  Image base(10, 10, colors::kWhite);
  base.Fill(Rect(0, 0, 4, 10), colors::kRed);
  const BinIndex hb = quantizer.BinOf(colors::kRed);
  const ColorHistogram base_hist = ExtractHistogram(base, quantizer);
  const DefineOp define_left{Rect(0, 0, 5, 10)};

  // Stored target for the non-null Merge row: a 12x12 image, 30% red.
  Image target_image(12, 12, colors::kWhite);
  target_image.Fill(Rect(0, 0, 12, 4), colors::kRed);
  constexpr ObjectId kTargetId = 500;
  const ColorHistogram target_hist =
      ExtractHistogram(target_image, quantizer);
  const StoredTarget resolver(kTargetId, target_image, target_hist);
  const ImageResolver pixels = [&](ObjectId id) -> Result<Image> {
    if (id != kTargetId) return Status::NotFound("target");
    return target_image;
  };

  auto make = [&](std::string op, std::string condition,
                  std::vector<EditOp> ops) {
    WorkedRow row;
    row.operation = std::move(op);
    row.condition = std::move(condition);
    row.script.base_id = 1;
    row.script.ops = std::move(ops);
    return row;
  };

  MergeOp merge_target;
  merge_target.target = kTargetId;
  merge_target.x = 2;
  merge_target.y = 2;

  const std::vector<WorkedRow> rows = {
      make("Combine(C1..C9)", "All",
           {define_left, CombineOp::BoxBlur()}),
      make("Modify(old,new)", "RGBnew maps to HB",
           {define_left, ModifyOp{colors::kWhite, colors::kRed}}),
      make("Modify(old,new)", "RGBold maps to HB",
           {define_left, ModifyOp{colors::kRed, colors::kWhite}}),
      make("Modify(old,new)", "Neither maps to HB",
           {define_left, ModifyOp{colors::kBlue, colors::kGreen}}),
      make("Mutate(M11..M33)", "DR contains image (scale 2x2)",
           {MutateOp::Scale(2.0, 2.0)}),
      make("Mutate(M11..M33)", "Rigid body (translate +3,+3)",
           {define_left, MutateOp::Translation(3, 3)}),
      make("Merge(target,x,y)", "Target is NULL",
           {define_left, MergeOp{}}),
      make("Merge(target,x,y)", "Target is not NULL",
           {define_left, merge_target}),
  };

  std::cout
      << "=== Table 1: Rules for adjusting bounds on numbers of pixels in "
         "histogram bin HB ===\n"
         "Worked example: 10x10 base, 40 px in HB (red), DR = left half "
         "(50 px), initial bounds [40, 40], size 100.\n\n";

  TablePrinter table({"Editing Operation", "Condition", "HBmin", "HBmax",
                      "Total px", "exact (instantiated)", "sound?"});
  bench::JsonWriter json;
  json.BeginObject();
  json.Key("bench").String("table1_rules");
  json.Key("workload").BeginObject();
  json.Key("base_width").Int(10);
  json.Key("base_height").Int(10);
  json.Key("initial_hb_count").Int(base_hist.Count(hb));
  json.Key("rows").Int(static_cast<int64_t>(rows.size()));
  json.EndObject();
  json.Key("rows").BeginArray();
  const Editor editor(pixels);
  bool all_sound = true;
  for (const WorkedRow& row : rows) {
    RuleState state;
    const Status folded =
        FoldRules(engine, row.script, {hb}, base_hist.counts(), base.width(),
                  base.height(), &resolver, &state);
    if (!folded.ok()) {
      std::cerr << "rule failed: " << folded.ToString() << "\n";
      return 1;
    }
    const auto instantiated = editor.Instantiate(base, row.script);
    if (!instantiated.ok()) {
      std::cerr << "instantiation failed: "
                << instantiated.status().ToString() << "\n";
      return 1;
    }
    const int64_t exact =
        ExtractHistogram(*instantiated, quantizer).Count(hb);
    const bool sound = state.hb_min[0] <= exact && exact <= state.hb_max[0] &&
                       state.size == instantiated->PixelCount();
    all_sound = all_sound && sound;
    table.AddRow({row.operation, row.condition,
                  TablePrinter::Cell(state.hb_min[0]),
                  TablePrinter::Cell(state.hb_max[0]),
                  TablePrinter::Cell(state.size),
                  TablePrinter::Cell(exact), sound ? "yes" : "NO"});
    json.BeginObject();
    json.Key("operation").String(row.operation);
    json.Key("condition").String(row.condition);
    json.Key("hb_min").Int(state.hb_min[0]);
    json.Key("hb_max").Int(state.hb_max[0]);
    json.Key("total_pixels").Int(state.size);
    json.Key("exact_instantiated").Int(exact);
    json.Key("sound").Bool(sound);
    json.EndObject();
  }
  table.Print(std::cout);
  json.EndArray();
  json.Key("all_sound").Bool(all_sound);
  json.Key("registry").Raw(bench::RegistryJson());
  json.EndObject();
  if (!bench::WriteBenchReport("table1_rules", json.Take())) return 1;
  std::cout << "\nBound-widening classification (Section 4): Define, "
               "Combine, Modify, Mutate, Merge(NULL) -> widening; "
               "Merge(target) -> not widening.\n"
            << (all_sound ? "All rules sound against instantiation.\n"
                          : "SOUNDNESS VIOLATION DETECTED\n");
  return all_sound ? 0 : 1;
}

}  // namespace
}  // namespace mmdb

int main() { return mmdb::Run(); }
