#include "test_util.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "core/bounds.h"

namespace mmdb::testing {

std::vector<Rgb> TestPalette() {
  return {colors::kRed,   colors::kGreen, colors::kBlue, colors::kYellow,
          colors::kWhite, colors::kBlack, colors::kGold, colors::kNavy};
}

Image RandomBlockImage(int32_t width, int32_t height, int palette_size,
                       Rng& rng) {
  const std::vector<Rgb> palette = TestPalette();
  const size_t n = std::min<size_t>(palette.size(),
                                    static_cast<size_t>(palette_size));
  Image image(width, height, palette[rng.Uniform(n)]);
  const int blocks = static_cast<int>(rng.UniformInt(2, 8));
  for (int b = 0; b < blocks; ++b) {
    const int32_t w = static_cast<int32_t>(rng.UniformInt(1, width));
    const int32_t h = static_cast<int32_t>(rng.UniformInt(1, height));
    const int32_t x = static_cast<int32_t>(rng.UniformInt(0, width - 1));
    const int32_t y = static_cast<int32_t>(rng.UniformInt(0, height - 1));
    image.Fill(Rect(x, y, x + w, y + h), palette[rng.Uniform(n)]);
  }
  return image;
}

EditScript RandomScript(
    ObjectId base_id, int32_t width, int32_t height, int op_count,
    const std::vector<datasets::MergeTarget>& merge_targets, Rng& rng) {
  EditScript script;
  script.base_id = base_id;
  const std::vector<Rgb> palette = TestPalette();
  int32_t cur_w = width, cur_h = height;
  Rect dr = Rect::Full(cur_w, cur_h);

  while (static_cast<int>(script.ops.size()) < op_count) {
    switch (rng.Uniform(8)) {
      case 0: {  // Define a random sub-rectangle (always non-empty).
        const int32_t w = static_cast<int32_t>(rng.UniformInt(1, cur_w));
        const int32_t h = static_cast<int32_t>(rng.UniformInt(1, cur_h));
        const int32_t x = static_cast<int32_t>(rng.UniformInt(0, cur_w - w));
        const int32_t y = static_cast<int32_t>(rng.UniformInt(0, cur_h - h));
        const DefineOp op{Rect(x, y, x + w, y + h)};
        dr = op.region;
        script.ops.emplace_back(op);
        break;
      }
      case 1: {  // Modify.
        ModifyOp op;
        op.old_color = palette[rng.Uniform(palette.size())];
        op.new_color = palette[rng.Uniform(palette.size())];
        script.ops.emplace_back(op);
        break;
      }
      case 2:  // Combine.
        script.ops.emplace_back(rng.Bernoulli(0.5)
                                    ? CombineOp::BoxBlur()
                                    : CombineOp::GaussianBlur());
        break;
      case 3: {  // Rigid-body Mutate (translation or arbitrary rotation).
        if (rng.Bernoulli(0.5)) {
          script.ops.emplace_back(MutateOp::Translation(
              static_cast<double>(rng.UniformInt(-cur_w / 3, cur_w / 3)),
              static_cast<double>(rng.UniformInt(-cur_h / 3, cur_h / 3))));
        } else {
          script.ops.emplace_back(MutateOp::Rotation(
              rng.UniformDouble(0.1, 3.0), (dr.x0 + dr.x1) / 2.0,
              (dr.y0 + dr.y1) / 2.0));
        }
        break;
      }
      case 4: {  // Whole-image scale, integer or fractional.
        if (cur_w > 200 || cur_h > 200 || cur_w < 8 || cur_h < 8) break;
        script.ops.emplace_back(DefineOp{Rect::Full(cur_w, cur_h)});
        static constexpr double kScales[] = {0.5, 0.75, 1.5, 2.0};
        const double sx = kScales[rng.Uniform(4)];
        const double sy = kScales[rng.Uniform(4)];
        script.ops.emplace_back(MutateOp::Scale(sx, sy));
        cur_w = static_cast<int32_t>(std::lround(cur_w * sx));
        cur_h = static_cast<int32_t>(std::lround(cur_h * sy));
        dr = Rect::Full(cur_w, cur_h);
        break;
      }
      case 5: {  // General affine stamp: shear about the DR.
        MutateOp op;
        const double shear = rng.UniformDouble(-0.5, 0.5);
        op.m = {1, shear, static_cast<double>(rng.UniformInt(-8, 8)),
                0, 1,     static_cast<double>(rng.UniformInt(-8, 8)),
                0, 0,     1};
        script.ops.emplace_back(op);
        break;
      }
      case 6: {  // Merge(NULL) crop.
        const Rect clipped = dr.Intersect(Rect::Full(cur_w, cur_h));
        if (clipped.Empty()) break;
        script.ops.emplace_back(MergeOp{});
        cur_w = clipped.Width();
        cur_h = clipped.Height();
        dr = Rect::Full(cur_w, cur_h);
        break;
      }
      default: {  // Merge into a target, when allowed.
        if (merge_targets.empty()) break;
        const datasets::MergeTarget& target =
            merge_targets[rng.Uniform(merge_targets.size())];
        MergeOp op;
        op.target = target.id;
        op.x = static_cast<int32_t>(rng.UniformInt(-8, target.width - 1));
        op.y = static_cast<int32_t>(rng.UniformInt(-8, target.height - 1));
        script.ops.emplace_back(op);
        cur_w = target.width;
        cur_h = target.height;
        dr = Rect::Full(cur_w, cur_h);
        break;
      }
    }
  }
  return script;
}

std::string BoundsRowMismatch(const MultimediaDatabase& db) {
  const AugmentedCollection& collection = db.collection();
  const std::vector<ObjectId>& ids = collection.edited_ids();
  const BoundsColumn& rows = collection.edited_bounds();
  if (rows.size() != ids.size()) {
    return std::to_string(rows.size()) + " rows for " +
           std::to_string(ids.size()) + " edited images";
  }
  const RuleEngine& engine = db.rule_engine();
  std::vector<BinIndex> bins(
      static_cast<size_t>(engine.quantizer().BinCount()));
  std::iota(bins.begin(), bins.end(), BinIndex{0});
  const auto bits = [](double value) { return std::bit_cast<uint64_t>(value); };
  for (size_t i = 0; i < ids.size(); ++i) {
    const std::string where =
        "image " + std::to_string(ids[i]) + " (row " + std::to_string(i) +
        "): ";
    const EditedImageInfo* info = collection.FindEdited(ids[i]);
    if (info->position != i) {
      return where + "position " + std::to_string(info->position);
    }
    const BinaryImageInfo* base = collection.FindBinary(info->script.base_id);
    const CollectionTargetResolver resolver(collection, engine);
    RuleState fresh;
    const Status folded =
        FoldRules(engine, info->script, bins, base->histogram.counts(),
                  base->width, base->height, &resolver, &fresh);
    if (!folded.ok()) return where + folded.ToString();
    const BoundsRow row = rows[i];
    if (row.bins != bins.size() || row.size != fresh.size ||
        row.ops != static_cast<int64_t>(info->script.ops.size())) {
      return where + "bins " + std::to_string(row.bins) + ", size " +
             std::to_string(row.size) + ", ops " + std::to_string(row.ops) +
             "; the fold's size is " + std::to_string(fresh.size);
    }
    for (size_t b = 0; b < bins.size(); ++b) {
      const FractionBounds stored = row.Fraction(b);
      const FractionBounds expected = ToFractionBounds(fresh, b);
      if (row.hb_min[b] != fresh.hb_min[b] ||
          row.hb_max[b] != fresh.hb_max[b] ||
          bits(stored.min_fraction) != bits(expected.min_fraction) ||
          bits(stored.max_fraction) != bits(expected.max_fraction)) {
        return where + "bin " + std::to_string(b) + " holds [" +
               std::to_string(row.hb_min[b]) + ", " +
               std::to_string(row.hb_max[b]) + "], the fold [" +
               std::to_string(fresh.hb_min[b]) + ", " +
               std::to_string(fresh.hb_max[b]) + "]";
      }
    }
  }
  return "";
}

std::string ScaleBracketMismatch(const RuleEngine& engine,
                                 int32_t max_extent) {
  for (const double scale : {2.0, 0.5, 1.5, 0.75, 1.0 / 3.0, 0.1, 2.7}) {
    for (int32_t extent = 1; extent <= max_extent; ++extent) {
      // Reference: count the destination cells each source cell feeds.
      const auto new_extent =
          static_cast<int32_t>(std::lround(extent * scale));
      int64_t want_min = 0;
      int64_t want_max = 0;
      if (new_extent > 0) {
        std::vector<int64_t> hits(static_cast<size_t>(extent), 0);
        for (int32_t x = 0; x < new_extent; ++x) {
          const auto source = static_cast<int32_t>(std::floor((x + 0.5) / scale));
          ++hits[static_cast<size_t>(std::clamp(source, 0, extent - 1))];
        }
        want_min = *std::min_element(hits.begin(), hits.end());
        want_max = *std::max_element(hits.begin(), hits.end());
      }
      for (const bool along_x : {true, false}) {
        RuleState state = RuleEngine::InitialState(
            {1}, along_x ? extent : 1, along_x ? 1 : extent);
        const MutateOp resize = along_x ? MutateOp::Scale(scale, 1.0)
                                        : MutateOp::Scale(1.0, scale);
        const Status applied = engine.ApplyRule(resize, {0}, nullptr, &state);
        if (!applied.ok() || state.hb_min[0] != want_min ||
            state.hb_max[0] != want_max ||
            (along_x ? state.width : state.height) != new_extent) {
          return "extent " + std::to_string(extent) + " scale " +
                 std::to_string(scale) + (along_x ? " along x" : " along y") +
                 ": got [" + std::to_string(state.hb_min[0]) + ", " +
                 std::to_string(state.hb_max[0]) + "], want [" +
                 std::to_string(want_min) + ", " + std::to_string(want_max) +
                 "] (" + applied.ToString() + ")";
        }
      }
    }
  }
  return "";
}

std::string TempPath(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string test = info == nullptr ? std::string("no_test")
                                     : std::string(info->test_suite_name()) +
                                           "." + info->name();
  // Parameterized suites and tests carry '/' in their names.
  std::replace(test.begin(), test.end(), '/', '_');
  return ::testing::TempDir() + "/" + test + "." + std::to_string(getpid()) +
         "." + name;
}

void RemoveStoreFiles(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".journal").c_str());
}

std::set<ObjectId> AsSet(const std::vector<ObjectId>& ids) {
  return {ids.begin(), ids.end()};
}

ScanAnswer AnswerOf(const QueryResult& result) {
  const QueryStats& s = result.stats;
  return {result.ids,           s.binary_images_checked,
          s.edited_images_bounded, s.edited_images_skipped,
          s.rules_applied,         s.images_instantiated,
          s.corrupt_images_skipped};
}

}  // namespace mmdb::testing
