#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <vector>

#include "index/histogram_index.h"
#include "test_util.h"
#include "util/random.h"

namespace mmdb {
namespace {

TEST(HistogramIndexTest, RejectsArityMismatch) {
  HistogramIndex index(64);
  const ColorHistogram wrong(8);
  EXPECT_EQ(index.Insert(1, wrong).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(index.Remove(1, wrong).code(), StatusCode::kInvalidArgument);
  RangeQuery query;
  query.bin = 999;
  EXPECT_EQ(index.RangeSearch(query).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(HistogramIndexTest, RangeSearchMatchesDirectEvaluation) {
  const ColorQuantizer quantizer(4);
  HistogramIndex index(quantizer.BinCount());
  Rng rng(7);
  std::vector<std::pair<ObjectId, ColorHistogram>> reference;
  for (int i = 0; i < 120; ++i) {
    const Image image = testing::RandomBlockImage(16, 16, 8, rng);
    const ColorHistogram hist = ExtractHistogram(image, quantizer);
    const ObjectId id = static_cast<ObjectId>(i + 1);
    ASSERT_TRUE(index.Insert(id, hist).ok());
    reference.emplace_back(id, hist);
  }
  ASSERT_EQ(index.Size(), reference.size());

  const std::vector<Rgb> palette = testing::TestPalette();
  for (int q = 0; q < 20; ++q) {
    RangeQuery query;
    query.bin = quantizer.BinOf(palette[rng.Uniform(palette.size())]);
    query.min_fraction = rng.UniformDouble(0.0, 0.6);
    query.max_fraction = query.min_fraction + rng.UniformDouble(0.05, 0.4);
    auto got = index.RangeSearch(query).value();
    std::vector<ObjectId> expected;
    for (const auto& [id, hist] : reference) {
      if (query.Satisfies(hist.Fraction(query.bin))) expected.push_back(id);
    }
    std::sort(got.begin(), got.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(got, expected) << query.ToString();
  }
}

/// Inserts and removes in a random interleaving, ids out of order, with
/// repeated histograms and a zero-total one, checking every step against
/// direct evaluation of each window.
class HistogramIndexChurn : public ::testing::TestWithParam<uint64_t> {
 protected:
  static constexpr int32_t kBins = 12;

  /// Small counts, so many images share a fraction and windows can end
  /// exactly on stored values.
  static ColorHistogram RandomHistogram(Rng& rng) {
    ColorHistogram hist(kBins);
    for (BinIndex bin = 0; bin < kBins; ++bin) {
      if (rng.Uniform(3) == 0) hist.Add(bin, rng.UniformInt(1, 4));
    }
    return hist;
  }

  /// The windows checked after each step: every stored fraction of one
  /// bin as a point window and as each endpoint, the extremes, and a few
  /// random ones.
  std::vector<RangeQuery> Windows(BinIndex bin, Rng& rng) const {
    std::vector<double> stored = {0.0, 1.0};
    for (const auto& [id, hist] : live_) stored.push_back(hist.Fraction(bin));
    std::vector<RangeQuery> windows = {
        {bin, 0.0, 0.0}, {bin, 1.0, 1.0}, {bin, 0.0, 1.0}};
    for (int i = 0; i < 6; ++i) {
      const double a = stored[rng.Uniform(stored.size())];
      const double b = stored[rng.Uniform(stored.size())];
      windows.push_back({bin, a, a});
      windows.push_back({bin, std::min(a, b), std::max(a, b)});
      const double lo = rng.UniformDouble(0.0, 1.0);
      windows.push_back({bin, lo, lo + rng.UniformDouble(0.0, 0.5)});
    }
    return windows;
  }

  void ExpectMatchesDirectEvaluation(Rng& rng) const {
    ASSERT_EQ(index_.Size(), live_.size());
    const BinIndex bin = static_cast<BinIndex>(rng.Uniform(kBins));
    for (const RangeQuery& query : Windows(bin, rng)) {
      std::vector<ObjectId> got = index_.RangeSearch(query).value();
      std::sort(got.begin(), got.end());
      std::vector<ObjectId> expected;
      for (const auto& [id, hist] : live_) {
        if (query.Satisfies(hist.Fraction(bin))) expected.push_back(id);
      }
      ASSERT_EQ(got, expected) << query.ToString();
    }
  }

  HistogramIndex index_{kBins};
  std::map<ObjectId, ColorHistogram> live_;
};

TEST_P(HistogramIndexChurn, InterleavedInsertRemoveMatchesDirectEvaluation) {
  Rng rng(GetParam());
  std::vector<ObjectId> fresh_ids(150);
  for (size_t i = 0; i < fresh_ids.size(); ++i) {
    fresh_ids[i] = static_cast<ObjectId>(i + 1);
  }
  for (size_t i = fresh_ids.size(); i > 1; --i) {
    std::swap(fresh_ids[i - 1], fresh_ids[rng.Uniform(i)]);
  }

  // Two identical histograms: removing one leaves the other.
  const ColorHistogram twin = RandomHistogram(rng);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(index_.Insert(fresh_ids.back(), twin).ok());
    live_.emplace(fresh_ids.back(), twin);
    fresh_ids.pop_back();
  }
  ASSERT_TRUE(index_.Remove(live_.begin()->first, twin).ok());
  live_.erase(live_.begin());
  ExpectMatchesDirectEvaluation(rng);

  while (!fresh_ids.empty()) {
    if (live_.empty() || rng.Uniform(3) != 0) {
      ColorHistogram hist = RandomHistogram(rng);
      const uint64_t kind = rng.Uniform(5);
      if (kind == 0) hist = ColorHistogram(kBins);  // Zero total.
      if (kind == 1 && !live_.empty()) {            // A repeat.
        hist = std::next(live_.begin(), static_cast<ptrdiff_t>(
                                            rng.Uniform(live_.size())))
                   ->second;
      }
      ASSERT_TRUE(index_.Insert(fresh_ids.back(), hist).ok());
      live_.emplace(fresh_ids.back(), hist);
      fresh_ids.pop_back();
    } else {
      const auto victim = std::next(
          live_.begin(), static_cast<ptrdiff_t>(rng.Uniform(live_.size())));
      ASSERT_TRUE(index_.Remove(victim->first, victim->second).ok());
      live_.erase(victim);
    }
    ExpectMatchesDirectEvaluation(rng);
  }

  // An absent entry, whether the id or only the histogram is wrong, is
  // NotFound and changes nothing.
  EXPECT_EQ(index_.Remove(9999, RandomHistogram(rng)).code(),
            StatusCode::kNotFound);
  const auto [some_id, some_hist] = *live_.begin();
  ColorHistogram other = some_hist;
  other.Add(static_cast<BinIndex>(rng.Uniform(kBins)), 1);
  EXPECT_EQ(index_.Remove(some_id, other).code(), StatusCode::kNotFound);
  ExpectMatchesDirectEvaluation(rng);

  // Removing everything leaves an empty index.
  while (!live_.empty()) {
    const auto victim = std::next(
        live_.begin(), static_cast<ptrdiff_t>(rng.Uniform(live_.size())));
    ASSERT_TRUE(index_.Remove(victim->first, victim->second).ok());
    live_.erase(victim);
  }
  EXPECT_EQ(index_.Size(), 0u);
  for (BinIndex bin = 0; bin < kBins; ++bin) {
    EXPECT_TRUE(index_.RangeSearch({bin, 0.0, 1.0}).value().empty());
  }
  EXPECT_EQ(index_.Remove(some_id, some_hist).code(), StatusCode::kNotFound);
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, HistogramIndexChurn,
                         ::testing::Range(uint64_t{1}, uint64_t{7}));
}  // namespace
}  // namespace mmdb
