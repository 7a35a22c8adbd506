// The query planner: selectivity estimation from corpus statistics,
// most-selective-first conjunct ordering, the scan choice (kBwm when the
// Main component holds edited images, else kRbm), and the kPlanned
// access path, which runs the reordered conjunction through that one
// scan and so returns the same result sets as the unplanned processors.

#include "core/plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/query_service.h"
#include "datasets/augment.h"
#include "test_util.h"

namespace mmdb {
namespace {

/// 2 solid-red images in a sea of 118 solid-blue: a red predicate is
/// ~1.7% selective, a blue one ~98%.
std::unique_ptr<MultimediaDatabase> MakeSkewedBinaryDataset() {
  auto db = MultimediaDatabase::Open().value();
  for (int i = 0; i < 118; ++i) {
    EXPECT_TRUE(db->InsertBinaryImage(Image(8, 8, colors::kBlue)).ok());
  }
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(db->InsertBinaryImage(Image(8, 8, colors::kRed)).ok());
  }
  return db;
}

std::unique_ptr<MultimediaDatabase> MakeAugmentedDataset(int total_images,
                                                         uint64_t seed) {
  auto db = MultimediaDatabase::Open().value();
  datasets::DatasetSpec spec;
  spec.total_images = total_images;
  spec.edited_fraction = 0.7;
  spec.seed = seed;
  EXPECT_TRUE(datasets::BuildAugmentedDatabase(db.get(), spec).ok());
  return db;
}

RangeQuery AtLeast(BinIndex bin, double min_fraction) {
  RangeQuery query;
  query.bin = bin;
  query.min_fraction = min_fraction;
  query.max_fraction = 1.0;
  return query;
}

std::vector<ObjectId> Sorted(std::vector<ObjectId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(CorpusStatsTest, SelectivityMatchesKnownOccupancy) {
  auto db = MakeSkewedBinaryDataset();
  const CorpusStats stats = CorpusStats::Collect(*db);
  EXPECT_EQ(stats.binary_count(), 120);
  EXPECT_EQ(stats.edited_count(), 0);

  const double red = stats.Selectivity(AtLeast(db->BinOf(colors::kRed), 0.5));
  EXPECT_NEAR(red, 2.0 / 120.0, 1e-9);

  const double blue =
      stats.Selectivity(AtLeast(db->BinOf(colors::kBlue), 0.5));
  EXPECT_NEAR(blue, 118.0 / 120.0, 1e-9);

  // A full-range predicate matches everything.
  EXPECT_NEAR(stats.Selectivity(AtLeast(db->BinOf(colors::kRed), 0.0)),
              1.0, 1e-9);
}

TEST(QueryPlannerTest, GoldenMethodFollowsTheMainComponent) {
  auto db = MakeSkewedBinaryDataset();
  const QueryPlanner planner(*db);

  // The scan does not depend on selectivity: a ~1.7% and a ~98%
  // selective predicate plan the same one. Without Main members kBwm
  // and kRbm do the same work, and the plan names kRbm.
  const QueryPlan selective =
      planner.PlanRange(AtLeast(db->BinOf(colors::kRed), 0.5));
  ASSERT_EQ(selective.steps.size(), 1u);
  EXPECT_EQ(selective.method, QueryMethod::kRbm);

  const QueryPlan broad =
      planner.PlanRange(AtLeast(db->BinOf(colors::kBlue), 0.5));
  ASSERT_EQ(broad.steps.size(), 1u);
  EXPECT_EQ(broad.method, QueryMethod::kRbm);

  // Main clusters make kBwm the scan: it accepts them without a rule
  // fold.
  auto edited_db = MakeAugmentedDataset(40, 3301);
  const QueryPlanner edited_planner(*edited_db);
  ASSERT_GT(edited_planner.stats().main_fraction(), 0.0);
  EXPECT_EQ(edited_planner.PlanRange(AtLeast(0, 0.5)).method,
            QueryMethod::kBwm);
}

TEST(QueryPlannerTest, ConjunctsAreOrderedMostSelectiveFirst) {
  auto db = MakeSkewedBinaryDataset();
  const QueryPlanner planner(*db);
  ConjunctiveQuery query;
  query.conjuncts.push_back(AtLeast(db->BinOf(colors::kBlue), 0.5));
  query.conjuncts.push_back(AtLeast(db->BinOf(colors::kRed), 0.5));
  const QueryPlan plan = planner.PlanConjunctive(query);
  ASSERT_EQ(plan.steps.size(), 2u);
  // The red predicate (2/120) is tested first, the blue one second.
  EXPECT_EQ(plan.steps[0].predicate.bin, db->BinOf(colors::kRed));
  EXPECT_EQ(plan.steps[1].predicate.bin, db->BinOf(colors::kBlue));
  EXPECT_LT(plan.steps[0].selectivity, plan.steps[1].selectivity);
  EXPECT_EQ(plan.method, QueryMethod::kRbm);
}

TEST(PlannedProcessorTest, PlannedResultsAreSetEqualToUnplanned) {
  auto db = MakeAugmentedDataset(60, 3303);
  Rng rng(3305);
  const auto windows = datasets::MakeGroundedRangeWorkload(
      db->collection(), db->quantizer(), datasets::FlagPalette(), 8, rng);
  ASSERT_GE(windows.size(), 3u);

  for (size_t i = 0; i + 2 < windows.size(); ++i) {
    ConjunctiveQuery query;
    query.conjuncts.push_back(windows[i]);
    query.conjuncts.push_back(windows[i + 1]);
    query.conjuncts.push_back(windows[i + 2]);
    const auto planned = db->RunConjunctive(query, QueryMethod::kPlanned);
    const auto rbm = db->RunConjunctive(query, QueryMethod::kRbm);
    const auto bwm = db->RunConjunctive(query, QueryMethod::kBwm);
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();
    ASSERT_TRUE(rbm.ok());
    ASSERT_TRUE(bwm.ok());
    // Same sets; order follows the plan's scan.
    EXPECT_EQ(Sorted(planned->ids), Sorted(rbm->ids)) << query.ToString();
    EXPECT_EQ(Sorted(planned->ids), Sorted(bwm->ids)) << query.ToString();
  }

  // Single-predicate requests run the plan's scan on the one predicate.
  for (const RangeQuery& window : windows) {
    const auto planned = db->RunRange(window, QueryMethod::kPlanned);
    const auto rbm = db->RunRange(window, QueryMethod::kRbm);
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();
    ASSERT_TRUE(rbm.ok());
    EXPECT_EQ(Sorted(planned->ids), Sorted(rbm->ids)) << window.ToString();
  }
}

/// A corpus shape the scan choice branches on.
struct SweepCorpus {
  const char* name;
  double edited_fraction;
  double widening_probability;
  QueryMethod method;  // The scan the plan must pick.
};

constexpr SweepCorpus kSweepCorpora[] = {
    // Main clusters next to Unclassified images.
    {"mixed", 0.7, 0.6, QueryMethod::kBwm},
    // Only non-widening scripts: the Main component is empty.
    {"non-widening", 0.7, 0.0, QueryMethod::kRbm},
    // No edited image at all.
    {"binary-only", 0.0, 0.0, QueryMethod::kRbm},
};

class PlannedScanEquivalence : public ::testing::TestWithParam<uint64_t> {};

// kPlanned is the plan's scan run on the plan's conjunct order: the same
// ids in the same order and all six counters. Its set is kRbm's on the
// query as written.
TEST_P(PlannedScanEquivalence, RunsThePlannedOrderThroughOneScan) {
  for (const SweepCorpus& corpus : kSweepCorpora) {
    SCOPED_TRACE(corpus.name);
    auto db = MultimediaDatabase::Open().value();
    datasets::DatasetSpec spec;
    spec.total_images = 60;
    spec.edited_fraction = corpus.edited_fraction;
    spec.widening_probability = corpus.widening_probability;
    spec.seed = GetParam();
    ASSERT_TRUE(datasets::BuildAugmentedDatabase(db.get(), spec).ok());
    const QueryPlanner planner(*db);

    Rng rng(GetParam() * 13 + 5);
    const auto windows = datasets::MakeGroundedRangeWorkload(
        db->collection(), db->quantizer(), datasets::FlagPalette(), 12, rng);
    ASSERT_FALSE(windows.empty());
    for (int round = 0; round < 16; ++round) {
      // Each conjunct is a grounded window or a uniform one.
      ConjunctiveQuery query;
      const int64_t conjuncts = rng.UniformInt(1, 3);
      for (int64_t i = 0; i < conjuncts; ++i) {
        if (rng.Bernoulli(0.5)) {
          query.conjuncts.push_back(windows[rng.Uniform(windows.size())]);
        } else {
          RangeQuery window;
          window.bin = static_cast<BinIndex>(
              rng.Uniform(static_cast<uint64_t>(db->quantizer().BinCount())));
          window.min_fraction = rng.UniformDouble(0.0, 0.5);
          window.max_fraction = rng.UniformDouble(window.min_fraction, 1.0);
          query.conjuncts.push_back(window);
        }
      }
      const QueryPlan plan = planner.PlanConjunctive(query);
      EXPECT_EQ(plan.method, corpus.method);
      ConjunctiveQuery ordered;
      for (const PlannedPredicate& step : plan.steps) {
        ordered.conjuncts.push_back(step.predicate);
      }
      const auto scan = db->MakeProcessor(plan.method).value();
      const auto expected = scan->RunConjunctive(ordered, {}).value();
      const auto planned =
          db->RunConjunctive(query, QueryMethod::kPlanned).value();
      const auto rbm = db->RunConjunctive(query, QueryMethod::kRbm).value();
      EXPECT_EQ(testing::AnswerOf(planned), testing::AnswerOf(expected))
          << query.ToString();
      EXPECT_EQ(Sorted(planned.ids), Sorted(rbm.ids)) << query.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, PlannedScanEquivalence,
                         ::testing::Range(uint64_t{1}, uint64_t{6}));

TEST(PlannedProcessorTest, EmptyConjunctionIsRejected) {
  auto db = MakeAugmentedDataset(10, 3307);
  const auto result =
      db->RunConjunctive(ConjunctiveQuery{}, QueryMethod::kPlanned);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(PlannedProcessorTest, ServiceExecutesPlannedRequests) {
  auto db = MakeAugmentedDataset(40, 3309);
  QueryService service(db.get(), QueryServiceOptions{2, {}});
  Rng rng(3311);
  const auto windows = datasets::MakeGroundedRangeWorkload(
      db->collection(), db->quantizer(), datasets::FlagPalette(), 2, rng);
  ConjunctiveQuery query;
  query.conjuncts.push_back(windows[0]);
  query.conjuncts.push_back(windows[1 % windows.size()]);
  const auto result =
      service.Execute(QueryRequest::Conjunctive(query, QueryMethod::kPlanned));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto snapshot = service.Snapshot();
  EXPECT_EQ(snapshot.queries_per_method.at(QueryMethod::kPlanned), 1);
}

TEST(ExplainQueryTest, RendersConjunctsInEvaluationOrderAndMethodNote) {
  auto db = MakeSkewedBinaryDataset();
  const RangeQuery blue = AtLeast(db->BinOf(colors::kBlue), 0.5);
  const RangeQuery red = AtLeast(db->BinOf(colors::kRed), 0.5);
  ConjunctiveQuery query;
  query.conjuncts.push_back(blue);
  query.conjuncts.push_back(red);

  const auto planned = ExplainQuery(
      *db, QueryRequest::Conjunctive(query, QueryMethod::kPlanned));
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  EXPECT_NE(planned->find("query plan (2 predicates"), std::string::npos);
  EXPECT_NE(planned->find("% Main) · method rbm\n"), std::string::npos);
  // Each conjunct in evaluation order, with its selectivity: the rare
  // red predicate first.
  const size_t first = planned->find("  conjunct 1: " + red.ToString() +
                                     " · selectivity 0.0167\n");
  const size_t second = planned->find("  conjunct 2: " + blue.ToString() +
                                      " · selectivity 0.9833\n");
  EXPECT_NE(first, std::string::npos) << *planned;
  EXPECT_NE(second, std::string::npos) << *planned;
  EXPECT_LT(first, second);
  EXPECT_EQ(planned->find("cost"), std::string::npos);
  EXPECT_EQ(planned->find("note:"), std::string::npos);

  // A non-planned method gets the advisory note appended.
  const auto advisory = ExplainQuery(
      *db, QueryRequest::Conjunctive(query, QueryMethod::kBwm));
  ASSERT_TRUE(advisory.ok());
  EXPECT_NE(advisory->find("note: request method is 'bwm'"),
            std::string::npos);

  // Range requests plan as a single predicate.
  const auto range = ExplainQuery(
      *db, QueryRequest::Range(AtLeast(db->BinOf(colors::kRed), 0.5),
                               QueryMethod::kPlanned));
  ASSERT_TRUE(range.ok());
  EXPECT_NE(range->find("query plan (1 predicate"), std::string::npos);

  // Invalid payloads are rejected, not rendered.
  RangeQuery bad = AtLeast(10000, 0.5);
  EXPECT_FALSE(
      ExplainQuery(*db, QueryRequest::Range(bad, QueryMethod::kPlanned))
          .ok());
}

TEST(ExplainQueryTest, RendersSimilarityScanShape) {
  auto db = MakeAugmentedDataset(20, 3313);
  SimilarityQuery query;
  query.histogram = ColorHistogram(db->quantizer().BinCount());
  query.histogram.Add(db->BinOf(colors::kBlue), 1);
  query.k = 10;
  const auto plan = ExplainQuery(*db, QueryRequest::Similarity(query));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("similarity scan"), std::string::npos);
  EXPECT_NE(plan->find("nearest("), std::string::npos);
  EXPECT_NE(plan->find("no false negatives"), std::string::npos);

  SimilarityQuery bad = query;
  bad.histogram = ColorHistogram(db->quantizer().BinCount() + 3);
  EXPECT_FALSE(ExplainQuery(*db, QueryRequest::Similarity(bad)).ok());
}

TEST(ExplainQueryTest, RejectsWhatTheQueryPathRejects) {
  // Explain validates with the query path's own validator, so it never
  // renders a plan for a request the database would refuse to run.
  auto db = MakeAugmentedDataset(20, 3317);
  SimilarityQuery massless;
  massless.histogram = ColorHistogram(db->quantizer().BinCount());
  massless.k = 5;
  EXPECT_EQ(db->RunSimilarity(massless).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      ExplainQuery(*db, QueryRequest::Similarity(massless)).status().code(),
      StatusCode::kInvalidArgument);

  SimilarityQuery no_k = massless;
  no_k.histogram.Add(db->BinOf(colors::kBlue), 1);
  no_k.k = 0;
  EXPECT_EQ(db->RunSimilarity(no_k).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ExplainQuery(*db, QueryRequest::Similarity(no_k)).status().code(),
            StatusCode::kInvalidArgument);

  const RangeQuery out_of_range{db->quantizer().BinCount(), 0.0, 1.0};
  EXPECT_EQ(db->RunRange(out_of_range, QueryMethod::kBwm).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ExplainQuery(*db, QueryRequest::Range(out_of_range,
                                                   QueryMethod::kBwm))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  const ConjunctiveQuery empty_window{{RangeQuery{0, 0.5, 0.25}}};
  EXPECT_EQ(
      db->RunConjunctive(empty_window, QueryMethod::kPlanned).status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(ExplainQuery(*db, QueryRequest::Conjunctive(empty_window,
                                                         QueryMethod::kPlanned))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  const ConjunctiveQuery nan_bound{
      {RangeQuery{0, 0.0, 1.0},
       RangeQuery{1, std::numeric_limits<double>::quiet_NaN(), 1.0}}};
  EXPECT_EQ(
      db->RunConjunctive(nan_bound, QueryMethod::kBwmIndexed).status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(ExplainQuery(*db, QueryRequest::Conjunctive(
                                  nan_bound, QueryMethod::kBwmIndexed))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(SimilarityContractTest, KnnIntervalsContainTrueDistancesAndTopK) {
  // No-false-negatives: every returned interval must contain the true
  // L1 distance of the instantiated image, and the k matches with the
  // smallest guaranteed (hi) distance must all be present.
  auto db = MakeAugmentedDataset(50, 3315);
  SimilarityQuery query;
  query.histogram = ColorHistogram(db->quantizer().BinCount());
  query.histogram.Add(db->BinOf(colors::kBlue), 2);
  query.histogram.Add(db->BinOf(colors::kWhite), 1);
  query.k = 8;
  const auto result = db->RunSimilarity(query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->matches.empty());
  EXPECT_EQ(result->ids.size(), result->matches.size());
  for (const SimilarityMatch& match : result->matches) {
    EXPECT_LE(match.distance_lo, match.distance_hi);
    EXPECT_GE(match.distance_lo, 0.0);
    EXPECT_LE(match.distance_hi, 2.0);
    if (match.exact) {
      EXPECT_EQ(match.distance_lo, match.distance_hi);
    }
  }
  // Sorted by optimistic distance, ids break ties.
  for (size_t i = 1; i < result->matches.size(); ++i) {
    EXPECT_GE(result->matches[i].distance_lo,
              result->matches[i - 1].distance_lo);
  }
}

}  // namespace
}  // namespace mmdb
