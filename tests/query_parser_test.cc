#include <gtest/gtest.h>

#include <variant>

#include "core/database.h"
#include "core/query_parser.h"
#include "util/random.h"

namespace mmdb {
namespace {

class QueryParserTest : public ::testing::Test {
 protected:
  ColorQuantizer quantizer_{4};
};

TEST_F(QueryParserTest, PaperExampleAtLeast25PercentBlue) {
  const auto query = ParseQuery("color('#0000ff') >= 0.25", quantizer_);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_EQ(query->conjuncts.size(), 1u);
  EXPECT_EQ(query->conjuncts[0].bin, quantizer_.BinOf(Rgb(0, 0, 255)));
  EXPECT_DOUBLE_EQ(query->conjuncts[0].min_fraction, 0.25);
  EXPECT_DOUBLE_EQ(query->conjuncts[0].max_fraction, 1.0);
}

TEST_F(QueryParserTest, PercentagesAndUnquotedColors) {
  const auto query = ParseQuery("color(#ff0000) <= 25%", quantizer_);
  ASSERT_TRUE(query.ok());
  EXPECT_DOUBLE_EQ(query->conjuncts[0].min_fraction, 0.0);
  EXPECT_DOUBLE_EQ(query->conjuncts[0].max_fraction, 0.25);
}

TEST_F(QueryParserTest, BinIndexReference) {
  const auto query = ParseQuery("color(42) between 0.1 and 0.4", quantizer_);
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->conjuncts[0].bin, 42);
  EXPECT_DOUBLE_EQ(query->conjuncts[0].min_fraction, 0.1);
  EXPECT_DOUBLE_EQ(query->conjuncts[0].max_fraction, 0.4);
}

TEST_F(QueryParserTest, ExactEquality) {
  const auto query = ParseQuery("color(0) == 0.5", quantizer_);
  ASSERT_TRUE(query.ok());
  EXPECT_DOUBLE_EQ(query->conjuncts[0].min_fraction, 0.5);
  EXPECT_DOUBLE_EQ(query->conjuncts[0].max_fraction, 0.5);
}

TEST_F(QueryParserTest, Conjunctions) {
  const auto query = ParseQuery(
      "color('#0000ff') >= 25% AND color('#ffffff') <= 10% and "
      "color(3) between 0 and 1",
      quantizer_);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(query->conjuncts.size(), 3u);
}

TEST_F(QueryParserTest, CaseAndWhitespaceInsensitive) {
  const auto query =
      ParseQuery("  COLOR( '#00ff00' )   BETWEEN  10%  AND  90%  ",
                 quantizer_);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_DOUBLE_EQ(query->conjuncts[0].min_fraction, 0.1);
  EXPECT_DOUBLE_EQ(query->conjuncts[0].max_fraction, 0.9);
}

TEST_F(QueryParserTest, RejectsMalformedInput) {
  const char* bad[] = {
      "",
      "histogram(1) >= 0.5",
      "color(",
      "color()",
      "color(#12345) >= 0.5",     // Short color.
      "color(#0000ff)",           // Missing constraint.
      "color(#0000ff) >= ",       // Missing number.
      "color(#0000ff) >= 1.5",    // Out of range.
      "color(#0000ff) between 0.6 and 0.2",  // Inverted.
      "color(#0000ff) >= nan",             // NaN.
      "color(#0000ff) between nan and 1",  // NaN.
      "color(99999) >= 0.5",      // Bin out of range.
      "color(#0000ff) >= 0.5 and",
      "color('#0000ff) >= 0.5",   // Unterminated quote.
      "color(#0000ff) >= 0.5 or color(#ff0000) >= 0.5",  // No 'or'.
  };
  for (const char* text : bad) {
    EXPECT_FALSE(ParseQuery(text, quantizer_).ok()) << text;
  }
}

TEST_F(QueryParserTest, NamedCssColorsResolveThroughTheQuantizer) {
  const auto query =
      ParseQuery("color('blue') >= 0.25 and color(white) <= 10%", quantizer_);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_EQ(query->conjuncts.size(), 2u);
  EXPECT_EQ(query->conjuncts[0].bin, quantizer_.BinOf(Rgb(0, 0, 255)));
  EXPECT_EQ(query->conjuncts[1].bin, quantizer_.BinOf(Rgb(255, 255, 255)));
  // Case-insensitive, like the keywords.
  EXPECT_TRUE(ParseQuery("color(BLUE) >= 0.5", quantizer_).ok());
  // Unknown names are rejected, not silently binned.
  EXPECT_FALSE(ParseQuery("color(blurple) >= 0.5", quantizer_).ok());
}

TEST_F(QueryParserTest, NearestParsesToSimilarityQuery) {
  const auto parsed = ParseQueryExpression("nearest(blue, 10)", quantizer_);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto* nearest = std::get_if<SimilarityQuery>(&*parsed);
  ASSERT_NE(nearest, nullptr);
  EXPECT_EQ(nearest->k, 10u);
  EXPECT_EQ(nearest->histogram.BinCount(), quantizer_.BinCount());
  EXPECT_EQ(nearest->histogram.Count(quantizer_.BinOf(Rgb(0, 0, 255))), 1);
  EXPECT_EQ(nearest->histogram.Total(), 1);

  // Hex and bin-index colorrefs work too, quoted or not.
  EXPECT_TRUE(
      ParseQueryExpression("NEAREST('#ff0000', 5)", quantizer_).ok());
  EXPECT_TRUE(ParseQueryExpression("nearest( 12 , 3 )", quantizer_).ok());

  // A conjunction still parses through the expression entry point.
  const auto conjunctive =
      ParseQueryExpression("color(blue) >= 0.25", quantizer_);
  ASSERT_TRUE(conjunctive.ok());
  EXPECT_NE(std::get_if<ConjunctiveQuery>(&*conjunctive), nullptr);

  const char* bad[] = {
      "nearest(blue)",        // Missing k.
      "nearest(blue, 0)",     // k must be positive.
      "nearest(blue, -2)",
      "nearest(blue, 5",      // Unclosed.
      "nearest(, 5)",
      "nearest(blue, 5) and color(1) >= 0.5",  // No mixing.
  };
  for (const char* text : bad) {
    EXPECT_FALSE(ParseQueryExpression(text, quantizer_).ok()) << text;
  }
}

TEST_F(QueryParserTest, ToStringReparsesToEquivalentQuery) {
  // Property: rendering any representable query and re-parsing it gives
  // back an equivalent query (bins, fraction windows, k).
  Rng rng(20060601);
  for (int round = 0; round < 200; ++round) {
    if (rng.UniformInt(0, 3) == 0) {
      SimilarityQuery similarity;
      similarity.histogram = ColorHistogram(quantizer_.BinCount());
      similarity.histogram.Add(
          static_cast<BinIndex>(
              rng.UniformInt(0, quantizer_.BinCount() - 1)),
          1);
      similarity.k = static_cast<uint32_t>(rng.UniformInt(1, 50));
      const auto reparsed =
          ParseQueryExpression(similarity.ToString(), quantizer_);
      ASSERT_TRUE(reparsed.ok())
          << similarity.ToString() << ": " << reparsed.status().ToString();
      const auto* back = std::get_if<SimilarityQuery>(&*reparsed);
      ASSERT_NE(back, nullptr) << similarity.ToString();
      EXPECT_EQ(back->k, similarity.k);
      for (BinIndex bin = 0; bin < quantizer_.BinCount(); ++bin) {
        EXPECT_EQ(back->histogram.Count(bin), similarity.histogram.Count(bin))
            << similarity.ToString();
      }
      continue;
    }
    ConjunctiveQuery query;
    const int conjuncts = rng.UniformInt(1, 4);
    for (int i = 0; i < conjuncts; ++i) {
      RangeQuery conjunct;
      conjunct.bin = static_cast<BinIndex>(
          rng.UniformInt(0, quantizer_.BinCount() - 1));
      conjunct.min_fraction = rng.UniformDouble(0.0, 0.5);
      conjunct.max_fraction = rng.UniformDouble(conjunct.min_fraction, 1.0);
      query.conjuncts.push_back(conjunct);
    }
    const auto reparsed = ParseQueryExpression(query.ToString(), quantizer_);
    ASSERT_TRUE(reparsed.ok())
        << query.ToString() << ": " << reparsed.status().ToString();
    const auto* back = std::get_if<ConjunctiveQuery>(&*reparsed);
    ASSERT_NE(back, nullptr) << query.ToString();
    ASSERT_EQ(back->conjuncts.size(), query.conjuncts.size());
    for (size_t i = 0; i < query.conjuncts.size(); ++i) {
      EXPECT_EQ(back->conjuncts[i].bin, query.conjuncts[i].bin);
      // FormatFraction prints round-trippable decimals: exact equality.
      EXPECT_EQ(back->conjuncts[i].min_fraction,
                query.conjuncts[i].min_fraction)
          << query.ToString();
      EXPECT_EQ(back->conjuncts[i].max_fraction,
                query.conjuncts[i].max_fraction)
          << query.ToString();
    }
  }
}

TEST_F(QueryParserTest, ParsedQueriesExecute) {
  auto db = MultimediaDatabase::Open().value();
  Image image(10, 10, colors::kWhite);
  image.Fill(Rect(0, 0, 10, 5), Rgb(0, 0, 255));
  const ObjectId id = db->InsertBinaryImage(image).value();
  const auto query = ParseQuery(
      "color('#0000ff') >= 0.25 and color('#ffffff') between 0.3 and 0.7",
      db->quantizer());
  ASSERT_TRUE(query.ok());
  const auto result = db->RunConjunctive(*query, QueryMethod::kBwm).value();
  ASSERT_EQ(result.ids.size(), 1u);
  EXPECT_EQ(result.ids[0], id);
}

}  // namespace
}  // namespace mmdb
