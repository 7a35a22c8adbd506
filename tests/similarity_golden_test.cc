#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/dominant.h"
#include "core/similarity.h"
#include "datasets/augment.h"
#include "test_util.h"
#include "util/random.h"

namespace mmdb {
namespace {

// Bit-identical oracle for the similarity paths and the per-bin rule
// fold. Over seeded corpora it pins, for several query histograms and k
// values, `RunSimilarity`'s match count, all six QueryStats fields, and
// an order-sensitive FNV-1a digest of every match's id, interval bit
// patterns and exact flag; `WithinDistance`'s certain/candidate sets at
// two radii; every edited image's `ClassifyDominantBins` must/may bins;
// and every edited image's instantiated pixels. A change to the top-k
// rule, the scoring walk, the all-bin fold, or either side of the
// Mutate geometry (editor or rules) moves one of these rows.

constexpr size_t kPinnedK[] = {1, 5, 25, 1000};  // 1000: beyond the corpus.
constexpr double kPinnedRadii[] = {0.5, 1.25};
constexpr double kDominantThresholds[] = {0.05, 0.25};

class Digest {
 public:
  void Mix(uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void Mix(double value) {
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    Mix(bits);
  }
  void Mix(const std::vector<SimilarityMatch>& matches) {
    for (const SimilarityMatch& match : matches) {
      Mix(static_cast<uint64_t>(match.id));
      Mix(match.distance_lo);
      Mix(match.distance_hi);
      Mix(static_cast<uint64_t>(match.exact ? 1 : 0));
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::string Hex(uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

std::string StatsString(const QueryStats& s) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer), "{%lld,%lld,%lld,%lld,%lld,%lld}",
                static_cast<long long>(s.binary_images_checked),
                static_cast<long long>(s.edited_images_bounded),
                static_cast<long long>(s.edited_images_skipped),
                static_cast<long long>(s.rules_applied),
                static_cast<long long>(s.images_instantiated),
                static_cast<long long>(s.corrupt_images_skipped));
  return buffer;
}

/// The seeded corpus of scan_golden_test.cc: Main-cluster and
/// Unclassified edited images, materialized variants, Merges into binary
/// targets and into edited targets (a hand-built chain), and deletions.
std::unique_ptr<MultimediaDatabase> BuildDatasetCorpus(
    datasets::DatasetKind kind, uint64_t seed) {
  DatabaseOptions options;
  options.query_threads = 3;
  auto db = MultimediaDatabase::Open(options).value();
  datasets::DatasetSpec spec;
  spec.kind = kind;
  spec.total_images = 48;
  spec.edited_fraction = 0.7;
  spec.widening_probability = 0.6;
  spec.seed = seed;
  const datasets::DatasetStats stats =
      datasets::BuildAugmentedDatabase(db.get(), spec).value();

  ObjectId target = stats.edited_ids.front();
  for (int i = 0; i < 3; ++i) {
    EditScript script;
    script.base_id = stats.base_ids[static_cast<size_t>(i) %
                                    stats.base_ids.size()];
    script.ops.emplace_back(ModifyOp{colors::kWhite, colors::kBlack});
    MergeOp merge;
    merge.target = target;
    merge.x = 2;
    merge.y = 1;
    script.ops.emplace_back(merge);
    target = db->InsertEditedImage(script).value();
  }

  for (size_t i = 3; i < stats.edited_ids.size(); i += 7) {
    EXPECT_TRUE(db->DeleteImage(stats.edited_ids[i]).ok());
  }
  EXPECT_FALSE(stats.materialized_ids.empty());
  EXPECT_TRUE(db->DeleteImage(stats.materialized_ids.front()).ok());
  return db;
}

/// Random block images edited by the soundness suite's random scripts:
/// fractional whole-image scales, rotations, shears (general affine
/// stamps) and Merges into binary targets. One more image stamps through
/// a projective matrix whose DR corner maps to infinity: the editor
/// rejects it, the rules bound it by the whole canvas.
std::unique_ptr<MultimediaDatabase> BuildRandomScriptCorpus(uint64_t seed) {
  auto db = MultimediaDatabase::Open().value();
  Rng rng(seed);
  std::vector<datasets::MergeTarget> targets;
  for (int i = 0; i < 6; ++i) {
    const Image image = testing::RandomBlockImage(24, 18, 5, rng);
    const ObjectId id = db->InsertBinaryImage(image).value();
    targets.push_back({id, image.width(), image.height()});
  }
  for (int i = 0; i < 30; ++i) {
    const datasets::MergeTarget& base = targets[rng.Uniform(targets.size())];
    const EditScript script = testing::RandomScript(
        base.id, base.width, base.height, 6, targets, rng);
    EXPECT_TRUE(db->InsertEditedImage(script).ok());
  }
  EditScript projective;
  projective.base_id = targets.front().id;
  projective.ops.emplace_back(DefineOp{Rect(2, 2, 10, 8)});
  MutateOp op;
  op.m = {1, 0, 0, 0, 1, 0, 1, 0, -2};  // w = x - 2: corner (2, 2) diverges.
  projective.ops.emplace_back(op);
  EXPECT_TRUE(db->InsertEditedImage(projective).ok());
  return db;
}

/// Query signatures: a stored binary image's own histogram, one palette
/// color, a seeded three-color mix, and a seeded spread over every bin.
std::vector<ColorHistogram> MakeQueries(const MultimediaDatabase& db,
                                        const std::vector<Rgb>& palette,
                                        uint64_t seed) {
  const BinIndex bins = db.quantizer().BinCount();
  Rng rng(seed);
  std::vector<ColorHistogram> out;
  out.push_back(
      db.collection().FindBinary(db.collection().binary_ids().front())
          ->histogram);

  ColorHistogram single(bins);
  single.Add(db.quantizer().BinOf(palette.front()), 100);
  out.push_back(single);

  ColorHistogram mix(bins);
  for (int i = 0; i < 3; ++i) {
    mix.Add(db.quantizer().BinOf(palette[rng.Uniform(palette.size())]),
            rng.UniformInt(10, 200));
  }
  out.push_back(mix);

  ColorHistogram spread(bins);
  for (BinIndex bin = 0; bin < bins; ++bin) {
    spread.Add(bin, rng.UniformInt(0, 9));
  }
  out.push_back(spread);
  return out;
}

std::vector<std::string> RunCorpus(const char* name,
                                   const MultimediaDatabase& db,
                                   const std::vector<Rgb>& palette,
                                   uint64_t seed) {
  std::vector<std::string> rows;
  const std::vector<ColorHistogram> queries = MakeQueries(db, palette, seed);
  for (size_t q = 0; q < queries.size(); ++q) {
    for (size_t k : kPinnedK) {
      SimilarityQuery query;
      query.histogram = queries[q];
      query.k = static_cast<uint32_t>(k);
      const Result<QueryResult> result = db.RunSimilarity(query);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      if (!result.ok()) continue;
      Digest digest;
      digest.Mix(result->matches);
      rows.push_back(std::string(name) + " h" + std::to_string(q) +
                     " k=" + std::to_string(k) +
                     ": n=" + std::to_string(result->matches.size()) +
                     " fnv=" + Hex(digest.value()) +
                     " stats=" + StatsString(result->stats));
    }
  }

  const SimilaritySearcher searcher(&db.collection(), &db.rule_engine());
  for (size_t q = 0; q < queries.size(); ++q) {
    for (double radius : kPinnedRadii) {
      QueryStats stats;
      const auto answer = searcher.WithinDistance(queries[q], radius, &stats);
      EXPECT_TRUE(answer.ok()) << answer.status().ToString();
      if (!answer.ok()) continue;
      Digest certain, candidates;
      certain.Mix(answer->certain);
      candidates.Mix(answer->candidates);
      char prefix[64];
      std::snprintf(prefix, sizeof(prefix), "%s h%zu r=%.2f: ", name, q,
                    radius);
      rows.push_back(prefix + std::string("certain=") +
                     std::to_string(answer->certain.size()) + "/" +
                     Hex(certain.value()));
      rows.push_back(prefix + std::string("candidates=") +
                     std::to_string(answer->candidates.size()) + "/" +
                     Hex(candidates.value()) + " stats=" + StatsString(stats));
    }
  }

  Digest dominant;
  size_t classified = 0;
  for (ObjectId id : db.collection().edited_ids()) {
    const EditedImageInfo* edited = db.collection().FindEdited(id);
    for (double threshold : kDominantThresholds) {
      const auto bins = ClassifyDominantBins(db.collection(),
                                             db.rule_engine(), *edited,
                                             threshold);
      EXPECT_TRUE(bins.ok()) << bins.status().ToString();
      if (!bins.ok()) continue;
      ++classified;
      dominant.Mix(static_cast<uint64_t>(id));
      dominant.Mix(static_cast<uint64_t>(bins->must.size()));
      for (BinIndex bin : bins->must) dominant.Mix(static_cast<uint64_t>(bin));
      dominant.Mix(static_cast<uint64_t>(bins->may.size()));
      for (BinIndex bin : bins->may) dominant.Mix(static_cast<uint64_t>(bin));
    }
  }
  rows.push_back(std::string(name) + " dominant: n=" +
                 std::to_string(classified) + " fnv=" + Hex(dominant.value()));

  Digest pixels;
  size_t failed = 0;
  for (ObjectId id : db.collection().edited_ids()) {
    const Result<Image> image = db.GetImage(id);
    pixels.Mix(static_cast<uint64_t>(id));
    if (!image.ok()) {
      ++failed;
      pixels.Mix(static_cast<uint64_t>(image.status().code()));
      continue;
    }
    pixels.Mix(static_cast<uint64_t>(image->width()));
    pixels.Mix(static_cast<uint64_t>(image->height()));
    for (int32_t y = 0; y < image->height(); ++y) {
      for (int32_t x = 0; x < image->width(); ++x) {
        pixels.Mix(static_cast<uint64_t>(image->At(x, y).Packed()));
      }
    }
  }
  rows.push_back(std::string(name) + " pixels: n=" +
                 std::to_string(db.collection().edited_ids().size()) +
                 " failed=" + std::to_string(failed) +
                 " fnv=" + Hex(pixels.value()));
  return rows;
}

void ExpectRows(const std::vector<std::string>& actual,
                const std::vector<std::string>& golden) {
  std::string all;
  for (const std::string& row : actual) all += "    \"" + row + "\",\n";
  ASSERT_EQ(actual.size(), golden.size()) << "actual rows:\n" << all;
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], golden[i]) << "replace with:\n    \"" << actual[i]
                                    << "\",";
  }
}

TEST(SimilarityGoldenTest, HelmetCorpus) {
  const auto db = BuildDatasetCorpus(datasets::DatasetKind::kHelmets, 1601);
  ExpectRows(RunCorpus("helmet", *db,
                       datasets::PaletteFor(datasets::DatasetKind::kHelmets),
                       1701),
             {
    "helmet h0 k=1: n=23 fnv=d32e32c78b4752b2 stats={13,32,0,12288,0,0}",
    "helmet h0 k=5: n=41 fnv=e7c93264894e2930 stats={13,32,0,12288,0,0}",
    "helmet h0 k=25: n=45 fnv=46219f4fd1b9152f stats={13,32,0,12288,0,0}",
    "helmet h0 k=1000: n=45 fnv=46219f4fd1b9152f stats={13,32,0,12288,0,0}",
    "helmet h1 k=1: n=25 fnv=fa8f54a93301c3cf stats={13,32,0,12288,0,0}",
    "helmet h1 k=5: n=36 fnv=85e56b024c9900f6 stats={13,32,0,12288,0,0}",
    "helmet h1 k=25: n=44 fnv=eb3aee161a02897d stats={13,32,0,12288,0,0}",
    "helmet h1 k=1000: n=45 fnv=0a93ca9ef66f3591 stats={13,32,0,12288,0,0}",
    "helmet h2 k=1: n=29 fnv=a9d7cd9942eb760c stats={13,32,0,12288,0,0}",
    "helmet h2 k=5: n=37 fnv=d8f694ac8d437e6d stats={13,32,0,12288,0,0}",
    "helmet h2 k=25: n=45 fnv=2ea3b0a543c2d23b stats={13,32,0,12288,0,0}",
    "helmet h2 k=1000: n=45 fnv=2ea3b0a543c2d23b stats={13,32,0,12288,0,0}",
    "helmet h3 k=1: n=31 fnv=7b989c345adc8f63 stats={13,32,0,12288,0,0}",
    "helmet h3 k=5: n=37 fnv=686946542058c836 stats={13,32,0,12288,0,0}",
    "helmet h3 k=25: n=45 fnv=c5f891b829462f38 stats={13,32,0,12288,0,0}",
    "helmet h3 k=1000: n=45 fnv=c5f891b829462f38 stats={13,32,0,12288,0,0}",
    "helmet h0 r=0.50: certain=2/d0f954c3aaa9e54b",
    "helmet h0 r=0.50: candidates=24/21bad805e319c742 stats={13,32,0,12288,0,0}",
    "helmet h0 r=1.25: certain=12/e3cbc117d9041b8d",
    "helmet h0 r=1.25: candidates=31/29427679fee21443 stats={13,32,0,12288,0,0}",
    "helmet h1 r=0.50: certain=0/cbf29ce484222325",
    "helmet h1 r=0.50: candidates=20/c5f0f85f0df8ea56 stats={13,32,0,12288,0,0}",
    "helmet h1 r=1.25: certain=0/cbf29ce484222325",
    "helmet h1 r=1.25: candidates=23/a466cf03709db175 stats={13,32,0,12288,0,0}",
    "helmet h2 r=0.50: certain=0/cbf29ce484222325",
    "helmet h2 r=0.50: candidates=18/3b2fc25dba482151 stats={13,32,0,12288,0,0}",
    "helmet h2 r=1.25: certain=0/cbf29ce484222325",
    "helmet h2 r=1.25: candidates=28/3d3b1cb7ae38a00b stats={13,32,0,12288,0,0}",
    "helmet h3 r=0.50: certain=0/cbf29ce484222325",
    "helmet h3 r=0.50: candidates=19/77c45dfcca1cce16 stats={13,32,0,12288,0,0}",
    "helmet h3 r=1.25: certain=0/cbf29ce484222325",
    "helmet h3 r=1.25: candidates=25/0472ac82341552ae stats={13,32,0,12288,0,0}",
    "helmet dominant: n=64 fnv=6ac0ecdb4beaac61",
    "helmet pixels: n=32 failed=0 fnv=0a30f78a118d9e93",
             });
}

TEST(SimilarityGoldenTest, FlagCorpus) {
  const auto db = BuildDatasetCorpus(datasets::DatasetKind::kFlags, 1602);
  ExpectRows(RunCorpus("flag", *db,
                       datasets::PaletteFor(datasets::DatasetKind::kFlags),
                       1702),
             {
    "flag h0 k=1: n=21 fnv=14c2ec487f1fccf1 stats={13,32,0,10944,0,0}",
    "flag h0 k=5: n=33 fnv=d83a50c729e01585 stats={13,32,0,10944,0,0}",
    "flag h0 k=25: n=45 fnv=0f3ebe596bf67a6e stats={13,32,0,10944,0,0}",
    "flag h0 k=1000: n=45 fnv=0f3ebe596bf67a6e stats={13,32,0,10944,0,0}",
    "flag h1 k=1: n=22 fnv=279b4345a04701e5 stats={13,32,0,10944,0,0}",
    "flag h1 k=5: n=37 fnv=4910bc4c45b719dc stats={13,32,0,10944,0,0}",
    "flag h1 k=25: n=45 fnv=df194814294bc9b7 stats={13,32,0,10944,0,0}",
    "flag h1 k=1000: n=45 fnv=df194814294bc9b7 stats={13,32,0,10944,0,0}",
    "flag h2 k=1: n=30 fnv=a0dc32d169dd673b stats={13,32,0,10944,0,0}",
    "flag h2 k=5: n=42 fnv=a8e8fd522e6fd0f1 stats={13,32,0,10944,0,0}",
    "flag h2 k=25: n=45 fnv=2dc334928206123d stats={13,32,0,10944,0,0}",
    "flag h2 k=1000: n=45 fnv=2dc334928206123d stats={13,32,0,10944,0,0}",
    "flag h3 k=1: n=31 fnv=037e278da5433b09 stats={13,32,0,10944,0,0}",
    "flag h3 k=5: n=37 fnv=aaf59e924631887e stats={13,32,0,10944,0,0}",
    "flag h3 k=25: n=45 fnv=86f37637ba660e8b stats={13,32,0,10944,0,0}",
    "flag h3 k=1000: n=45 fnv=86f37637ba660e8b stats={13,32,0,10944,0,0}",
    "flag h0 r=0.50: certain=2/649974e9bb73e256",
    "flag h0 r=0.50: candidates=23/a0dfe33ab4fe72f1 stats={13,32,0,10944,0,0}",
    "flag h0 r=1.25: certain=5/cf3cc658d1863b4d",
    "flag h0 r=1.25: candidates=31/fe97b48bcc9292cd stats={13,32,0,10944,0,0}",
    "flag h1 r=0.50: certain=0/cbf29ce484222325",
    "flag h1 r=0.50: candidates=20/e8b5cd272d1e364e stats={13,32,0,10944,0,0}",
    "flag h1 r=1.25: certain=1/a233993d5ddb6db9",
    "flag h1 r=1.25: candidates=27/025cda84694f83c2 stats={13,32,0,10944,0,0}",
    "flag h2 r=0.50: certain=0/cbf29ce484222325",
    "flag h2 r=0.50: candidates=21/4ba120bcba229baa stats={13,32,0,10944,0,0}",
    "flag h2 r=1.25: certain=0/cbf29ce484222325",
    "flag h2 r=1.25: candidates=28/077f8e70fb8db7d1 stats={13,32,0,10944,0,0}",
    "flag h3 r=0.50: certain=0/cbf29ce484222325",
    "flag h3 r=0.50: candidates=20/d79d374b1444a01e stats={13,32,0,10944,0,0}",
    "flag h3 r=1.25: certain=0/cbf29ce484222325",
    "flag h3 r=1.25: candidates=26/3a57a67154132674 stats={13,32,0,10944,0,0}",
    "flag dominant: n=64 fnv=053bc16255b49267",
    "flag pixels: n=32 failed=0 fnv=9e07ca224e9a3d7a",
             });
}

TEST(SimilarityGoldenTest, RandomScriptCorpus) {
  const auto db = BuildRandomScriptCorpus(1603);
  ExpectRows(RunCorpus("random", *db, testing::TestPalette(), 1703), {
    "random h0 k=1: n=29 fnv=49234e68a6aeb1be stats={6,31,0,11904,0,0}",
    "random h0 k=5: n=35 fnv=dec6e7f6caff1899 stats={6,31,0,11904,0,0}",
    "random h0 k=25: n=37 fnv=9e821cffe35c8055 stats={6,31,0,11904,0,0}",
    "random h0 k=1000: n=37 fnv=9e821cffe35c8055 stats={6,31,0,11904,0,0}",
    "random h1 k=1: n=32 fnv=0aef1e5e81100af3 stats={6,31,0,11904,0,0}",
    "random h1 k=5: n=35 fnv=eab207d589e16cc7 stats={6,31,0,11904,0,0}",
    "random h1 k=25: n=37 fnv=1937ed443e940042 stats={6,31,0,11904,0,0}",
    "random h1 k=1000: n=37 fnv=1937ed443e940042 stats={6,31,0,11904,0,0}",
    "random h2 k=1: n=32 fnv=5ce7a1414e6b7809 stats={6,31,0,11904,0,0}",
    "random h2 k=5: n=35 fnv=f2d935a9b3ce235c stats={6,31,0,11904,0,0}",
    "random h2 k=25: n=37 fnv=35b98c125b299858 stats={6,31,0,11904,0,0}",
    "random h2 k=1000: n=37 fnv=35b98c125b299858 stats={6,31,0,11904,0,0}",
    "random h3 k=1: n=31 fnv=13fe152d478ec52a stats={6,31,0,11904,0,0}",
    "random h3 k=5: n=35 fnv=2726903b15ee6b4c stats={6,31,0,11904,0,0}",
    "random h3 k=25: n=37 fnv=be2b6af69aa0cbe5 stats={6,31,0,11904,0,0}",
    "random h3 k=1000: n=37 fnv=be2b6af69aa0cbe5 stats={6,31,0,11904,0,0}",
    "random h0 r=0.50: certain=1/f838af3c88882c86",
    "random h0 r=0.50: candidates=30/03dcabb934000254 stats={6,31,0,11904,0,0}",
    "random h0 r=1.25: certain=5/ef8d8747c0ca4884",
    "random h0 r=1.25: candidates=30/03dcabb934000254 stats={6,31,0,11904,0,0}",
    "random h1 r=0.50: certain=0/cbf29ce484222325",
    "random h1 r=0.50: candidates=26/0fed31abca3fe30a stats={6,31,0,11904,0,0}",
    "random h1 r=1.25: certain=0/cbf29ce484222325",
    "random h1 r=1.25: candidates=28/ff7e7d0006062950 stats={6,31,0,11904,0,0}",
    "random h2 r=0.50: certain=0/cbf29ce484222325",
    "random h2 r=0.50: candidates=28/3b382ea35e650504 stats={6,31,0,11904,0,0}",
    "random h2 r=1.25: certain=0/cbf29ce484222325",
    "random h2 r=1.25: candidates=30/c908e539bf2091c5 stats={6,31,0,11904,0,0}",
    "random h3 r=0.50: certain=0/cbf29ce484222325",
    "random h3 r=0.50: candidates=29/311b0c8b87401ddc stats={6,31,0,11904,0,0}",
    "random h3 r=1.25: certain=0/cbf29ce484222325",
    "random h3 r=1.25: candidates=30/118583e1de2c9b34 stats={6,31,0,11904,0,0}",
    "random dominant: n=62 fnv=cbe93204a31f06e5",
    "random pixels: n=31 failed=1 fnv=b70f195aff0679d8",
  });
}

}  // namespace
}  // namespace mmdb
