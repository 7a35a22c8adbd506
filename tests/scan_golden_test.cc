#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/database.h"
#include "datasets/augment.h"
#include "util/random.h"

namespace mmdb {
namespace {

// Bit-identical oracle for the range/conjunctive scan paths. For every
// scan method it pins the exact answer of fixed queries over seeded
// corpora: the ordered id vector (its length plus an order-sensitive
// FNV-1a digest) and all six QueryStats fields. The equivalence tests
// elsewhere compare result *sets*; this one fails on any change of
// order or work counters, too.

constexpr QueryMethod kPinnedMethods[] = {
    QueryMethod::kRbm, QueryMethod::kBwm, QueryMethod::kBwmIndexed,
    QueryMethod::kParallelRbm, QueryMethod::kPlanned};

uint64_t Fnv1a(const std::vector<ObjectId>& ids) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (ObjectId id : ids) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (static_cast<uint64_t>(id) >> (8 * byte)) & 0xffu;
      hash *= 0x100000001b3ull;
    }
  }
  return hash;
}

/// One pinned answer, rendered as the source line of the golden table
/// below, so a mismatch prints the line that would replace it.
std::string Row(const char* corpus, size_t query, QueryMethod method,
                const QueryResult& result) {
  const QueryStats& s = result.stats;
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "%s q%zu %s: n=%zu fnv=%016llx stats={%lld,%lld,%lld,%lld,"
                "%lld,%lld}",
                corpus, query, std::string(QueryMethodName(method)).c_str(),
                result.ids.size(),
                static_cast<unsigned long long>(Fnv1a(result.ids)),
                static_cast<long long>(s.binary_images_checked),
                static_cast<long long>(s.edited_images_bounded),
                static_cast<long long>(s.edited_images_skipped),
                static_cast<long long>(s.rules_applied),
                static_cast<long long>(s.images_instantiated),
                static_cast<long long>(s.corrupt_images_skipped));
  return buffer;
}

/// A seeded corpus with every shape the scans branch on: Main-cluster
/// and Unclassified edited images, materialized variants (binaries with
/// no cluster members), Merges into binary targets (from the generator)
/// and into edited targets (a hand-built chain), and a few deletions.
std::unique_ptr<MultimediaDatabase> BuildCorpus(datasets::DatasetKind kind,
                                                uint64_t seed) {
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

  // Edited images merging into edited images: the bounds resolver has to
  // recurse through the rules of the target.
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

  // Holes: every seventh generated edited image (none is a Merge target:
  // the generator merges into originals only, and the chain above starts
  // at the first) and the first materialized variant.
  for (size_t i = 3; i < stats.edited_ids.size(); i += 7) {
    EXPECT_TRUE(db->DeleteImage(stats.edited_ids[i]).ok());
  }
  EXPECT_FALSE(stats.materialized_ids.empty());
  EXPECT_TRUE(db->DeleteImage(stats.materialized_ids.front()).ok());
  return db;
}

/// Four grounded windows as range queries, then two 2-conjunct and two
/// 3-conjunct conjunctions over the corpus's grounded windows.
struct Workload {
  std::vector<RangeQuery> ranges;
  std::vector<ConjunctiveQuery> conjunctions;
};

Workload MakeWorkload(const MultimediaDatabase& db, datasets::DatasetKind kind,
                      uint64_t seed) {
  Rng rng(seed);
  const std::vector<RangeQuery> w = datasets::MakeGroundedRangeWorkload(
      db.collection(), db.quantizer(), datasets::PaletteFor(kind), 8, rng);
  Workload out;
  out.ranges.assign(w.begin(), w.begin() + 4);
  out.conjunctions = {ConjunctiveQuery{{w[4], w[5]}},
                      ConjunctiveQuery{{w[6], w[7]}},
                      ConjunctiveQuery{{w[0], w[5], w[6]}},
                      ConjunctiveQuery{{w[1], w[3], w[7]}}};
  return out;
}

std::vector<std::string> RunCorpus(const char* name,
                                   datasets::DatasetKind kind,
                                   uint64_t seed) {
  const auto db = BuildCorpus(kind, seed);
  const Workload workload = MakeWorkload(*db, kind, seed + 1);
  std::vector<std::string> rows;
  size_t query = 0;
  for (const RangeQuery& range : workload.ranges) {
    for (QueryMethod method : kPinnedMethods) {
      const Result<QueryResult> result = db->RunRange(range, method);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      if (result.ok()) rows.push_back(Row(name, query, method, *result));
    }
    ++query;
  }
  for (const ConjunctiveQuery& conjunction : workload.conjunctions) {
    for (QueryMethod method : kPinnedMethods) {
      const Result<QueryResult> result =
          db->RunConjunctive(conjunction, method);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      if (result.ok()) rows.push_back(Row(name, query, method, *result));
    }
    ++query;
  }
  return rows;
}

void ExpectRows(const std::vector<std::string>& actual,
                const std::vector<std::string>& golden) {
  ASSERT_EQ(actual.size(), golden.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], golden[i]) << "replace with:\n    \"" << actual[i]
                                    << "\",";
  }
}

TEST(ScanGoldenTest, HelmetCorpus) {
  ExpectRows(RunCorpus("helmet", datasets::DatasetKind::kHelmets, 1601), {
    "helmet q0 rbm: n=26 fnv=36ed877b602258a5 stats={13,32,0,192,0,0}",
    "helmet q0 bwm: n=26 fnv=5735b409fd86f765 stats={13,28,4,160,0,0}",
    "helmet q0 bwm-indexed: n=26 fnv=5735b409fd86f765 stats={13,28,4,160,0,0}",
    "helmet q0 parallel-rbm: n=26 fnv=36ed877b602258a5 stats={13,32,0,192,0,0}",
    "helmet q0 planned: n=26 fnv=5735b409fd86f765 stats={13,28,4,160,0,0}",
    "helmet q1 rbm: n=25 fnv=d8a1ac63d6abc4eb stats={13,32,0,192,0,0}",
    "helmet q1 bwm: n=25 fnv=b6b956c2890b294b stats={13,28,4,160,0,0}",
    "helmet q1 bwm-indexed: n=25 fnv=b6b956c2890b294b stats={13,28,4,160,0,0}",
    "helmet q1 parallel-rbm: n=25 fnv=d8a1ac63d6abc4eb stats={13,32,0,192,0,0}",
    "helmet q1 planned: n=25 fnv=b6b956c2890b294b stats={13,28,4,160,0,0}",
    "helmet q2 rbm: n=30 fnv=7ebdd8af653c2630 stats={13,32,0,192,0,0}",
    "helmet q2 bwm: n=30 fnv=8ef65dd2f2ada830 stats={13,24,8,137,0,0}",
    "helmet q2 bwm-indexed: n=30 fnv=8ef65dd2f2ada830 stats={13,24,8,137,0,0}",
    "helmet q2 parallel-rbm: n=30 fnv=7ebdd8af653c2630 stats={13,32,0,192,0,0}",
    "helmet q2 planned: n=30 fnv=8ef65dd2f2ada830 stats={13,24,8,137,0,0}",
    "helmet q3 rbm: n=22 fnv=8053e0ea257985ce stats={13,32,0,192,0,0}",
    "helmet q3 bwm: n=22 fnv=5b6e9045b91f3cae stats={13,30,2,178,0,0}",
    "helmet q3 bwm-indexed: n=22 fnv=5b6e9045b91f3cae stats={13,30,2,178,0,0}",
    "helmet q3 parallel-rbm: n=22 fnv=8053e0ea257985ce stats={13,32,0,192,0,0}",
    "helmet q3 planned: n=22 fnv=5b6e9045b91f3cae stats={13,30,2,178,0,0}",
    "helmet q4 rbm: n=24 fnv=2c49b6dd92f8f595 stats={13,32,0,384,0,0}",
    "helmet q4 bwm: n=24 fnv=68e0cb960acd5675 stats={13,28,4,320,0,0}",
    "helmet q4 bwm-indexed: n=24 fnv=68e0cb960acd5675 stats={13,28,4,320,0,0}",
    "helmet q4 parallel-rbm: n=24 fnv=2c49b6dd92f8f595 stats={13,32,0,384,0,0}",
    "helmet q4 planned: n=24 fnv=68e0cb960acd5675 stats={13,28,4,267,0,0}",
    "helmet q5 rbm: n=43 fnv=453729c044a8dfbf stats={13,32,0,384,0,0}",
    "helmet q5 bwm: n=43 fnv=1682926965acd8bf stats={13,16,16,160,0,0}",
    "helmet q5 bwm-indexed: n=43 fnv=1682926965acd8bf stats={13,16,16,160,0,0}",
    "helmet q5 parallel-rbm: n=43 fnv=453729c044a8dfbf stats={13,32,0,384,0,0}",
    "helmet q5 planned: n=43 fnv=1682926965acd8bf stats={13,16,16,160,0,0}",
    "helmet q6 rbm: n=24 fnv=2c49b6dd92f8f595 stats={13,32,0,479,0,0}",
    "helmet q6 bwm: n=24 fnv=68e0cb960acd5675 stats={13,28,4,383,0,0}",
    "helmet q6 bwm-indexed: n=24 fnv=68e0cb960acd5675 stats={13,28,4,383,0,0}",
    "helmet q6 parallel-rbm: n=24 fnv=2c49b6dd92f8f595 stats={13,32,0,479,0,0}",
    "helmet q6 planned: n=24 fnv=68e0cb960acd5675 stats={13,28,4,374,0,0}",
    "helmet q7 rbm: n=19 fnv=4d58191794830010 stats={13,32,0,470,0,0}",
    "helmet q7 bwm: n=19 fnv=385f7ea33fad9e50 stats={13,32,0,470,0,0}",
    "helmet q7 bwm-indexed: n=19 fnv=385f7ea33fad9e50 stats={13,32,0,470,0,0}",
    "helmet q7 parallel-rbm: n=19 fnv=4d58191794830010 stats={13,32,0,470,0,0}",
    "helmet q7 planned: n=19 fnv=385f7ea33fad9e50 stats={13,32,0,454,0,0}",
  });
}

TEST(ScanGoldenTest, FlagCorpus) {
  ExpectRows(RunCorpus("flag", datasets::DatasetKind::kFlags, 1602), {
    "flag q0 rbm: n=28 fnv=5babc4f9f88850e3 stats={13,32,0,171,0,0}",
    "flag q0 bwm: n=28 fnv=753e10abc6af3a23 stats={13,32,0,171,0,0}",
    "flag q0 bwm-indexed: n=28 fnv=753e10abc6af3a23 stats={13,32,0,171,0,0}",
    "flag q0 parallel-rbm: n=28 fnv=5babc4f9f88850e3 stats={13,32,0,171,0,0}",
    "flag q0 planned: n=28 fnv=753e10abc6af3a23 stats={13,32,0,171,0,0}",
    "flag q1 rbm: n=34 fnv=e7b583c39c74e83c stats={13,32,0,171,0,0}",
    "flag q1 bwm: n=34 fnv=05c48d109ccb3ffc stats={13,29,3,157,0,0}",
    "flag q1 bwm-indexed: n=34 fnv=05c48d109ccb3ffc stats={13,29,3,157,0,0}",
    "flag q1 parallel-rbm: n=34 fnv=e7b583c39c74e83c stats={13,32,0,171,0,0}",
    "flag q1 planned: n=34 fnv=05c48d109ccb3ffc stats={13,29,3,157,0,0}",
    "flag q2 rbm: n=25 fnv=b044764d42563126 stats={13,32,0,171,0,0}",
    "flag q2 bwm: n=25 fnv=64f0c09d733f5566 stats={13,28,4,141,0,0}",
    "flag q2 bwm-indexed: n=25 fnv=64f0c09d733f5566 stats={13,28,4,141,0,0}",
    "flag q2 parallel-rbm: n=25 fnv=b044764d42563126 stats={13,32,0,171,0,0}",
    "flag q2 planned: n=25 fnv=64f0c09d733f5566 stats={13,28,4,141,0,0}",
    "flag q3 rbm: n=29 fnv=075c5354a8c3dce0 stats={13,32,0,171,0,0}",
    "flag q3 bwm: n=29 fnv=63d3e87e0c62d720 stats={13,28,4,141,0,0}",
    "flag q3 bwm-indexed: n=29 fnv=63d3e87e0c62d720 stats={13,28,4,141,0,0}",
    "flag q3 parallel-rbm: n=29 fnv=075c5354a8c3dce0 stats={13,32,0,171,0,0}",
    "flag q3 planned: n=29 fnv=63d3e87e0c62d720 stats={13,28,4,141,0,0}",
    "flag q4 rbm: n=25 fnv=48eeabcff8d85da1 stats={13,32,0,322,0,0}",
    "flag q4 bwm: n=25 fnv=c349c0b9b51b7661 stats={13,24,8,226,0,0}",
    "flag q4 bwm-indexed: n=25 fnv=c349c0b9b51b7661 stats={13,24,8,226,0,0}",
    "flag q4 parallel-rbm: n=25 fnv=48eeabcff8d85da1 stats={13,32,0,322,0,0}",
    "flag q4 planned: n=25 fnv=c349c0b9b51b7661 stats={13,24,8,211,0,0}",
    "flag q5 rbm: n=21 fnv=f0206f524b3cde60 stats={13,32,0,307,0,0}",
    "flag q5 bwm: n=21 fnv=dde712423bf3b1a0 stats={13,32,0,307,0,0}",
    "flag q5 bwm-indexed: n=21 fnv=dde712423bf3b1a0 stats={13,32,0,307,0,0}",
    "flag q5 parallel-rbm: n=21 fnv=f0206f524b3cde60 stats={13,32,0,307,0,0}",
    "flag q5 planned: n=21 fnv=dde712423bf3b1a0 stats={13,32,0,307,0,0}",
    "flag q6 rbm: n=20 fnv=32c2dc8279072f35 stats={13,32,0,446,0,0}",
    "flag q6 bwm: n=20 fnv=e25a2371cbee0755 stats={13,32,0,446,0,0}",
    "flag q6 bwm-indexed: n=20 fnv=e25a2371cbee0755 stats={13,32,0,446,0,0}",
    "flag q6 parallel-rbm: n=20 fnv=32c2dc8279072f35 stats={13,32,0,446,0,0}",
    "flag q6 planned: n=20 fnv=e25a2371cbee0755 stats={13,32,0,431,0,0}",
    "flag q7 rbm: n=20 fnv=495139238ef7dd64 stats={13,32,0,464,0,0}",
    "flag q7 bwm: n=20 fnv=dc07605be8fe65a4 stats={13,32,0,464,0,0}",
    "flag q7 bwm-indexed: n=20 fnv=dc07605be8fe65a4 stats={13,32,0,464,0,0}",
    "flag q7 parallel-rbm: n=20 fnv=495139238ef7dd64 stats={13,32,0,464,0,0}",
    "flag q7 planned: n=20 fnv=dc07605be8fe65a4 stats={13,32,0,425,0,0}",
  });
}

}  // namespace
}  // namespace mmdb
