#ifndef MMDB_TESTS_TEST_UTIL_H_
#define MMDB_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/collection.h"
#include "core/query.h"
#include "datasets/augment.h"
#include "editops/edit_ops.h"
#include "image/image.h"
#include "util/random.h"

namespace mmdb::testing {

/// A random image whose pixels are drawn from `palette_size` saturated
/// palette colors in random rectangles — shaped like the datasets the
/// system targets (few colors, large regions).
Image RandomBlockImage(int32_t width, int32_t height, int palette_size,
                       Rng& rng);

/// The palette `RandomBlockImage` draws from.
std::vector<Rgb> TestPalette();

/// A random, always-valid edit script over a `width` x `height` base
/// image. Exercises every op type, including fractional whole-image
/// scales, shears (general affine stamps), and — when `merge_targets` is
/// non-empty — Merges into real targets. Broader than the dataset
/// generator's scripts; used by the soundness property suite.
EditScript RandomScript(ObjectId base_id, int32_t width, int32_t height,
                        int op_count,
                        const std::vector<datasets::MergeTarget>& merge_targets,
                        Rng& rng);

/// Runs pure-scale Mutates through `engine` (sound mode) over every
/// extent in [1, max_extent] and every scale in {2, 0.5, 1.5, 0.75, 1/3,
/// 0.1, 2.7}, along x on an extent x 1 canvas and along y on a 1 x extent
/// one, each holding one pixel of the queried bin, so the resulting
/// [hb_min, hb_max] is the axis' scale bracket. Compares each against a
/// reference count of the nearest-neighbor resize kept here; returns the
/// first mismatch, or "" when every bracket agrees.
std::string ScaleBracketMismatch(const RuleEngine& engine, int32_t max_extent);

/// A path under `::testing::TempDir()` that no other test shares:
/// `<suite>.<test>.<pid>.<name>`. ctest runs every test as its own
/// process, so two tests using the same fixed file name collide under
/// `ctest -j`.
std::string TempPath(const std::string& name);

/// Removes a disk store's page file and its `.journal` (either may be
/// absent), so a test leaves no files behind.
void RemoveStoreFiles(const std::string& path);

/// Sorts a result id vector into a set for order-insensitive comparison.
std::set<ObjectId> AsSet(const std::vector<ObjectId>& ids);

/// A scan's whole answer: its ordered ids and all six `QueryStats`
/// counters, so one `EXPECT_EQ` compares order and work.
using ScanAnswer = std::tuple<std::vector<ObjectId>, int64_t, int64_t,
                              int64_t, int64_t, int64_t, int64_t>;
ScanAnswer AnswerOf(const QueryResult& result);

}  // namespace mmdb::testing

#endif  // MMDB_TESTS_TEST_UTIL_H_
