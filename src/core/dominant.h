#ifndef MMDB_CORE_DOMINANT_H_
#define MMDB_CORE_DOMINANT_H_

#include <vector>

#include "core/collection.h"
#include "core/histogram.h"
#include "core/rules.h"
#include "util/result.h"

namespace mmdb {

/// A dominant color of an image: a histogram bin holding at least a
/// threshold fraction of the pixels. Dominant-color sets are the
/// "representation of color without histograms" the paper's Section 6
/// flags for further testing — a handful of (bin, fraction) pairs
/// instead of a full n-dimensional vector.
struct DominantColor {
  BinIndex bin = 0;
  double fraction = 0.0;

  friend bool operator==(const DominantColor&, const DominantColor&) =
      default;
};

/// Extracts the dominant colors of `histogram`: every bin with fraction
/// >= `min_fraction`, strongest first, capped at `max_colors`.
std::vector<DominantColor> ExtractDominantColors(
    const ColorHistogram& histogram, int max_colors = 8,
    double min_fraction = 0.05);

/// Similarity of two dominant-color sets in [0, 1]: the histogram
/// intersection restricted to the kept bins (1 for identical sets, 0 for
/// disjoint ones).
double DominantColorSimilarity(const std::vector<DominantColor>& a,
                               const std::vector<DominantColor>& b);

/// Dominance classification of an edited image's bins, derived from the
/// rule bounds without instantiation: `must` lists bins whose minimum
/// possible fraction already reaches the threshold, `may` those whose
/// maximum does. The exact dominant set always satisfies
/// `must ⊆ exact ⊆ may` (checked by the property suite).
struct DominantCandidates {
  std::vector<BinIndex> must;
  std::vector<BinIndex> may;
};

/// Computes `DominantCandidates` for an edited image in `collection` from
/// its bounds row, folded when the image was added, so `engine` is not
/// consulted. NotFound when `edited` is not the collection's own entry.
Result<DominantCandidates> ClassifyDominantBins(
    const AugmentedCollection& collection, const RuleEngine& engine,
    const EditedImageInfo& edited, double min_fraction = 0.05);

}  // namespace mmdb

#endif  // MMDB_CORE_DOMINANT_H_
