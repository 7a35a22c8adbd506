#include "core/dominant.h"

#include <algorithm>
#include <map>

#include "core/similarity.h"

namespace mmdb {

std::vector<DominantColor> ExtractDominantColors(
    const ColorHistogram& histogram, int max_colors, double min_fraction) {
  std::vector<DominantColor> out;
  for (BinIndex bin = 0; bin < histogram.BinCount(); ++bin) {
    const double fraction = histogram.Fraction(bin);
    if (fraction >= min_fraction) out.push_back({bin, fraction});
  }
  std::sort(out.begin(), out.end(),
            [](const DominantColor& a, const DominantColor& b) {
              if (a.fraction != b.fraction) return a.fraction > b.fraction;
              return a.bin < b.bin;
            });
  if (max_colors >= 0 && out.size() > static_cast<size_t>(max_colors)) {
    out.resize(static_cast<size_t>(max_colors));
  }
  return out;
}

double DominantColorSimilarity(const std::vector<DominantColor>& a,
                               const std::vector<DominantColor>& b) {
  std::map<BinIndex, double> b_fractions;
  for (const DominantColor& color : b) b_fractions[color.bin] = color.fraction;
  double intersection = 0.0;
  for (const DominantColor& color : a) {
    const auto it = b_fractions.find(color.bin);
    if (it != b_fractions.end()) {
      intersection += std::min(color.fraction, it->second);
    }
  }
  // Normalize by the smaller total mass so identical sets score 1.
  double mass_a = 0.0, mass_b = 0.0;
  for (const DominantColor& color : a) mass_a += color.fraction;
  for (const DominantColor& color : b) mass_b += color.fraction;
  const double denom = std::min(mass_a, mass_b);
  return denom > 0.0 ? intersection / denom : (a.empty() && b.empty() ? 1.0
                                                                      : 0.0);
}

Result<DominantCandidates> ClassifyDominantBins(
    const AugmentedCollection& collection, const RuleEngine& engine,
    const EditedImageInfo& edited, double min_fraction) {
  MMDB_ASSIGN_OR_RETURN(
      auto bounds,
      SimilaritySearcher(&collection, &engine).AllBinBounds(edited));
  const auto& [lo, hi] = bounds;
  DominantCandidates out;
  for (size_t bin = 0; bin < lo.size(); ++bin) {
    if (lo[bin] >= min_fraction) out.must.push_back(static_cast<BinIndex>(bin));
    if (hi[bin] >= min_fraction) out.may.push_back(static_cast<BinIndex>(bin));
  }
  return out;
}

}  // namespace mmdb
