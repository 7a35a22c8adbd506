#ifndef MMDB_INDEX_HISTOGRAM_INDEX_H_
#define MMDB_INDEX_HISTOGRAM_INDEX_H_

#include <map>
#include <vector>

#include "core/histogram.h"
#include "core/query.h"
#include "util/result.h"

namespace mmdb {

/// The conventional access path the paper describes in Section 4's
/// opening: an index over the binary images' histogram signatures, so a
/// range query finds its binary matches without testing each image.
///
/// A range predicate constrains one bin, so it is a 1-D interval query:
/// each bin keeps per-bin sorted postings (the per-color indexing of
/// Belazzougui et al.), and a probe walks one bin's postings over the
/// window. A multidimensional index (an R-tree) would intersect nearly
/// every box with such a window.
///
/// Only conventionally stored images are indexable this way — edited
/// images have no extracted signature, which is exactly why the paper
/// needs RBM/BWM. The index therefore complements, not replaces, those
/// methods.
class HistogramIndex {
 public:
  /// `bins` is the quantizer's bin count.
  explicit HistogramIndex(int32_t bins);

  /// Indexes the signature of binary image `id`. Ids may arrive in any
  /// order.
  Status Insert(ObjectId id, const ColorHistogram& histogram);

  /// Removes the entry `Insert(id, histogram)` made; NotFound (and no
  /// change) when there is none. With duplicates, one is removed.
  Status Remove(ObjectId id, const ColorHistogram& histogram);

  /// Ids of indexed images whose `Fraction(query.bin)` lies in
  /// [min_fraction, max_fraction], bounds inclusive, in no set order.
  /// The bounds must not be NaN; `ValidateConjunctive` refuses them.
  Result<std::vector<ObjectId>> RangeSearch(const RangeQuery& query) const;

  size_t Size() const { return size_; }

 private:
  /// One bin's postings: each stored fraction (the exact value the scan
  /// tests) and the ids that hold it, ascending.
  using Postings = std::map<double, std::vector<ObjectId>>;

  int32_t bins_;
  std::vector<Postings> postings_;
  size_t size_ = 0;
};

}  // namespace mmdb

#endif  // MMDB_INDEX_HISTOGRAM_INDEX_H_
