#include "core/query.h"

namespace mmdb {

Status ValidateConjunctive(const ConjunctiveQuery& query, BinIndex bin_count) {
  if (query.conjuncts.empty()) {
    return Status::InvalidArgument("conjunctive query has no conjuncts");
  }
  for (const RangeQuery& conjunct : query.conjuncts) {
    if (conjunct.bin < 0 || conjunct.bin >= bin_count) {
      return Status::InvalidArgument("query bin " +
                                     std::to_string(conjunct.bin) +
                                     " out of range");
    }
    // Written so a NaN bound fails too: every comparison with NaN is false.
    if (!(conjunct.min_fraction <= conjunct.max_fraction)) {
      return Status::InvalidArgument("query range is empty or NaN");
    }
  }
  return Status::OK();
}

Status ValidateSimilarity(const SimilarityQuery& query, BinIndex bin_count) {
  if (query.k == 0) {
    return Status::InvalidArgument("similarity query k must be > 0");
  }
  if (query.histogram.BinCount() != bin_count) {
    return Status::InvalidArgument(
        "similarity query histogram has " +
        std::to_string(query.histogram.BinCount()) + " bins; database has " +
        std::to_string(bin_count));
  }
  if (query.histogram.Total() <= 0) {
    return Status::InvalidArgument(
        "similarity query histogram is empty (no pixel mass)");
  }
  return Status::OK();
}

}  // namespace mmdb
