#include "index/histogram_index.h"

#include <algorithm>
#include <string>
#include <utility>

namespace mmdb {

HistogramIndex::HistogramIndex(int32_t bins)
    : bins_(bins), postings_(static_cast<size_t>(bins)) {}

Status HistogramIndex::Insert(ObjectId id, const ColorHistogram& histogram) {
  if (histogram.BinCount() != bins_) {
    return Status::InvalidArgument("histogram arity mismatch");
  }
  for (BinIndex bin = 0; bin < bins_; ++bin) {
    std::vector<ObjectId>& ids =
        postings_[static_cast<size_t>(bin)][histogram.Fraction(bin)];
    ids.insert(std::upper_bound(ids.begin(), ids.end(), id), id);
  }
  ++size_;
  return Status::OK();
}

Status HistogramIndex::Remove(ObjectId id, const ColorHistogram& histogram) {
  if (histogram.BinCount() != bins_) {
    return Status::InvalidArgument("histogram arity mismatch");
  }
  // Find the entry in every bin before erasing any, so a miss changes
  // nothing.
  std::vector<std::pair<Postings::iterator, std::vector<ObjectId>::iterator>>
      found;
  found.reserve(static_cast<size_t>(bins_));
  for (BinIndex bin = 0; bin < bins_; ++bin) {
    Postings& postings = postings_[static_cast<size_t>(bin)];
    const auto key = postings.find(histogram.Fraction(bin));
    if (key == postings.end()) break;
    std::vector<ObjectId>& ids = key->second;
    const auto pos = std::lower_bound(ids.begin(), ids.end(), id);
    if (pos == ids.end() || *pos != id) break;
    found.emplace_back(key, pos);
  }
  if (found.size() != static_cast<size_t>(bins_)) {
    return Status::NotFound("histogram index: no entry with id " +
                            std::to_string(id));
  }
  for (size_t bin = 0; bin < found.size(); ++bin) {
    const auto [key, pos] = found[bin];
    key->second.erase(pos);
    if (key->second.empty()) postings_[bin].erase(key);
  }
  --size_;
  return Status::OK();
}

Result<std::vector<ObjectId>> HistogramIndex::RangeSearch(
    const RangeQuery& query) const {
  if (query.bin < 0 || query.bin >= bins_) {
    return Status::InvalidArgument("query bin out of range");
  }
  const Postings& postings = postings_[static_cast<size_t>(query.bin)];
  std::vector<ObjectId> out;
  for (auto it = postings.lower_bound(query.min_fraction);
       it != postings.end() && it->first <= query.max_fraction; ++it) {
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  return out;
}

}  // namespace mmdb
