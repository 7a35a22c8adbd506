#include "core/collection.h"

#include <algorithm>
#include <limits>
#include <numeric>

namespace mmdb {

BoundsRow BoundsColumn::operator[](size_t i) const {
  const Block& block = *blocks_[i / kRowsPerBlock];
  const size_t slot = i % kRowsPerBlock;
  const int32_t* counts = block.counts.get() + slot * 2 * bins_;
  return {counts, counts + bins_, bins_, block.size[slot], block.ops[slot]};
}

void BoundsColumn::Set(size_t i, const BoundsRow& row) {
  Block& block = *blocks_[i / kRowsPerBlock];
  const size_t slot = i % kRowsPerBlock;
  int32_t* counts = block.counts.get() + slot * 2 * bins_;
  std::copy_n(row.hb_min, bins_, counts);
  std::copy_n(row.hb_max, bins_, counts + bins_);
  block.size[slot] = row.size;
  block.ops[slot] = row.ops;
}

void BoundsColumn::Append(const BoundsRow& row) {
  if (rows_ == 0) bins_ = row.bins;
  if (rows_ == blocks_.size() * kRowsPerBlock) {
    auto block = std::make_unique<Block>();
    block->counts =
        std::make_unique_for_overwrite<int32_t[]>(kRowsPerBlock * 2 * bins_);
    blocks_.push_back(std::move(block));
  }
  Set(rows_++, row);
}

void BoundsColumn::Erase(size_t i) {
  for (; i + 1 < rows_; ++i) Set(i, (*this)[i + 1]);
  --rows_;
  blocks_.resize((rows_ + kRowsPerBlock - 1) / kRowsPerBlock);
}

Status AugmentedCollection::AddBinary(BinaryImageInfo info) {
  if (info.id == kInvalidObjectId) {
    return Status::InvalidArgument("binary image id must be non-zero");
  }
  if (binaries_.count(info.id) || editeds_.count(info.id)) {
    return Status::AlreadyExists("object id " + std::to_string(info.id));
  }
  info.cluster.clear();  // Only AddEdited fills a cluster.
  binary_order_.push_back(info.id);
  binaries_.emplace(info.id, std::move(info));
  return Status::OK();
}

Status AugmentedCollection::AddEdited(EditedImageInfo info,
                                      const BoundsRow& bounds) {
  if (info.id == kInvalidObjectId) {
    return Status::InvalidArgument("edited image id must be non-zero");
  }
  if (binaries_.count(info.id) || editeds_.count(info.id)) {
    return Status::AlreadyExists("object id " + std::to_string(info.id));
  }
  const auto base = binaries_.find(info.script.base_id);
  if (base == binaries_.end()) {
    return Status::NotFound("referenced base image " +
                            std::to_string(info.script.base_id) +
                            " is not a stored binary image");
  }
  if (edited_bounds_.size() > 0 && bounds.bins != edited_bounds_.bins()) {
    return Status::InvalidArgument(
        "bounds row of edited image " + std::to_string(info.id) + " has " +
        std::to_string(bounds.bins) + " bins, the stored rows " +
        std::to_string(edited_bounds_.bins()));
  }
  // Figure 1, step 3: one non-bound-widening rule sends the image to the
  // Unclassified Component; step 5: otherwise it joins its base's
  // cluster, kept sorted (Section 4.1).
  if (RuleEngine::IsAllBoundWidening(info.script)) {
    std::vector<ObjectId>& cluster = base->second.cluster;
    cluster.insert(std::upper_bound(cluster.begin(), cluster.end(), info.id),
                   info.id);
    ++main_edited_count_;
  } else {
    unclassified_.push_back(info.id);
  }
  info.position = edited_order_.size();
  edited_order_.push_back(info.id);
  edited_bounds_.Append(bounds);
  editeds_.emplace(info.id, std::move(info));
  return Status::OK();
}

namespace {
void EraseId(std::vector<ObjectId>& ids, ObjectId id) {
  ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
}
}  // namespace

Status AugmentedCollection::RemoveEdited(ObjectId id) {
  const auto it = editeds_.find(id);
  if (it == editeds_.end()) {
    return Status::NotFound("edited image " + std::to_string(id));
  }
  std::vector<ObjectId>& cluster =
      binaries_.at(it->second.script.base_id).cluster;
  if (const auto pos = std::lower_bound(cluster.begin(), cluster.end(), id);
      pos != cluster.end() && *pos == id) {
    cluster.erase(pos);
    --main_edited_count_;
  } else {
    EraseId(unclassified_, id);
  }
  const size_t position = it->second.position;
  editeds_.erase(it);
  edited_order_.erase(edited_order_.begin() +
                      static_cast<ptrdiff_t>(position));
  edited_bounds_.Erase(position);
  for (size_t i = position; i < edited_order_.size(); ++i) {
    editeds_.at(edited_order_[i]).position = i;
  }
  return Status::OK();
}

Status AugmentedCollection::RemoveBinary(ObjectId id) {
  const auto it = binaries_.find(id);
  if (it == binaries_.end()) {
    return Status::NotFound("binary image " + std::to_string(id));
  }
  const auto derived = std::count_if(
      editeds_.begin(), editeds_.end(),
      [id](const auto& entry) { return entry.second.script.base_id == id; });
  if (derived > 0) {
    return Status::InvalidArgument(
        "binary image " + std::to_string(id) + " is still the base of " +
        std::to_string(derived) + " edited image(s)");
  }
  EraseId(binary_order_, id);
  binaries_.erase(it);
  return Status::OK();
}

const BinaryImageInfo* AugmentedCollection::FindBinary(ObjectId id) const {
  const auto it = binaries_.find(id);
  return it == binaries_.end() ? nullptr : &it->second;
}

const EditedImageInfo* AugmentedCollection::FindEdited(ObjectId id) const {
  const auto it = editeds_.find(id);
  return it == editeds_.end() ? nullptr : &it->second;
}

Result<const RuleState*> CollectionTargetResolver::Resolve(
    ObjectId id, const std::vector<BinIndex>& bins) const {
  if (resolved_.size() <= in_flight_.size()) resolved_.emplace_back();
  RuleState* out = &resolved_[in_flight_.size()];
  if (const BinaryImageInfo* binary = collection_.FindBinary(id)) {
    static_cast<RuleGeometry&>(*out) =
        RuleGeometry::Full(binary->width, binary->height);
    out->size = binary->histogram.Total();
    out->hb_min.resize(bins.size());
    for (size_t i = 0; i < bins.size(); ++i) {
      out->hb_min[i] = binary->histogram.Count(bins[i]);
    }
    out->hb_max = out->hb_min;
    return out;
  }
  const EditedImageInfo* edited = collection_.FindEdited(id);
  if (edited == nullptr) {
    return Status::NotFound("merge target " + std::to_string(id));
  }
  if (std::find(in_flight_.begin(), in_flight_.end(), id) !=
      in_flight_.end()) {
    return Status::InvalidArgument("merge target cycle through object " +
                                   std::to_string(id));
  }
  const BinaryImageInfo* base = collection_.FindBinary(edited->script.base_id);
  if (base == nullptr) {
    return Status::NotFound("base image of merge target " +
                            std::to_string(id));
  }
  in_flight_.push_back(id);
  const Status folded =
      FoldRules(engine_, edited->script, bins, base->histogram.counts(),
                base->width, base->height, this, out);
  in_flight_.pop_back();
  MMDB_RETURN_IF_ERROR(folded);
  return out;
}

BoundsRowFolder::BoundsRowFolder(const AugmentedCollection& collection,
                                 const RuleEngine& engine)
    : collection_(collection), engine_(engine), resolver_(collection, engine) {}

Result<BoundsRow> BoundsRowFolder::Fold(const EditScript& script) {
  const BinaryImageInfo* base = collection_.FindBinary(script.base_id);
  const size_t bins = static_cast<size_t>(engine_.quantizer().BinCount());
  if (base == nullptr ||
      static_cast<size_t>(base->histogram.BinCount()) != bins) {
    return Status::InvalidArgument("base image " +
                                   std::to_string(script.base_id) +
                                   " is not a stored binary image with " +
                                   std::to_string(bins) + " bins");
  }
  if (bins_.size() != bins) {
    bins_.resize(bins);
    std::iota(bins_.begin(), bins_.end(), BinIndex{0});
  }
  MMDB_RETURN_IF_ERROR(FoldRules(engine_, script, bins_,
                                 base->histogram.counts(), base->width,
                                 base->height, &resolver_, &state_));
  counts_.resize(2 * bins);
  for (size_t i = 0; i < bins; ++i) {
    for (const int64_t count : {state_.hb_min[i], state_.hb_max[i]}) {
      if (count < std::numeric_limits<int32_t>::min() ||
          count > std::numeric_limits<int32_t>::max()) {
        return Status::InvalidArgument(
            "bin " + std::to_string(i) + " may hold " +
            std::to_string(count) + " pixels, more than a bounds row holds");
      }
    }
    counts_[i] = static_cast<int32_t>(state_.hb_min[i]);
    counts_[bins + i] = static_cast<int32_t>(state_.hb_max[i]);
  }
  return BoundsRow{counts_.data(), counts_.data() + bins, bins, state_.size,
                   static_cast<int64_t>(script.ops.size())};
}

}  // namespace mmdb
