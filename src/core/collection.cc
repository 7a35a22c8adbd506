#include "core/collection.h"

#include <algorithm>

#include "core/bounds.h"

namespace mmdb {

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

Status AugmentedCollection::AddEdited(EditedImageInfo info) {
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
  edited_order_.push_back(info.id);
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
  EraseId(edited_order_, id);
  editeds_.erase(it);
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

}  // namespace mmdb
