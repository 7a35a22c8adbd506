#include "core/bwm.h"

#include <algorithm>

namespace mmdb {

void BwmIndex::InsertBinary(ObjectId id) {
  main_.try_emplace(id);  // Sorted by key; cluster starts empty.
}

void BwmIndex::InsertEdited(const EditedImageInfo& info) {
  // Figure 1, step 3: scan the operations; one non-bound-widening rule
  // sends the image to the Unclassified Component.
  if (!RuleEngine::IsAllBoundWidening(info.script)) {
    unclassified_.push_back(info.id);
    return;
  }
  // Figure 1, step 5: append to the cluster of the referenced base image.
  std::vector<ObjectId>& cluster = main_[info.script.base_id];
  // Keep E_list sorted so lookups stay cheap (paper Section 4.1).
  cluster.insert(std::upper_bound(cluster.begin(), cluster.end(), info.id),
                 info.id);
  ++main_edited_count_;
}

void BwmIndex::RemoveEdited(ObjectId id, ObjectId base_id) {
  if (const auto it = main_.find(base_id); it != main_.end()) {
    const auto pos =
        std::lower_bound(it->second.begin(), it->second.end(), id);
    if (pos != it->second.end() && *pos == id) {
      it->second.erase(pos);
      --main_edited_count_;
      return;
    }
  }
  const auto pos = std::find(unclassified_.begin(), unclassified_.end(), id);
  if (pos != unclassified_.end()) unclassified_.erase(pos);
}

void BwmIndex::RemoveBinary(ObjectId id) {
  const auto it = main_.find(id);
  if (it != main_.end() && it->second.empty()) main_.erase(it);
}

}  // namespace mmdb
