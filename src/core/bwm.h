#ifndef MMDB_CORE_BWM_H_
#define MMDB_CORE_BWM_H_

#include <map>
#include <vector>

#include "core/collection.h"
#include "core/rules.h"

namespace mmdb {

/// The paper's proposed data structure (Section 4.1): a Main Component of
/// `<B_id, E_list>` clusters holding the edited images whose operations
/// all have bound-widening rules, keyed by referenced base image, plus an
/// Unclassified Component for the rest.
///
/// Built incrementally via `InsertBinary` / `InsertEdited` (the paper's
/// Figure 1 insertion algorithm) as images enter the database. The scan
/// kernel (core/scan.h) walks it in clustered mode for kBwm and
/// kBwmIndexed (Figure 2).
class BwmIndex {
 public:
  /// Registers a newly inserted binary image, creating its (empty) Main
  /// cluster. Id lists are kept sorted per the paper.
  void InsertBinary(ObjectId id);

  /// Classifies a newly inserted edited image (Figure 1): appends it to
  /// its base's Main cluster when every operation's rule is
  /// bound-widening, to the Unclassified Component otherwise.
  void InsertEdited(const EditedImageInfo& info);

  /// Removes an edited image from whichever component holds it; no-op if
  /// absent. `base_id` must be the image's referenced base.
  void RemoveEdited(ObjectId id, ObjectId base_id);

  /// Removes a binary image's (empty) Main cluster; no-op if the cluster
  /// still has members or is absent.
  void RemoveBinary(ObjectId id);

  /// The Main Component keyed by base image id, in base-id order.
  const std::map<ObjectId, std::vector<ObjectId>>& main_map() const {
    return main_;
  }

  /// Edited images in the Unclassified Component, in insertion order.
  const std::vector<ObjectId>& Unclassified() const { return unclassified_; }

  /// Total edited images held in Main clusters.
  size_t MainEditedCount() const { return main_edited_count_; }

 private:
  std::map<ObjectId, std::vector<ObjectId>> main_;
  std::vector<ObjectId> unclassified_;
  size_t main_edited_count_ = 0;
};

}  // namespace mmdb

#endif  // MMDB_CORE_BWM_H_
