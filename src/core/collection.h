#ifndef MMDB_CORE_COLLECTION_H_
#define MMDB_CORE_COLLECTION_H_

#include <deque>
#include <unordered_map>
#include <vector>

#include "core/histogram.h"
#include "core/rules.h"
#include "editops/edit_ops.h"
#include "util/result.h"

namespace mmdb {

/// Catalog entry for a conventionally stored (binary) image: its extracted
/// color histogram and dimensions, plus its BWM Main cluster. Pixels live
/// in the object store, not here — query processing never needs them.
struct BinaryImageInfo {
  ObjectId id = kInvalidObjectId;
  int32_t width = 0;
  int32_t height = 0;
  ColorHistogram histogram;
  /// The paper's `E_list` (Section 4.1): the edited images derived from
  /// this image whose every operation is bound-widening, ascending. Only
  /// `AugmentedCollection` writes it.
  std::vector<ObjectId> cluster;
};

/// Catalog entry for an edited image stored as a sequence of editing
/// operations.
struct EditedImageInfo {
  ObjectId id = kInvalidObjectId;
  EditScript script;
};

/// The in-memory description of an augmented image database: every binary
/// image's signature plus every edited image's operation sequence, and
/// the paper's BWM structure (Section 4.1) over them: a Main Component of
/// `<B_id, E_list>` clusters, one per binary image
/// (`BinaryImageInfo::cluster`), and an Unclassified Component. Adding an
/// edited image classifies it per the paper's Figure 1.
///
/// This is the structure the RBM and BWM query processors scan. It is
/// deliberately pixel-free; the `MultimediaDatabase` facade keeps it in
/// sync with the backing object store.
class AugmentedCollection {
 public:
  /// Registers a binary image with an empty Main cluster. Fails with
  /// AlreadyExists on duplicate ids.
  Status AddBinary(BinaryImageInfo info);

  /// Registers an edited image. Its `script.base_id` must identify a
  /// binary image already present. Figure 1: the image joins its base's
  /// Main cluster when every operation's rule is bound-widening, the
  /// Unclassified Component otherwise.
  Status AddEdited(EditedImageInfo info);

  /// Removes an edited image, and with it its classification. NotFound
  /// when absent.
  Status RemoveEdited(ObjectId id);

  /// Removes a binary image; fails with InvalidArgument while any stored
  /// edited image still references it as its base.
  Status RemoveBinary(ObjectId id);

  /// Lookup; nullptr when absent.
  const BinaryImageInfo* FindBinary(ObjectId id) const;
  const EditedImageInfo* FindEdited(ObjectId id) const;

  /// All binary images in insertion order.
  const std::vector<ObjectId>& binary_ids() const { return binary_order_; }
  /// All edited images in insertion order.
  const std::vector<ObjectId>& edited_ids() const { return edited_order_; }
  /// Edited images in the Unclassified Component, in insertion order.
  const std::vector<ObjectId>& unclassified() const { return unclassified_; }

  size_t BinaryCount() const { return binary_order_.size(); }
  size_t EditedCount() const { return edited_order_.size(); }
  /// Edited images held in Main clusters.
  size_t MainEditedCount() const { return main_edited_count_; }

 private:
  // Hashed by id: nothing needs key order (the *_order_ vectors give
  // insertion order), and elements stay put across a rehash.
  std::unordered_map<ObjectId, BinaryImageInfo> binaries_;
  std::unordered_map<ObjectId, EditedImageInfo> editeds_;
  std::vector<ObjectId> binary_order_;
  std::vector<ObjectId> edited_order_;
  std::vector<ObjectId> unclassified_;
  size_t main_edited_count_ = 0;
};

/// The resolver the rule engine uses for Merge targets in `collection`: a
/// binary target yields its exact stored counts for the requested bins;
/// an edited target folds the rules over the same bins, recursing through
/// this resolver. A merge-target cycle is rejected rather than looping.
/// The cycle guard is per instance, so use one resolver per thread; the
/// collection and the engine must outlive it.
class CollectionTargetResolver final : public MergeTargetResolver {
 public:
  CollectionTargetResolver(const AugmentedCollection& collection,
                           const RuleEngine& engine)
      : collection_(collection), engine_(engine) {}

  Result<const RuleState*> Resolve(
      ObjectId target, const std::vector<BinIndex>& bins) const override;

 private:
  const AugmentedCollection& collection_;
  const RuleEngine& engine_;
  /// Edited targets being resolved, outermost first.
  mutable std::vector<ObjectId> in_flight_;
  /// The state handed out at each nesting depth, reused across calls; a
  /// deque, so a deeper level never moves a shallower one.
  mutable std::deque<RuleState> resolved_;
};

}  // namespace mmdb

#endif  // MMDB_CORE_COLLECTION_H_
