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
/// color histogram and dimensions. Pixels live in the object store, not
/// here — query processing never needs them.
struct BinaryImageInfo {
  ObjectId id = kInvalidObjectId;
  int32_t width = 0;
  int32_t height = 0;
  ColorHistogram histogram;
};

/// Catalog entry for an edited image stored as a sequence of editing
/// operations.
struct EditedImageInfo {
  ObjectId id = kInvalidObjectId;
  EditScript script;
};

/// The in-memory description of an augmented image database: every binary
/// image's signature plus every edited image's operation sequence, with
/// the base->edited connections the paper's Section 2 requires the MMDBMS
/// to maintain.
///
/// This is the structure the RBM and BWM query processors scan. It is
/// deliberately pixel-free; the `MultimediaDatabase` facade keeps it in
/// sync with the backing object store.
class AugmentedCollection {
 public:
  /// Registers a binary image. Fails with AlreadyExists on duplicate ids.
  Status AddBinary(BinaryImageInfo info);

  /// Registers an edited image. Its `script.base_id` must identify a
  /// binary image already present.
  Status AddEdited(EditedImageInfo info);

  /// Removes an edited image. NotFound when absent.
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

  /// Edited images derived from base `base_id` (the stored connection
  /// between x and op(x)).
  const std::vector<ObjectId>& EditedOf(ObjectId base_id) const;

  size_t BinaryCount() const { return binary_order_.size(); }
  size_t EditedCount() const { return edited_order_.size(); }

 private:
  // Hashed by id: nothing needs key order (the *_order_ vectors give
  // insertion order), and elements stay put across a rehash.
  std::unordered_map<ObjectId, BinaryImageInfo> binaries_;
  std::unordered_map<ObjectId, EditedImageInfo> editeds_;
  std::unordered_map<ObjectId, std::vector<ObjectId>> base_to_edited_;
  std::vector<ObjectId> binary_order_;
  std::vector<ObjectId> edited_order_;
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
