#ifndef MMDB_CORE_COLLECTION_H_
#define MMDB_CORE_COLLECTION_H_

#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/bounds.h"
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
  /// Where the image sits in `edited_ids()` and its bounds row in
  /// `edited_bounds()`. Only `AugmentedCollection` writes it.
  size_t position = 0;
};

/// The edited images' bounds rows, row i for `edited_ids()[i]`, in fixed
/// blocks of `kRowsPerBlock` rows. Growth never copies a stored row, as a
/// flat vector does each time it doubles (those copies raise peak RSS).
/// Every row has the width of the first.
class BoundsColumn {
 public:
  static constexpr size_t kRowsPerBlock = 128;

  size_t size() const { return rows_; }
  /// Bins per row (0 while empty).
  size_t bins() const { return bins_; }
  /// Row `i`; valid until the column next changes.
  BoundsRow operator[](size_t i) const;

  /// Appends a copy of `row`, whose width must be `bins()` unless the
  /// column is empty.
  void Append(const BoundsRow& row);
  /// Removes row `i`; the rows after it move up by one.
  void Erase(size_t i);

 private:
  struct Block {
    int64_t size[kRowsPerBlock];
    int64_t ops[kRowsPerBlock];
    /// Per row: `bins_` hb_min counts, then `bins_` hb_max counts.
    std::unique_ptr<int32_t[]> counts;
  };
  void Set(size_t i, const BoundsRow& row);

  size_t bins_ = 0;
  size_t rows_ = 0;
  std::vector<std::unique_ptr<Block>> blocks_;
};

/// The in-memory description of an augmented image database: every binary
/// image's signature plus every edited image's operation sequence and
/// bounds row, and the paper's BWM structure (Section 4.1) over them: a
/// Main Component of `<B_id, E_list>` clusters, one per binary image
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

  /// Registers an edited image with its bounds row, the fold of its
  /// script over every bin (`BoundsRowFolder`), which is copied. Its
  /// `script.base_id` must identify a binary image already present, and
  /// the row must be as wide as the stored rows. Figure 1: the image joins
  /// its base's Main cluster when every operation's rule is
  /// bound-widening, the Unclassified Component otherwise.
  Status AddEdited(EditedImageInfo info, const BoundsRow& bounds);

  /// Removes an edited image, and with it its classification and its
  /// bounds row. NotFound when absent.
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
  /// Their bounds rows: `edited_bounds()[i]` is `edited_ids()[i]`'s.
  const BoundsColumn& edited_bounds() const { return edited_bounds_; }
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
  BoundsColumn edited_bounds_;
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

/// Folds an edited image's script over every bin into the row
/// `AugmentedCollection::AddEdited` stores, reusing one rule state, bin
/// list and resolver across images: one folder per thread. The
/// collection and the engine must outlive it.
class BoundsRowFolder {
 public:
  BoundsRowFolder(const AugmentedCollection& collection,
                  const RuleEngine& engine);

  /// The row of `script`, whose base and Merge targets must be in the
  /// collection; valid until the next call. InvalidArgument when a count
  /// does not fit int32 (a pure-scale Mutate can grow an image past
  /// 2^31 pixels).
  Result<BoundsRow> Fold(const EditScript& script);

 private:
  const AugmentedCollection& collection_;
  const RuleEngine& engine_;
  const CollectionTargetResolver resolver_;
  /// Every bin of the engine's quantizer, in order. Filled at the first
  /// fold: a reopened database adopts its stored quantizer after its
  /// folder is built.
  std::vector<BinIndex> bins_;
  RuleState state_;
  std::vector<int32_t> counts_;
};

}  // namespace mmdb

#endif  // MMDB_CORE_COLLECTION_H_
