#ifndef MMDB_CORE_INSTANTIATE_H_
#define MMDB_CORE_INSTANTIATE_H_

#include <functional>
#include <utility>

#include "core/collection.h"
#include "core/query.h"
#include "core/query_processor.h"
#include "image/editor.h"
#include "util/result.h"

namespace mmdb {

/// Engine-internal header (`mmdb_internal.h`): applications reach this
/// access path as `QueryMethod::kInstantiate` through `QueryService` or
/// the facade; constructing the processor directly is deprecated as
/// public API.
///
/// Callbacks letting a query processor consult and extend its owner's
/// quarantine set: images whose stored blobs failed checksum
/// verification. A quarantined image is silently excluded from answers
/// (counted in `QueryStats::corrupt_images_skipped`) instead of failing
/// the whole query. Both callbacks may be null (no quarantine).
struct QuarantineHooks {
  /// True iff `id` is already quarantined.
  std::function<bool(ObjectId)> contains;
  /// Records `id` as corrupt (called when instantiation hits Corruption).
  std::function<void(ObjectId)> add;
  /// Records one transient I/O failure for `id` against the owner's
  /// per-image circuit breaker. Returns true when the breaker has opened
  /// (the image is now quarantined and should be skipped); false keeps
  /// the failure fatal for this query. May be null (no breaker).
  std::function<bool(ObjectId)> record_io_failure;
};

/// The naive baseline the paper argues against: answer queries over
/// edited images by materializing each one's pixels with the editor and
/// re-running feature extraction. Exact (no false positives either), but
/// pays the full instantiation cost the rule-based methods avoid.
///
/// The test suite uses this processor as ground truth: RBM/BWM must
/// return a superset of its edited-image matches (no false negatives)
/// and identical binary-image matches.
///
/// Corruption tolerance: when materializing an edited image fails with
/// `Status::Corruption` (bit-flipped raster or edit-script blob), the
/// image is quarantined and skipped rather than failing the query.
class InstantiationQueryProcessor : public QueryProcessor {
 public:
  /// `pixels` resolves any object id (binary images at minimum) to its
  /// raster; all referents must outlive the processor.
  InstantiationQueryProcessor(const AugmentedCollection* collection,
                              const ColorQuantizer* quantizer,
                              ImageResolver pixels);

  /// Installs the owner's quarantine callbacks (default: none).
  void SetQuarantineHooks(QuarantineHooks hooks) {
    quarantine_ = std::move(hooks);
  }

  /// Runs `query` exactly, instantiating every edited image. Checks
  /// `ctx`'s limits per image (instantiation is the natural coarse
  /// boundary; the storage read path below adds per-page checks via
  /// `CancelScope`).
  Result<QueryResult> RunConjunctive(const ConjunctiveQuery& query,
                                     const QueryContext& ctx) const override;

  /// Materializes one edited image (used by examples and by the facade's
  /// retrieval path).
  Result<Image> Materialize(const EditedImageInfo& info) const;

  /// Exact histogram of one edited image.
  Result<ColorHistogram> ExactHistogram(const EditedImageInfo& info) const;

 private:
  /// Exact histogram of edited image `id`, or `*skipped = true` when the
  /// image is (or becomes) quarantined for corruption or repeated I/O
  /// failure. Interrupt statuses (deadline/cancel) always propagate —
  /// they must never quarantine an image or trip the breaker.
  Status HistogramOrQuarantine(ObjectId id, const EditedImageInfo& info,
                               ColorHistogram* hist, bool* skipped) const;

  const AugmentedCollection* collection_;
  const ColorQuantizer* quantizer_;
  ImageResolver pixels_;
  Editor editor_;
  QuarantineHooks quarantine_;
};

}  // namespace mmdb

#endif  // MMDB_CORE_INSTANTIATE_H_
