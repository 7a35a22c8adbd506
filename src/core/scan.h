#ifndef MMDB_CORE_SCAN_H_
#define MMDB_CORE_SCAN_H_

#include <span>
#include <vector>

#include "core/cancel.h"
#include "core/collection.h"
#include "core/executor.h"
#include "core/query.h"
#include "core/query_processor.h"
#include "core/rules.h"
#include "obs/trace.h"
#include "util/result.h"

namespace mmdb {

/// The per-edited-image step of the paper's Fig. 2 (steps 4.3 and 5),
/// written once: folds the Table 1 rules over the image's script once
/// for every conjunct's bin, then tests the conjuncts in order, stopping
/// at the first whose bounds miss its range; counts
/// `edited_images_bounded` and `rules_applied`; and keeps the id when
/// every conjunct's bounds overlap. An image is dropped only when some
/// conjunct provably fails, so there are no false negatives. The scan
/// kernel calls it for every edited image it does not accept wholesale.
class EditedImageBounder {
 public:
  /// Both referents must outlive the bounder. The bounder owns a
  /// Merge-target resolver whose cycle-detection state is per instance,
  /// and the state its walks reuse, so use one bounder per thread.
  EditedImageBounder(const AugmentedCollection& collection,
                     const RuleEngine& engine);

  /// Bounds `edited` against `conjuncts`, adding its work counters to
  /// `out->stats` and its id to `out->ids` when it may match.
  /// `rules_applied` grows by the script's length times the conjuncts
  /// tested, up to and including the first that fails: what a walk per
  /// conjunct would count. `check` (null for none) is consulted before
  /// every operation.
  Status Bound(const EditedImageInfo& edited,
               const std::vector<RangeQuery>& conjuncts, CancelCheck* check,
               QueryResult* out) const;

 private:
  const AugmentedCollection& collection_;
  const RuleEngine& engine_;
  const CollectionTargetResolver resolver_;
  /// Reused by every walk: the conjuncts' bins and their rule state.
  mutable std::vector<BinIndex> bins_;
  mutable RuleState state_;
};

/// How the scan kernel walks the corpus. Two settings pick the access
/// path: `clustered` (clustered vs flat) and `chunks` (chunked vs serial);
/// `MultimediaDatabase::MakeProcessor` maps each scan method onto them.
struct ScanSettings {
  /// Clustered mode (BWM): with each binary image, accept its Main
  /// cluster whole when the image satisfies every conjunct, else bound
  /// the cluster's members; then bound the Unclassified images. Flat mode
  /// (RBM, false): check every binary image, then bound every edited
  /// image.
  bool clustered = false;
  /// Bounds the loose edited images in contiguous chunks on this pool
  /// (the calling thread takes chunks too); null bounds them serially.
  Executor* chunks = nullptr;
  /// Span sites, each optional: the whole scan, one rule walk per
  /// bounded image, and one accept per satisfying binary image.
  obs::SpanCategory* scan_span = nullptr;
  obs::SpanCategory* rule_walk_span = nullptr;
  obs::SpanCategory* accept_span = nullptr;
};

/// The one scan kernel (paper Section 4.2, Fig. 2) behind kRbm, kBwm,
/// kBwmIndexed and kParallelRbm; kPlanned runs its reordered
/// conjunction through kBwm's or kRbm's settings. RBM is the same loop
/// with an empty Main component. It first walks the binary images in
/// insertion order (with their Main clusters in clustered mode), then
/// bounds the loose edited images. Results come in walk order, which
/// chunking preserves (chunks are concatenated in order). Every mode
/// returns the same result *set*.
///
/// Checks `ctx`'s limits per binary image, per bounded image and per
/// rule; an interrupt returns DeadlineExceeded / Cancelled with the
/// partial progress (all chunks merged) in `ctx.interrupt`.
class ScanQueryProcessor : public QueryProcessor {
 public:
  /// The collection, the engine and every pointer in `settings` must
  /// outlive the processor.
  ScanQueryProcessor(const AugmentedCollection* collection,
                     const RuleEngine* engine, ScanSettings settings);

  Result<QueryResult> RunConjunctive(const ConjunctiveQuery& query,
                                     const QueryContext& ctx) const override;

 private:
  /// Bounds each edited image in `ids` into `out`, stopping at the first
  /// error.
  Status BoundEach(std::span<const ObjectId> ids,
                   const ConjunctiveQuery& query,
                   const EditedImageBounder& bounder, CancelCheck* check,
                   QueryResult* out) const;

  /// Bounds `loose` in contiguous chunks on `settings_.chunks`, each with
  /// its own bounder and check, and appends the chunks in order. Returns
  /// the first hard error, else the first interrupt.
  Status BoundChunked(const std::vector<ObjectId>& loose,
                      const ConjunctiveQuery& query, const QueryContext& ctx,
                      QueryResult* result) const;

  const AugmentedCollection* collection_;
  const RuleEngine* engine_;
  ScanSettings settings_;
};

}  // namespace mmdb

#endif  // MMDB_CORE_SCAN_H_
