#include "core/scan.h"

#include <algorithm>

#include "core/bounds.h"

namespace mmdb {

EditedImageBounder::EditedImageBounder(const AugmentedCollection& collection,
                                       const RuleEngine& engine)
    : collection_(collection), engine_(engine), resolver_(collection, engine) {}

Status EditedImageBounder::Bound(const EditedImageInfo& edited,
                                 const std::vector<RangeQuery>& conjuncts,
                                 CancelCheck* check, QueryResult* out) const {
  const BinaryImageInfo* base = collection_.FindBinary(edited.script.base_id);
  if (base == nullptr) {
    return Status::Corruption("edited image " + std::to_string(edited.id) +
                              " references missing base");
  }
  bool candidate = true;
  size_t tried = 0;
  if (!conjuncts.empty()) {
    bins_.clear();
    for (const RangeQuery& conjunct : conjuncts) bins_.push_back(conjunct.bin);
    MMDB_RETURN_IF_ERROR(FoldRules(engine_, edited.script, bins_,
                                   base->histogram.counts(), base->width,
                                   base->height, &resolver_, &state_, check));
    while (candidate && tried < conjuncts.size()) {
      const RangeQuery& conjunct = conjuncts[tried];
      candidate = ToFractionBounds(state_, tried++)
                      .Overlaps(conjunct.min_fraction, conjunct.max_fraction);
    }
  }
  out->stats.rules_applied +=
      static_cast<int64_t>(edited.script.ops.size() * tried);
  ++out->stats.edited_images_bounded;
  if (candidate) out->ids.push_back(edited.id);
  return Status::OK();
}

ScanQueryProcessor::ScanQueryProcessor(const AugmentedCollection* collection,
                                       const RuleEngine* engine,
                                       ScanSettings settings)
    : collection_(collection), engine_(engine), settings_(settings) {}

Result<QueryResult> ScanQueryProcessor::RunConjunctive(
    const ConjunctiveQuery& query, const QueryContext& ctx) const {
  obs::Span scan_span(settings_.scan_span);
  QueryResult result;
  CancelCheck check(ctx);
  const EditedImageBounder bounder(*collection_, *engine_);

  for (ObjectId id : collection_->binary_ids()) {
    MMDB_RETURN_IF_ERROR(AnnotateInterrupt(ctx, result, check.Check()));
    const BinaryImageInfo* binary = collection_->FindBinary(id);
    ++result.stats.binary_images_checked;
    // Flat mode treats every Main cluster as empty.
    const std::span<const ObjectId> members =
        settings_.clustered ? std::span<const ObjectId>(binary->cluster)
                            : std::span<const ObjectId>();
    // The stored histogram answers the binary image exactly.
    if (query.Satisfies(
            [&](BinIndex bin) { return binary->histogram.Fraction(bin); })) {
      // Fig. 2 step 4.2: every member's range starts at the base's
      // satisfying value and can only widen, so the cluster is accepted
      // unwalked.
      obs::Span accept_span(settings_.accept_span);
      result.ids.push_back(id);
      result.ids.insert(result.ids.end(), members.begin(), members.end());
      result.stats.edited_images_skipped +=
          static_cast<int64_t>(members.size());
    } else if (!members.empty()) {
      // Step 4.3: fall back to the rule fold per member. Only an error
      // pays for the out-of-line annotation.
      const Status bounded =
          BoundEach(members, query, bounder, &check, &result);
      if (!bounded.ok()) return AnnotateInterrupt(ctx, result, bounded);
    }
  }

  // Fig. 2 step 5: the loose edited images always pay the full rule fold.
  const std::vector<ObjectId>& loose = settings_.clustered
                                           ? collection_->unclassified()
                                           : collection_->edited_ids();
  const Status bounded =
      settings_.chunks != nullptr
          ? BoundChunked(loose, query, ctx, &result)
          : BoundEach(loose, query, bounder, &check, &result);
  MMDB_RETURN_IF_ERROR(AnnotateInterrupt(ctx, result, bounded));
  return result;
}

Status ScanQueryProcessor::BoundEach(std::span<const ObjectId> ids,
                                     const ConjunctiveQuery& query,
                                     const EditedImageBounder& bounder,
                                     CancelCheck* check,
                                     QueryResult* out) const {
  for (ObjectId id : ids) {
    MMDB_RETURN_IF_ERROR(check->Check());
    obs::Span walk_span(settings_.rule_walk_span);
    const EditedImageInfo* edited = collection_->FindEdited(id);
    if (edited == nullptr) {
      return Status::Corruption("scan references missing edited image " +
                                std::to_string(id));
    }
    MMDB_RETURN_IF_ERROR(
        bounder.Bound(*edited, query.conjuncts, check->enabled_or_null(), out));
  }
  return Status::OK();
}

Status ScanQueryProcessor::BoundChunked(const std::vector<ObjectId>& loose,
                                        const ConjunctiveQuery& query,
                                        const QueryContext& ctx,
                                        QueryResult* result) const {
  const size_t n = loose.size();
  if (n == 0) return Status::OK();
  const size_t chunk_count =
      std::min(static_cast<size_t>(settings_.chunks->worker_count() + 1), n);
  struct Chunk {
    QueryResult out;
    Status status;
  };
  std::vector<Chunk> chunks(chunk_count);
  settings_.chunks->ParallelFor(chunk_count, [&](size_t w) {
    // Neither the bounder's cycle and walk state nor the check's stride
    // countdown is shareable across threads, so each chunk owns both.
    const EditedImageBounder bounder(*collection_, *engine_);
    CancelCheck check(ctx);
    const size_t begin = n * w / chunk_count;
    const size_t end = n * (w + 1) / chunk_count;
    chunks[w].status =
        BoundEach(std::span(loose).subspan(begin, end - begin), query,
                  bounder, &check, &chunks[w].out);
  });

  // Merge every chunk, so an interrupted scan still reports all partial
  // work; hard errors outrank interrupts.
  Status interrupt;
  for (Chunk& chunk : chunks) {
    result->ids.insert(result->ids.end(), chunk.out.ids.begin(),
                       chunk.out.ids.end());
    result->stats += chunk.out.stats;
    if (!chunk.status.ok()) {
      if (!IsInterruptStatus(chunk.status)) return chunk.status;
      if (interrupt.ok()) interrupt = chunk.status;
    }
  }
  return interrupt;
}

}  // namespace mmdb
