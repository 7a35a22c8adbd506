#include "core/instantiate.h"

namespace mmdb {

InstantiationQueryProcessor::InstantiationQueryProcessor(
    const AugmentedCollection* collection, const ColorQuantizer* quantizer,
    ImageResolver pixels)
    : collection_(collection),
      quantizer_(quantizer),
      pixels_(std::move(pixels)),
      editor_(pixels_) {}

Result<Image> InstantiationQueryProcessor::Materialize(
    const EditedImageInfo& info) const {
  MMDB_ASSIGN_OR_RETURN(Image base, pixels_(info.script.base_id));
  return editor_.Instantiate(base, info.script);
}

Result<ColorHistogram> InstantiationQueryProcessor::ExactHistogram(
    const EditedImageInfo& info) const {
  MMDB_ASSIGN_OR_RETURN(Image image, Materialize(info));
  return ExtractHistogram(image, *quantizer_);
}

/// Computes the exact histogram of edited image `id`, routing Corruption
/// into the quarantine instead of up the call chain. Returns OK with
/// `*skipped = true` when the image must be excluded from the answer.
Status InstantiationQueryProcessor::HistogramOrQuarantine(
    ObjectId id, const EditedImageInfo& info, ColorHistogram* hist,
    bool* skipped) const {
  *skipped = false;
  if (quarantine_.contains && quarantine_.contains(id)) {
    *skipped = true;
    return Status::OK();
  }
  Result<ColorHistogram> exact = ExactHistogram(info);
  if (!exact.ok()) {
    if (exact.status().code() == StatusCode::kCorruption) {
      if (quarantine_.add) quarantine_.add(id);
      *skipped = true;
      return Status::OK();
    }
    if (exact.status().code() == StatusCode::kIoError &&
        quarantine_.record_io_failure && quarantine_.record_io_failure(id)) {
      // The circuit breaker tripped: the owner has quarantined the image,
      // so this query (and all later ones) skips it instead of failing.
      *skipped = true;
      return Status::OK();
    }
    return exact.status();
  }
  *hist = *std::move(exact);
  return Status::OK();
}

Result<QueryResult> InstantiationQueryProcessor::RunConjunctive(
    const ConjunctiveQuery& query, const QueryContext& ctx) const {
  QueryResult result;
  CancelCheck check(ctx);
  for (ObjectId id : collection_->binary_ids()) {
    MMDB_RETURN_IF_ERROR(AnnotateInterrupt(ctx, result, check.Check()));
    const BinaryImageInfo* binary = collection_->FindBinary(id);
    ++result.stats.binary_images_checked;
    if (query.Satisfies([&](BinIndex bin) {
          return binary->histogram.Fraction(bin);
        })) {
      result.ids.push_back(id);
    }
  }
  for (ObjectId id : collection_->edited_ids()) {
    MMDB_RETURN_IF_ERROR(AnnotateInterrupt(ctx, result, check.Check()));
    const EditedImageInfo* edited = collection_->FindEdited(id);
    ColorHistogram hist;
    bool skipped = false;
    MMDB_RETURN_IF_ERROR(AnnotateInterrupt(
        ctx, result, HistogramOrQuarantine(id, *edited, &hist, &skipped)));
    if (skipped) {
      ++result.stats.corrupt_images_skipped;
      continue;
    }
    ++result.stats.images_instantiated;
    if (query.Satisfies(
            [&](BinIndex bin) { return hist.Fraction(bin); })) {
      result.ids.push_back(id);
    }
  }
  return result;
}

}  // namespace mmdb
