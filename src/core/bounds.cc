#include "core/bounds.h"

namespace mmdb {

Status FoldRules(const RuleEngine& engine, const EditScript& script,
                 const std::vector<BinIndex>& bins,
                 const std::vector<int64_t>& base_counts, int32_t base_width,
                 int32_t base_height, const MergeTargetResolver* resolver,
                 RuleState* state, CancelCheck* check) {
  static_cast<RuleGeometry&>(*state) =
      RuleGeometry::Full(base_width, base_height);
  state->hb_min.resize(bins.size());
  for (size_t i = 0; i < bins.size(); ++i) {
    state->hb_min[i] = base_counts[static_cast<size_t>(bins[i])];
  }
  state->hb_max = state->hb_min;
  for (const EditOp& op : script.ops) {
    if (check != nullptr) MMDB_RETURN_IF_ERROR(check->Check());
    MMDB_RETURN_IF_ERROR(engine.ApplyRule(op, bins, resolver, state));
  }
  return Status::OK();
}

}  // namespace mmdb
