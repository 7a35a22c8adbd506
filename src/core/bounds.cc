#include "core/bounds.h"

namespace mmdb {

Result<RuleState> ComputeRuleState(const RuleEngine& engine,
                                   const EditScript& script, BinIndex hb,
                                   int64_t base_hb_count, int32_t base_width,
                                   int32_t base_height,
                                   const TargetBoundsResolver& resolver,
                                   CancelCheck* check) {
  RuleState state =
      RuleEngine::InitialState(base_hb_count, base_width, base_height);
  for (const EditOp& op : script.ops) {
    if (check != nullptr) MMDB_RETURN_IF_ERROR(check->Check());
    MMDB_RETURN_IF_ERROR(engine.ApplyRule(op, hb, resolver, &state));
  }
  return state;
}

Result<AllBinRuleState> ComputeAllBinRuleState(
    const RuleEngine& engine, const EditScript& script,
    const std::vector<int64_t>& base_counts, int32_t base_width,
    int32_t base_height, const AllBinTargetResolver& resolver,
    CancelCheck* check) {
  AllBinRuleState state =
      RuleEngine::InitialAllBinState(base_counts, base_width, base_height);
  for (const EditOp& op : script.ops) {
    if (check != nullptr) MMDB_RETURN_IF_ERROR(check->Check());
    MMDB_RETURN_IF_ERROR(engine.ApplyRuleToAllBins(op, resolver, &state));
  }
  return state;
}

namespace {

FractionBounds Fractions(int64_t hb_min, int64_t hb_max, int64_t size) {
  FractionBounds bounds;
  if (size > 0) {
    bounds.min_fraction = static_cast<double>(hb_min) / size;
    bounds.max_fraction = static_cast<double>(hb_max) / size;
  }
  return bounds;
}

}  // namespace

FractionBounds ToFractionBounds(const RuleState& state) {
  return Fractions(state.hb_min, state.hb_max, state.size);
}

FractionBounds ToFractionBounds(const AllBinRuleState& state, BinIndex bin) {
  const size_t i = static_cast<size_t>(bin);
  return Fractions(state.hb_min[i], state.hb_max[i], state.size);
}

Result<FractionBounds> ComputeBounds(const RuleEngine& engine,
                                     const EditScript& script, BinIndex hb,
                                     int64_t base_hb_count,
                                     int32_t base_width, int32_t base_height,
                                     const TargetBoundsResolver& resolver,
                                     CancelCheck* check) {
  MMDB_ASSIGN_OR_RETURN(
      RuleState state,
      ComputeRuleState(engine, script, hb, base_hb_count, base_width,
                       base_height, resolver, check));
  return ToFractionBounds(state);
}

}  // namespace mmdb
