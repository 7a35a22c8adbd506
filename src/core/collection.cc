#include "core/collection.h"

#include <algorithm>
#include <memory>
#include <set>

#include "core/bounds.h"

namespace mmdb {

Status AugmentedCollection::AddBinary(BinaryImageInfo info) {
  if (info.id == kInvalidObjectId) {
    return Status::InvalidArgument("binary image id must be non-zero");
  }
  if (binaries_.count(info.id) || editeds_.count(info.id)) {
    return Status::AlreadyExists("object id " + std::to_string(info.id));
  }
  binary_order_.push_back(info.id);
  binaries_.emplace(info.id, std::move(info));
  return Status::OK();
}

Status AugmentedCollection::AddEdited(EditedImageInfo info) {
  if (info.id == kInvalidObjectId) {
    return Status::InvalidArgument("edited image id must be non-zero");
  }
  if (binaries_.count(info.id) || editeds_.count(info.id)) {
    return Status::AlreadyExists("object id " + std::to_string(info.id));
  }
  if (!binaries_.count(info.script.base_id)) {
    return Status::NotFound("referenced base image " +
                            std::to_string(info.script.base_id) +
                            " is not a stored binary image");
  }
  base_to_edited_[info.script.base_id].push_back(info.id);
  edited_order_.push_back(info.id);
  editeds_.emplace(info.id, std::move(info));
  return Status::OK();
}

namespace {
void EraseId(std::vector<ObjectId>& ids, ObjectId id) {
  ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
}
}  // namespace

Status AugmentedCollection::RemoveEdited(ObjectId id) {
  const auto it = editeds_.find(id);
  if (it == editeds_.end()) {
    return Status::NotFound("edited image " + std::to_string(id));
  }
  const auto connection = base_to_edited_.find(it->second.script.base_id);
  if (connection != base_to_edited_.end()) {
    EraseId(connection->second, id);
    if (connection->second.empty()) base_to_edited_.erase(connection);
  }
  EraseId(edited_order_, id);
  editeds_.erase(it);
  return Status::OK();
}

Status AugmentedCollection::RemoveBinary(ObjectId id) {
  const auto it = binaries_.find(id);
  if (it == binaries_.end()) {
    return Status::NotFound("binary image " + std::to_string(id));
  }
  if (const auto connection = base_to_edited_.find(id);
      connection != base_to_edited_.end() && !connection->second.empty()) {
    return Status::InvalidArgument(
        "binary image " + std::to_string(id) + " is still the base of " +
        std::to_string(connection->second.size()) + " edited image(s)");
  }
  EraseId(binary_order_, id);
  binaries_.erase(it);
  return Status::OK();
}

const BinaryImageInfo* AugmentedCollection::FindBinary(ObjectId id) const {
  const auto it = binaries_.find(id);
  return it == binaries_.end() ? nullptr : &it->second;
}

const EditedImageInfo* AugmentedCollection::FindEdited(ObjectId id) const {
  const auto it = editeds_.find(id);
  return it == editeds_.end() ? nullptr : &it->second;
}

const std::vector<ObjectId>& AugmentedCollection::EditedOf(
    ObjectId base_id) const {
  static const std::vector<ObjectId> kEmpty;
  const auto it = base_to_edited_.find(base_id);
  return it == base_to_edited_.end() ? kEmpty : it->second;
}

TargetBoundsResolver AugmentedCollection::MakeTargetResolver(
    const RuleEngine& engine) const {
  // The in-flight set detects cycles: an edited image whose Merge target
  // (transitively) references itself is rejected rather than looping.
  // Recursion goes through the ResolveTargetBounds member, not a
  // self-capturing std::function, which would own itself and leak.
  auto in_flight = std::make_shared<std::set<ObjectId>>();
  return [this, &engine, in_flight](ObjectId id, BinIndex hb) {
    return ResolveTargetBounds(engine, id, hb, in_flight.get());
  };
}

AllBinTargetResolver AugmentedCollection::MakeAllBinTargetResolver(
    const RuleEngine& engine) const {
  auto in_flight = std::make_shared<std::set<ObjectId>>();
  return [this, &engine, in_flight](ObjectId id) {
    return ResolveAllBinTarget(engine, id, in_flight.get());
  };
}

template <typename Bounds, typename FromBinary, typename FromEdited>
Result<Bounds> AugmentedCollection::ResolveTarget(
    ObjectId id, std::set<ObjectId>* in_flight, const FromBinary& from_binary,
    const FromEdited& from_edited) const {
  if (const BinaryImageInfo* binary = FindBinary(id)) {
    return from_binary(*binary);
  }
  const EditedImageInfo* edited = FindEdited(id);
  if (edited == nullptr) {
    return Status::NotFound("merge target " + std::to_string(id));
  }
  if (!in_flight->insert(id).second) {
    return Status::InvalidArgument("merge target cycle through object " +
                                   std::to_string(id));
  }
  const BinaryImageInfo* base = FindBinary(edited->script.base_id);
  if (base == nullptr) {
    in_flight->erase(id);
    return Status::NotFound("base image of merge target " +
                            std::to_string(id));
  }
  Result<Bounds> out = from_edited(*edited, *base);
  in_flight->erase(id);
  return out;
}

Result<TargetBounds> AugmentedCollection::ResolveTargetBounds(
    const RuleEngine& engine, ObjectId id, BinIndex hb,
    std::set<ObjectId>* in_flight) const {
  return ResolveTarget<TargetBounds>(
      id, in_flight,
      [hb](const BinaryImageInfo& binary) -> Result<TargetBounds> {
        TargetBounds out;
        out.hb_min = out.hb_max = binary.histogram.Count(hb);
        out.size = binary.histogram.Total();
        out.width = binary.width;
        out.height = binary.height;
        return out;
      },
      [&](const EditedImageInfo& edited,
          const BinaryImageInfo& base) -> Result<TargetBounds> {
        MMDB_ASSIGN_OR_RETURN(
            RuleState state,
            ComputeRuleState(engine, edited.script, hb,
                             base.histogram.Count(hb), base.width,
                             base.height, [&](ObjectId target, BinIndex bin) {
                               return ResolveTargetBounds(engine, target, bin,
                                                          in_flight);
                             }));
        TargetBounds out;
        out.hb_min = state.hb_min;
        out.hb_max = state.hb_max;
        out.size = state.size;
        out.width = state.width;
        out.height = state.height;
        return out;
      });
}

Result<AllBinRuleState> AugmentedCollection::ResolveAllBinTarget(
    const RuleEngine& engine, ObjectId id,
    std::set<ObjectId>* in_flight) const {
  return ResolveTarget<AllBinRuleState>(
      id, in_flight,
      [](const BinaryImageInfo& binary) -> Result<AllBinRuleState> {
        AllBinRuleState out;
        out.hb_min = out.hb_max = binary.histogram.counts();
        out.size = binary.histogram.Total();
        out.width = binary.width;
        out.height = binary.height;
        return out;
      },
      [&](const EditedImageInfo& edited, const BinaryImageInfo& base) {
        return ComputeAllBinRuleState(
            engine, edited.script, base.histogram.counts(), base.width,
            base.height, [&](ObjectId target) {
              return ResolveAllBinTarget(engine, target, in_flight);
            });
      });
}

}  // namespace mmdb
