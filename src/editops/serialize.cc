#include "editops/serialize.h"

#include "util/wire.h"

namespace mmdb {

namespace {

constexpr uint8_t kFormatVersion = 1;

Status Truncated() {
  return Status::Corruption("edit script: truncated record");
}

}  // namespace

std::string EncodeEditScript(const EditScript& script) {
  WireWriter w;
  w.PutU8(kFormatVersion);
  w.PutU64(script.base_id);
  w.PutU32(static_cast<uint32_t>(script.ops.size()));
  for (const EditOp& op : script.ops) {
    w.PutU8(static_cast<uint8_t>(GetOpType(op)));
    std::visit(
        [&w](const auto& concrete) {
          using T = std::decay_t<decltype(concrete)>;
          if constexpr (std::is_same_v<T, DefineOp>) {
            w.PutI32(concrete.region.x0);
            w.PutI32(concrete.region.y0);
            w.PutI32(concrete.region.x1);
            w.PutI32(concrete.region.y1);
          } else if constexpr (std::is_same_v<T, CombineOp>) {
            for (double weight : concrete.weights) w.PutF64(weight);
          } else if constexpr (std::is_same_v<T, ModifyOp>) {
            w.PutU32(concrete.old_color.Packed());
            w.PutU32(concrete.new_color.Packed());
          } else if constexpr (std::is_same_v<T, MutateOp>) {
            for (double v : concrete.m) w.PutF64(v);
          } else {
            // MergeOp.
            w.PutU8(concrete.target.has_value() ? 1 : 0);
            w.PutU64(concrete.target.value_or(kInvalidObjectId));
            w.PutI32(concrete.x);
            w.PutI32(concrete.y);
          }
        },
        op);
  }
  return w.Take();
}

Result<EditScript> DecodeEditScript(const std::string& data) {
  WireReader reader(data);
  uint8_t version = 0;
  if (!reader.GetU8(&version)) return Truncated();
  if (version != kFormatVersion) {
    return Status::Corruption("edit script: unknown format version " +
                              std::to_string(version));
  }
  EditScript script;
  uint32_t op_count = 0;
  if (!reader.GetU64(&script.base_id) || !reader.GetU32(&op_count)) {
    return Truncated();
  }
  if (op_count > (1u << 24)) {
    return Status::Corruption("edit script: implausible op count");
  }
  script.ops.reserve(op_count);
  for (uint32_t i = 0; i < op_count; ++i) {
    uint8_t raw_type = 0;
    if (!reader.GetU8(&raw_type)) return Truncated();
    // Each case reads its fields; the reader's sticky failure flag is
    // checked once the op is read.
    switch (static_cast<EditOpType>(raw_type)) {
      case EditOpType::kDefine: {
        DefineOp op;
        reader.GetI32(&op.region.x0);
        reader.GetI32(&op.region.y0);
        reader.GetI32(&op.region.x1);
        reader.GetI32(&op.region.y1);
        script.ops.emplace_back(op);
        break;
      }
      case EditOpType::kCombine: {
        CombineOp op;
        for (double& weight : op.weights) reader.GetF64(&weight);
        script.ops.emplace_back(op);
        break;
      }
      case EditOpType::kModify: {
        uint32_t old_packed = 0, new_packed = 0;
        reader.GetU32(&old_packed);
        reader.GetU32(&new_packed);
        script.ops.emplace_back(ModifyOp{Rgb::FromPacked(old_packed),
                                         Rgb::FromPacked(new_packed)});
        break;
      }
      case EditOpType::kMutate: {
        MutateOp op;
        for (double& v : op.m) reader.GetF64(&v);
        script.ops.emplace_back(op);
        break;
      }
      case EditOpType::kMerge: {
        MergeOp op;
        uint8_t has_target = 0;
        uint64_t target = 0;
        reader.GetU8(&has_target);
        reader.GetU64(&target);
        if (has_target) op.target = target;
        reader.GetI32(&op.x);
        reader.GetI32(&op.y);
        script.ops.emplace_back(op);
        break;
      }
      default:
        return Status::Corruption("edit script: unknown op tag " +
                                  std::to_string(raw_type));
    }
    if (reader.failed()) return Truncated();
  }
  if (reader.remaining() != 0) {
    return Status::Corruption("edit script: trailing bytes");
  }
  return script;
}

}  // namespace mmdb
