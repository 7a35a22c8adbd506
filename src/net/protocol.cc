#include "net/protocol.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "net/status_codes.h"
#include "util/wire.h"

namespace mmdb::net {

namespace {

/// Frame payload skeleton: header then caller-appended fields.
WireWriter BeginFrame(FrameType type, uint16_t version = kProtocolVersion) {
  WireWriter w;
  w.PutU32(kMagic);
  w.PutU16(version);
  w.PutU16(static_cast<uint16_t>(type));
  return w;
}

/// Iterates the tagged fields of a frame region, handing each known
/// field's payload to `visit(tag, payload)`. Unknown tags are skipped —
/// this loop is where forward compatibility actually happens. Returns
/// InvalidArgument on structurally broken field framing (truncated tag,
/// length past the end).
template <typename Visitor>
Status ForEachField(std::string_view fields, Visitor&& visit) {
  WireReader r(fields);
  while (r.remaining() > 0) {
    uint16_t field_tag;
    uint32_t length;
    std::string_view payload;
    if (!r.GetU16(&field_tag) || !r.GetU32(&length) ||
        !r.GetBytes(length, &payload)) {
      return Status::InvalidArgument("truncated field framing");
    }
    MMDB_RETURN_IF_ERROR(visit(field_tag, payload));
  }
  return Status::OK();
}

}  // namespace

Result<Frame> ParseFrame(std::string_view payload) {
  WireReader r(payload);
  uint32_t magic;
  Frame frame;
  if (!r.GetU32(&magic) || !r.GetU16(&frame.version) ||
      !r.GetU16(&frame.raw_type)) {
    return Status::InvalidArgument("frame shorter than its header");
  }
  if (magic != kMagic) {
    return Status::InvalidArgument("bad frame magic (not an mmdb peer?)");
  }
  if (frame.version < kMinProtocolVersion) {
    return Status::InvalidArgument(
        "peer protocol version " + std::to_string(frame.version) +
        " is older than the supported minimum " +
        std::to_string(kMinProtocolVersion));
  }
  frame.fields = payload.substr(kFrameHeaderBytes);
  return frame;
}

uint8_t QueryMethodToWire(QueryMethod method) {
  // Appended-only wire values; exhaustive so a new QueryMethod fails the
  // build here rather than ship unserializable.
  switch (method) {
    case QueryMethod::kInstantiate:
      return 0;
    case QueryMethod::kRbm:
      return 1;
    case QueryMethod::kBwm:
      return 2;
    case QueryMethod::kBwmIndexed:
      return 3;
    case QueryMethod::kParallelRbm:
      return 4;
    case QueryMethod::kPlanned:
      return 5;
  }
  return 0xff;  // Unreachable for valid enum values.
}

Result<QueryMethod> QueryMethodFromWire(uint8_t wire_method) {
  switch (wire_method) {
    case 0:
      return QueryMethod::kInstantiate;
    case 1:
      return QueryMethod::kRbm;
    case 2:
      return QueryMethod::kBwm;
    case 3:
      return QueryMethod::kBwmIndexed;
    case 4:
      return QueryMethod::kParallelRbm;
    case 5:
      return QueryMethod::kPlanned;
    default:
      return Status::InvalidArgument("unknown query method code " +
                                     std::to_string(wire_method) +
                                     " (peer newer than this server?)");
  }
}

namespace {

/// kExecuteRequest and kExplainRequest share one field schema.
std::string EncodeRequestFields(FrameType type, const QueryRequest& request,
                                uint16_t version) {
  WireWriter w = BeginFrame(type, version);
  {
    WireWriter f;
    f.PutU8(QueryMethodToWire(request.method));
    w.PutField(tag::kMethod, f.data());
  }
  if (const RangeQuery* range = request.range()) {
    WireWriter f;
    f.PutU32(static_cast<uint32_t>(range->bin));
    f.PutF64(range->min_fraction);
    f.PutF64(range->max_fraction);
    w.PutField(tag::kRange, f.data());
  }
  if (const ConjunctiveQuery* conjunctive = request.conjunctive()) {
    WireWriter f;
    f.PutU32(static_cast<uint32_t>(conjunctive->conjuncts.size()));
    for (const RangeQuery& conjunct : conjunctive->conjuncts) {
      f.PutU32(static_cast<uint32_t>(conjunct.bin));
      f.PutF64(conjunct.min_fraction);
      f.PutF64(conjunct.max_fraction);
    }
    w.PutField(tag::kConjuncts, f.data());
  }
  if (const SimilarityQuery* similarity = request.similarity()) {
    // Integer pixel counts (not fractions) cross the wire, so the server
    // reconstructs the exact histogram and loopback results stay
    // bit-identical to the embedded path.
    WireWriter f;
    f.PutU32(similarity->k);
    f.PutU32(static_cast<uint32_t>(similarity->histogram.BinCount()));
    for (int64_t count : similarity->histogram.counts()) f.PutI64(count);
    w.PutField(tag::kSimilarity, f.data());
  }
  if (!request.deadline.IsInfinite()) {
    // Remaining milliseconds, floored at zero: an already-expired
    // deadline still travels (the server answers DeadlineExceeded, the
    // same thing the embedded path would do).
    const double remaining =
        std::max(0.0, request.deadline.RemainingSeconds());
    WireWriter f;
    f.PutU64(static_cast<uint64_t>(std::llround(remaining * 1000.0)));
    w.PutField(tag::kDeadlineMs, f.data());
  }
  return w.Take();
}

/// Reads one (bin, min, max) range predicate, refusing a NaN bound: no
/// window has a NaN end, and a peer's bytes may hold any f64.
Status GetRangeQuery(WireReader& f, std::string_view what, RangeQuery* out) {
  uint32_t bin;
  if (!f.GetU32(&bin) || !f.GetF64(&out->min_fraction) ||
      !f.GetF64(&out->max_fraction)) {
    return Status::InvalidArgument("truncated " + std::string(what));
  }
  if (std::isnan(out->min_fraction) || std::isnan(out->max_fraction)) {
    return Status::InvalidArgument("NaN fraction bound in " +
                                   std::string(what));
  }
  out->bin = static_cast<BinIndex>(bin);
  return Status::OK();
}

}  // namespace

std::string EncodeExecuteRequest(const QueryRequest& request,
                                 uint16_t version) {
  return EncodeRequestFields(FrameType::kExecuteRequest, request, version);
}

std::string EncodeExplainRequest(const QueryRequest& request,
                                 uint16_t version) {
  return EncodeRequestFields(FrameType::kExplainRequest, request, version);
}

Result<QueryRequest> DecodeExecuteRequest(const Frame& frame) {
  QueryRequest request;
  bool saw_method = false;
  bool saw_range = false;
  bool saw_conjuncts = false;
  bool saw_similarity = false;
  Status walk = ForEachField(
      frame.fields,
      [&](uint16_t field_tag, std::string_view payload) -> Status {
        WireReader f(payload);
        switch (field_tag) {
          case tag::kMethod: {
            uint8_t method;
            if (!f.GetU8(&method)) {
              return Status::InvalidArgument("truncated method field");
            }
            MMDB_ASSIGN_OR_RETURN(request.method,
                                  QueryMethodFromWire(method));
            saw_method = true;
            return Status::OK();
          }
          case tag::kRange: {
            RangeQuery range;
            MMDB_RETURN_IF_ERROR(GetRangeQuery(f, "range field", &range));
            request.payload = range;
            saw_range = true;
            return Status::OK();
          }
          case tag::kConjuncts: {
            uint32_t count;
            if (!f.GetU32(&count)) {
              return Status::InvalidArgument("truncated conjunct count");
            }
            ConjunctiveQuery conjunctive;
            for (uint32_t i = 0; i < count; ++i) {
              RangeQuery conjunct;
              MMDB_RETURN_IF_ERROR(
                  GetRangeQuery(f, "conjunct list", &conjunct));
              conjunctive.conjuncts.push_back(conjunct);
            }
            request.payload = std::move(conjunctive);
            saw_conjuncts = true;
            return Status::OK();
          }
          case tag::kSimilarity: {
            uint32_t k;
            uint32_t bins;
            if (!f.GetU32(&k) || !f.GetU32(&bins)) {
              return Status::InvalidArgument("truncated similarity field");
            }
            if (f.remaining() != static_cast<size_t>(bins) * 8) {
              return Status::InvalidArgument(
                  "similarity histogram length disagrees with its arity");
            }
            SimilarityQuery similarity;
            similarity.k = k;
            similarity.histogram =
                ColorHistogram(static_cast<int32_t>(bins));
            for (uint32_t bin = 0; bin < bins; ++bin) {
              int64_t count;
              if (!f.GetI64(&count)) {
                return Status::InvalidArgument(
                    "truncated similarity histogram");
              }
              similarity.histogram.Add(static_cast<BinIndex>(bin), count);
            }
            request.payload = std::move(similarity);
            saw_similarity = true;
            return Status::OK();
          }
          case tag::kDeadlineMs: {
            uint64_t ms;
            if (!f.GetU64(&ms)) {
              return Status::InvalidArgument("truncated deadline field");
            }
            request.deadline =
                Deadline::After(static_cast<double>(ms) / 1000.0);
            return Status::OK();
          }
          default:
            // Unknown tag from a newer peer: skipped by construction.
            return Status::OK();
        }
      });
  MMDB_RETURN_IF_ERROR(walk);
  if (!saw_method) {
    return Status::InvalidArgument("execute frame lacks a method field");
  }
  // The variant holds whichever payload tag decoded last; the wire stays
  // strict regardless: exactly one payload tag per frame.
  const int payloads = static_cast<int>(saw_range) +
                       static_cast<int>(saw_conjuncts) +
                       static_cast<int>(saw_similarity);
  if (payloads != 1) {
    return Status::InvalidArgument(
        "execute frame must carry exactly one of a range, conjunctive, "
        "or similarity query");
  }
  return request;
}

std::string EncodeResultChunk(std::span<const ObjectId> ids) {
  WireWriter w = BeginFrame(FrameType::kResultChunk);
  WireWriter f;
  for (ObjectId id : ids) f.PutU64(id);
  w.PutField(tag::kIds, f.data());
  return w.Take();
}

Status DecodeResultChunk(const Frame& frame, std::vector<ObjectId>* ids) {
  return ForEachField(
      frame.fields,
      [&](uint16_t field_tag, std::string_view payload) -> Status {
        if (field_tag != tag::kIds) return Status::OK();
        if (payload.size() % 8 != 0) {
          return Status::InvalidArgument("id list not a multiple of 8 bytes");
        }
        WireReader f(payload);
        uint64_t id;
        while (f.GetU64(&id)) ids->push_back(id);
        return Status::OK();
      });
}

Status WireShardError::ToStatus() const {
  return StatusFromWire(wire_code, message);
}

std::string EncodeResultDone(const QueryStats& stats, uint64_t total_ids,
                             std::span<const SimilarityMatch> matches,
                             bool complete,
                             std::span<const WireShardError> shard_errors) {
  WireWriter w = BeginFrame(FrameType::kResultDone);
  {
    // The stats blob is an ordered run of i64 counters. Appending a new
    // counter later just lengthens the blob; old decoders read the
    // prefix they know and newer decoders default the missing tail.
    WireWriter f;
    f.PutI64(stats.binary_images_checked);
    f.PutI64(stats.edited_images_bounded);
    f.PutI64(stats.edited_images_skipped);
    f.PutI64(stats.rules_applied);
    f.PutI64(stats.images_instantiated);
    f.PutI64(stats.corrupt_images_skipped);
    w.PutField(tag::kStats, f.data());
  }
  {
    WireWriter f;
    f.PutU64(total_ids);
    w.PutField(tag::kTotalIds, f.data());
  }
  if (!matches.empty()) {
    // One interval per streamed id, in stream order; f64 bit patterns
    // round-trip exactly, keeping loopback results bit-identical.
    WireWriter f;
    for (const SimilarityMatch& match : matches) {
      f.PutF64(match.distance_lo);
      f.PutF64(match.distance_hi);
      f.PutU8(match.exact ? 1 : 0);
    }
    w.PutField(tag::kIntervals, f.data());
  }
  if (!complete || !shard_errors.empty()) {
    // v3 partial-result trailer. Only emitted when there is something to
    // say, so a healthy single-store stream stays byte-identical to v2.
    {
      WireWriter f;
      f.PutU8(complete ? 1 : 0);
      w.PutField(tag::kComplete, f.data());
    }
    WireWriter f;
    f.PutU32(static_cast<uint32_t>(shard_errors.size()));
    for (const WireShardError& error : shard_errors) {
      f.PutU32(error.shard);
      f.PutU16(error.wire_code);
      f.PutU32(static_cast<uint32_t>(error.message.size()));
      f.PutBytes(error.message);
    }
    w.PutField(tag::kShardErrors, f.data());
  }
  return w.Take();
}

Result<ResultDone> DecodeResultDone(const Frame& frame) {
  ResultDone done;
  Status walk = ForEachField(
      frame.fields,
      [&](uint16_t field_tag, std::string_view payload) -> Status {
        WireReader f(payload);
        switch (field_tag) {
          case tag::kStats: {
            if (payload.size() % 8 != 0) {
              return Status::InvalidArgument(
                  "stats blob not a multiple of 8 bytes");
            }
            int64_t* slots[] = {&done.stats.binary_images_checked,
                                &done.stats.edited_images_bounded,
                                &done.stats.edited_images_skipped,
                                &done.stats.rules_applied,
                                &done.stats.images_instantiated,
                                &done.stats.corrupt_images_skipped};
            for (int64_t* slot : slots) {
              if (f.remaining() == 0) break;  // Older peer: shorter blob.
              if (!f.GetI64(slot)) {
                return Status::InvalidArgument("truncated stats blob");
              }
            }
            return Status::OK();  // Extra counters from a newer peer.
          }
          case tag::kTotalIds: {
            if (!f.GetU64(&done.total_ids)) {
              return Status::InvalidArgument("truncated total-ids field");
            }
            return Status::OK();
          }
          case tag::kIntervals: {
            constexpr size_t kEntryBytes = 8 + 8 + 1;
            if (payload.size() % kEntryBytes != 0) {
              return Status::InvalidArgument(
                  "interval trailer not a multiple of 17 bytes");
            }
            done.matches.reserve(payload.size() / kEntryBytes);
            while (f.remaining() > 0) {
              SimilarityMatch match;
              uint8_t exact;
              if (!f.GetF64(&match.distance_lo) ||
                  !f.GetF64(&match.distance_hi) || !f.GetU8(&exact)) {
                return Status::InvalidArgument("truncated interval trailer");
              }
              match.exact = exact != 0;
              done.matches.push_back(match);
            }
            return Status::OK();
          }
          case tag::kComplete: {
            uint8_t complete;
            if (!f.GetU8(&complete)) {
              return Status::InvalidArgument("truncated complete field");
            }
            done.complete = complete != 0;
            return Status::OK();
          }
          case tag::kShardErrors: {
            uint32_t count;
            if (!f.GetU32(&count)) {
              return Status::InvalidArgument("truncated shard-error count");
            }
            for (uint32_t i = 0; i < count; ++i) {
              WireShardError error;
              uint32_t length;
              std::string_view message;
              if (!f.GetU32(&error.shard) || !f.GetU16(&error.wire_code) ||
                  !f.GetU32(&length) || !f.GetBytes(length, &message)) {
                return Status::InvalidArgument(
                    "truncated shard-error list");
              }
              error.message.assign(message);
              done.shard_errors.push_back(std::move(error));
            }
            return Status::OK();
          }
          default:
            return Status::OK();
        }
      });
  MMDB_RETURN_IF_ERROR(walk);
  return done;
}

std::string EncodeError(const Status& status) {
  WireWriter w = BeginFrame(FrameType::kError);
  {
    WireWriter f;
    f.PutU16(static_cast<uint16_t>(ToWireCode(status.code())));
    w.PutField(tag::kCode, f.data());
  }
  {
    WireWriter f;
    f.PutBytes(status.message());
    w.PutField(tag::kMessage, f.data());
  }
  return w.Take();
}

Status DecodeError(const Frame& frame, Status* carried) {
  bool saw_code = false;
  uint16_t code = 0;
  std::string message;
  Status walk = ForEachField(
      frame.fields,
      [&](uint16_t field_tag, std::string_view payload) -> Status {
        WireReader f(payload);
        switch (field_tag) {
          case tag::kCode:
            if (!f.GetU16(&code)) {
              return Status::InvalidArgument("truncated error code field");
            }
            saw_code = true;
            return Status::OK();
          case tag::kMessage:
            message.assign(payload);
            return Status::OK();
          default:
            return Status::OK();
        }
      });
  MMDB_RETURN_IF_ERROR(walk);
  if (!saw_code) {
    return Status::InvalidArgument("error frame lacks a code field");
  }
  *carried = StatusFromWire(code, std::move(message));
  return Status::OK();
}

std::string EncodeInfoRequest() {
  return BeginFrame(FrameType::kInfoRequest).Take();
}

std::string EncodeInfoResponse(const ServerInfo& info) {
  WireWriter w = BeginFrame(FrameType::kInfoResponse);
  {
    WireWriter f;
    f.PutI32(info.quantizer_divisions);
    w.PutField(tag::kDivisions, f.data());
  }
  {
    WireWriter f;
    f.PutU8(info.color_space);
    w.PutField(tag::kColorSpace, f.data());
  }
  {
    WireWriter f;
    f.PutU64(info.image_count);
    w.PutField(tag::kImageCount, f.data());
  }
  {
    WireWriter f;
    f.PutU16(kProtocolVersion);
    w.PutField(tag::kServerVersion, f.data());
  }
  return w.Take();
}

Result<ServerInfo> DecodeInfoResponse(const Frame& frame) {
  ServerInfo info;
  Status walk = ForEachField(
      frame.fields,
      [&](uint16_t field_tag, std::string_view payload) -> Status {
        WireReader f(payload);
        bool ok = true;
        switch (field_tag) {
          case tag::kDivisions:
            ok = f.GetI32(&info.quantizer_divisions);
            break;
          case tag::kColorSpace:
            ok = f.GetU8(&info.color_space);
            break;
          case tag::kImageCount:
            ok = f.GetU64(&info.image_count);
            break;
          case tag::kServerVersion:
            ok = f.GetU16(&info.protocol_version);
            break;
          default:
            break;
        }
        return ok ? Status::OK()
                  : Status::InvalidArgument("truncated info field");
      });
  MMDB_RETURN_IF_ERROR(walk);
  return info;
}

std::string EncodePing() { return BeginFrame(FrameType::kPing).Take(); }
std::string EncodePong() { return BeginFrame(FrameType::kPong).Take(); }

std::string EncodeHealthRequest() {
  return BeginFrame(FrameType::kHealthRequest).Take();
}

std::string EncodeHealthResponse(const HealthInfo& info) {
  WireWriter w = BeginFrame(FrameType::kHealthResponse);
  {
    WireWriter f;
    f.PutU8(info.serving);
    w.PutField(tag::kServing, f.data());
  }
  if (!info.shard_states.empty()) {
    WireWriter f;
    f.PutU32(static_cast<uint32_t>(info.shard_states.size()));
    for (uint8_t state : info.shard_states) f.PutU8(state);
    w.PutField(tag::kShardStates, f.data());
  }
  return w.Take();
}

Result<HealthInfo> DecodeHealthResponse(const Frame& frame) {
  HealthInfo info;
  Status walk = ForEachField(
      frame.fields,
      [&](uint16_t field_tag, std::string_view payload) -> Status {
        WireReader f(payload);
        switch (field_tag) {
          case tag::kServing:
            if (!f.GetU8(&info.serving)) {
              return Status::InvalidArgument("truncated serving field");
            }
            return Status::OK();
          case tag::kShardStates: {
            uint32_t count;
            if (!f.GetU32(&count)) {
              return Status::InvalidArgument("truncated shard-state count");
            }
            info.shard_states.reserve(count);
            for (uint32_t i = 0; i < count; ++i) {
              uint8_t state;
              if (!f.GetU8(&state)) {
                return Status::InvalidArgument(
                    "truncated shard-state list");
              }
              info.shard_states.push_back(state);
            }
            return Status::OK();
          }
          default:
            return Status::OK();
        }
      });
  MMDB_RETURN_IF_ERROR(walk);
  return info;
}

std::string EncodeExplainResponse(std::string_view plan_text) {
  WireWriter w = BeginFrame(FrameType::kExplainResponse);
  WireWriter f;
  f.PutBytes(plan_text);
  w.PutField(tag::kPlanText, f.data());
  return w.Take();
}

Result<std::string> DecodeExplainResponse(const Frame& frame) {
  std::string text;
  bool saw_text = false;
  Status walk = ForEachField(
      frame.fields,
      [&](uint16_t field_tag, std::string_view payload) -> Status {
        if (field_tag == tag::kPlanText) {
          text.assign(payload);
          saw_text = true;
        }
        return Status::OK();
      });
  MMDB_RETURN_IF_ERROR(walk);
  if (!saw_text) {
    return Status::InvalidArgument("explain response lacks a plan field");
  }
  return text;
}

}  // namespace mmdb::net
