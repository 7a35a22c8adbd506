#include "storage/catalog.h"

#include "util/wire.h"

namespace mmdb {

namespace {

constexpr uint8_t kRowVersion = 1;
constexpr uint8_t kMetaVersion = 2;

Status Truncated() { return Status::Corruption("catalog: truncated record"); }

}  // namespace

std::string EncodeCatalogRow(const CatalogRow& row) {
  WireWriter w;
  w.PutU8(kRowVersion);
  w.PutU64(row.id);
  w.PutU8(static_cast<uint8_t>(row.kind));
  w.PutI32(row.width);
  w.PutI32(row.height);
  w.PutU32(static_cast<uint32_t>(row.histogram_counts.size()));
  for (int64_t count : row.histogram_counts) w.PutI64(count);
  return w.Take();
}

Result<CatalogRow> DecodeCatalogRow(const std::string& data) {
  WireReader reader(data);
  uint8_t version = 0;
  if (!reader.GetU8(&version)) return Truncated();
  if (version != kRowVersion) {
    return Status::Corruption("catalog row: unknown version");
  }
  CatalogRow row;
  uint8_t kind = 0;
  if (!reader.GetU64(&row.id) || !reader.GetU8(&kind)) return Truncated();
  if (kind != static_cast<uint8_t>(ImageKind::kBinary) &&
      kind != static_cast<uint8_t>(ImageKind::kEdited)) {
    return Status::Corruption("catalog row: bad image kind");
  }
  row.kind = static_cast<ImageKind>(kind);
  uint32_t bins = 0;
  if (!reader.GetI32(&row.width) || !reader.GetI32(&row.height) ||
      !reader.GetU32(&bins)) {
    return Truncated();
  }
  if (bins > (1u << 24)) {
    return Status::Corruption("catalog row: implausible bin count");
  }
  row.histogram_counts.resize(bins);
  for (int64_t& count : row.histogram_counts) {
    if (!reader.GetI64(&count)) return Truncated();
  }
  if (reader.remaining() != 0) {
    return Status::Corruption("catalog row: trailing data");
  }
  return row;
}

std::string EncodeCatalogMeta(const CatalogMeta& meta) {
  WireWriter w;
  w.PutU8(kMetaVersion);
  w.PutU64(meta.next_id);
  w.PutI32(meta.quantizer_divisions);
  w.PutU8(meta.color_space);
  return w.Take();
}

Result<CatalogMeta> DecodeCatalogMeta(const std::string& data) {
  WireReader reader(data);
  uint8_t version = 0;
  if (!reader.GetU8(&version)) return Truncated();
  if (version != 1 && version != kMetaVersion) {
    return Status::Corruption("catalog meta: unknown version");
  }
  CatalogMeta meta;
  if (!reader.GetU64(&meta.next_id) ||
      !reader.GetI32(&meta.quantizer_divisions)) {
    return Truncated();
  }
  if (version >= 2) {
    // Version 1 predates configurable color spaces (implicitly RGB).
    if (!reader.GetU8(&meta.color_space)) return Truncated();
    if (meta.color_space > 2) {
      return Status::Corruption("catalog meta: unknown color space");
    }
  }
  if (reader.remaining() != 0) {
    return Status::Corruption("catalog meta: trailing data");
  }
  return meta;
}

}  // namespace mmdb
