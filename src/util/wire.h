#ifndef MMDB_UTIL_WIRE_H_
#define MMDB_UTIL_WIRE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace mmdb {

/// Append-only little-endian byte emitter: the one encoder behind the
/// wire protocol's frames and length prefix, the catalog records and the
/// edit-script records. All integers are fixed-width LE; doubles travel
/// as their IEEE-754 bit pattern, so an encode/decode round trip is
/// bit-identical.
class WireWriter {
 public:
  void PutU8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void PutU16(uint16_t v) { PutLe(v, 2); }
  void PutU32(uint32_t v) { PutLe(v, 4); }
  void PutU64(uint64_t v) { PutLe(v, 8); }
  void PutI32(int32_t v) { PutLe(static_cast<uint32_t>(v), 4); }
  void PutI64(int64_t v) { PutLe(static_cast<uint64_t>(v), 8); }
  void PutF64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutU64(bits);
  }
  void PutBytes(std::string_view bytes) { out_.append(bytes); }

  /// Emits one tagged field: `tag` (u16) + payload length (u32) +
  /// payload. Decoders skip tags they do not know, which is the whole
  /// forward-compatibility story of the protocol.
  void PutField(uint16_t tag, std::string_view payload) {
    PutU16(tag);
    PutU32(static_cast<uint32_t>(payload.size()));
    PutBytes(payload);
  }

  const std::string& data() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  void PutLe(uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }

  std::string out_;
};

/// Bounds-checked little-endian reader over a borrowed byte region.
/// Every getter returns false (and trips the sticky `failed` flag)
/// instead of reading past the end, so decoding arbitrary bytes — the
/// fuzz tests feed it exactly that — can refuse but never overrun.
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  bool GetU8(uint8_t* v) {
    if (!Need(1)) return false;
    *v = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }
  bool GetU16(uint16_t* v) {
    uint64_t raw;
    if (!GetLe(2, &raw)) return false;
    *v = static_cast<uint16_t>(raw);
    return true;
  }
  bool GetU32(uint32_t* v) {
    uint64_t raw;
    if (!GetLe(4, &raw)) return false;
    *v = static_cast<uint32_t>(raw);
    return true;
  }
  bool GetU64(uint64_t* v) { return GetLe(8, v); }
  bool GetI32(int32_t* v) {
    uint32_t raw;
    if (!GetU32(&raw)) return false;
    *v = static_cast<int32_t>(raw);
    return true;
  }
  bool GetI64(int64_t* v) {
    uint64_t raw;
    if (!GetU64(&raw)) return false;
    *v = static_cast<int64_t>(raw);
    return true;
  }
  bool GetF64(double* v) {
    uint64_t bits;
    if (!GetU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }
  bool GetBytes(size_t n, std::string_view* out) {
    if (!Need(n)) return false;
    *out = data_.substr(pos_, n);
    pos_ += n;
    return true;
  }
  bool Skip(size_t n) {
    if (!Need(n)) return false;
    pos_ += n;
    return true;
  }

  size_t remaining() const { return data_.size() - pos_; }
  bool failed() const { return failed_; }

 private:
  bool Need(size_t n) {
    if (failed_ || data_.size() - pos_ < n) {
      failed_ = true;
      return false;
    }
    return true;
  }
  bool GetLe(int bytes, uint64_t* v) {
    if (!Need(static_cast<size_t>(bytes))) return false;
    uint64_t out = 0;
    for (int i = 0; i < bytes; ++i) {
      out |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
             << (8 * i);
    }
    pos_ += static_cast<size_t>(bytes);
    *v = out;
    return true;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace mmdb

#endif  // MMDB_UTIL_WIRE_H_
