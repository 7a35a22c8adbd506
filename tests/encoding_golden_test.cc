#include <gtest/gtest.h>
#include <sys/socket.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "core/query_service.h"
#include "editops/serialize.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "storage/catalog.h"

namespace mmdb {
namespace {

// Byte pins for every persisted record and wire frame the little-endian
// codec writes. The existing tests only round-trip, which a format
// change made the same way in encoder and decoder would still pass while
// breaking every page file and peer already out there. Short encodings
// are pinned in full; longer ones by length, a leading slice and an
// FNV-1a digest of every byte.

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (char c : bytes) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string Pin(const std::string& bytes) {
  constexpr size_t kFullHex = 48;
  std::string out = "n=" + std::to_string(bytes.size()) + " ";
  const size_t shown = std::min(bytes.size(), kFullHex);
  for (size_t i = 0; i < shown; ++i) {
    char hex[3];
    std::snprintf(hex, sizeof(hex), "%02x",
                  static_cast<unsigned>(static_cast<uint8_t>(bytes[i])));
    out += hex;
  }
  if (bytes.size() > kFullHex) {
    char digest[40];
    std::snprintf(digest, sizeof(digest), "... fnv=%016llx",
                  static_cast<unsigned long long>(Fnv1a(bytes)));
    out += digest;
  }
  return out;
}

/// Feeds `decode` every truncation of `bytes`, `bytes` plus a trailing
/// byte, and `bytes` with each listed offset overwritten by 0xff, and
/// pins which check refused each input: a digest over the ordered status
/// strings plus the distinct ones, so the decoder's checks, their order
/// and their codes stay fixed.
template <typename Decode>
std::string Rejections(const std::string& bytes,
                       const std::vector<size_t>& corrupt_offsets,
                       Decode decode) {
  std::vector<std::string> inputs;
  for (size_t n = 0; n < bytes.size(); ++n) {
    inputs.push_back(bytes.substr(0, n));
  }
  inputs.push_back(bytes + '\0');
  for (size_t offset : corrupt_offsets) {
    std::string corrupt = bytes;
    corrupt[offset] = '\xff';
    inputs.push_back(corrupt);
  }
  std::string statuses;  // In input order, each ended by a 0xff byte.
  std::set<std::string> distinct;
  for (const std::string& input : inputs) {
    const std::string status = decode(input).status().ToString();
    statuses += status + '\xff';
    distinct.insert(status);
  }
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(Fnv1a(statuses)));
  std::string out = "n=" + std::to_string(inputs.size()) + " fnv=" + digest;
  for (const std::string& status : distinct) out += " | " + status;
  return out;
}

TEST(EncodingGoldenTest, CatalogRecords) {
  CatalogRow binary;
  binary.id = 0x0102030405060708ull;
  binary.kind = ImageKind::kBinary;
  binary.width = 640;
  binary.height = -3;  // Signed fields travel as their two's complement.
  binary.histogram_counts = {0, 1, 255, 256, -1, 1ll << 40};
  EXPECT_EQ(Pin(EncodeCatalogRow(binary)),
            "n=70"
            " 0108070605040302010180020000fdffffff06000000000000000000000001000"
            "00000000000ff000000000000000001... fnv=5e2bdf0655047fd3");
  // Offsets 0, 9, 21: version, kind, high byte of the bin count.
  EXPECT_EQ(Rejections(EncodeCatalogRow(binary), {0, 9, 21},
                       DecodeCatalogRow),
            "n=74 fnv=29f20d3323c33058 | Corruption: catalog row: bad image"
            " kind | Corruption: catalog row: implausible bin count |"
            " Corruption: catalog row: trailing data | Corruption: catalog"
            " row: unknown version | Corruption: catalog: truncated record");

  CatalogRow edited;
  edited.id = 77;
  edited.kind = ImageKind::kEdited;
  EXPECT_EQ(Pin(EncodeCatalogRow(edited)),
            "n=22 014d0000000000000002000000000000000000000000");

  CatalogMeta meta;
  meta.next_id = 0xdeadbeefcafeull;
  meta.quantizer_divisions = 6;
  meta.color_space = 2;
  EXPECT_EQ(Pin(EncodeCatalogMeta(meta)), "n=14 02fecaefbeadde00000600000002");
  // Offsets 0, 13: version, color space.
  EXPECT_EQ(Rejections(EncodeCatalogMeta(meta), {0, 13}, DecodeCatalogMeta),
            "n=17 fnv=d73175909d5bbc6e | Corruption: catalog meta: trailing"
            " data | Corruption: catalog meta: unknown color space |"
            " Corruption: catalog meta: unknown version | Corruption: catalog:"
            " truncated record");
}

TEST(EncodingGoldenTest, EditScriptEveryOpType) {
  EditScript script;
  script.base_id = 0x1122334455667788ull;
  script.ops.emplace_back(DefineOp{Rect(-1, 2, 300, 40000)});
  script.ops.emplace_back(CombineOp::GaussianBlur());
  script.ops.emplace_back(ModifyOp{Rgb(1, 2, 3), Rgb(250, 128, 0)});
  script.ops.emplace_back(MutateOp::Rotation(0.25, 3.5, -7.0));
  script.ops.emplace_back(MergeOp{});
  MergeOp merge;
  merge.target = 0xabcdefull;
  merge.x = -8;
  merge.y = 9;
  script.ops.emplace_back(merge);
  EXPECT_EQ(Pin(EncodeEditScript(script)),
            "n=221"
            " 0188776655443322110600000000ffffffff020000002c010000409c000001000"
            "000000000f03f000000000000004000... fnv=e4aea4c0509f9ef7");
  // Offsets 0, 12, 13: version, high byte of the op count, first op tag.
  EXPECT_EQ(Rejections(EncodeEditScript(script), {0, 12, 13},
                       DecodeEditScript),
            "n=225 fnv=d2628c618fca6f49 | Corruption: edit script: implausible"
            " op count | Corruption: edit script: trailing bytes | Corruption:"
            " edit script: truncated record | Corruption: edit script: unknown"
            " format version 255 | Corruption: edit script: unknown op tag"
            " 255");

  // One record per op type, so a moved field names its op.
  const std::vector<std::string> golden = {
      "n=30 0105000000000000000100000000ffffffff020000002c010000409c0000",
      "n=86"
      " 0105000000000000000100000001000000000000f03f000000000000004000000"
      "0000000f03f00000000000000400000... fnv=909b50d03bbaba5b",
      "n=22 0105000000000000000100000002030201000080fa00",
      "n=86"
      " 0105000000000000000100000003a1ee7d9f5401ef3f7715f3d4eeaacfbf62147"
      "111e5f7f9bf7715f3d4eeaacf3fa1ee... fnv=f084dd5ba3c473a7",
      "n=31"
      " 01050000000000000001000000040000000000000000000000000000000000",
      "n=31"
      " 010500000000000000010000000401efcdab0000000000f8ffffff09000000"};
  ASSERT_EQ(script.ops.size(), golden.size());
  for (size_t i = 0; i < script.ops.size(); ++i) {
    EditScript one;
    one.base_id = 5;
    one.ops.push_back(script.ops[i]);
    EXPECT_EQ(Pin(EncodeEditScript(one)), golden[i])
        << EditOpToString(script.ops[i]);
  }
}

TEST(EncodingGoldenTest, ExecuteRequestEveryPayloadShape) {
  RangeQuery range;
  range.bin = 12;
  range.min_fraction = 0.25;
  range.max_fraction = 1.0;
  EXPECT_EQ(Pin(net::EncodeExecuteRequest(
                QueryRequest::Range(range, QueryMethod::kBwm))),
            "n=41"
            " 4d4d444203000100010001000000020200140000000c000000000000000000d03"
            "f000000000000f03f");

  ConjunctiveQuery conjunctive;
  conjunctive.conjuncts = {range, RangeQuery{3, 0.0, 0.1},
                           RangeQuery{40, 0.5, 0.75}};
  QueryRequest conjunctive_request =
      QueryRequest::Conjunctive(conjunctive, QueryMethod::kPlanned);
  conjunctive_request.deadline = Deadline::After(-1.0);  // Travels as 0 ms.
  EXPECT_EQ(Pin(net::EncodeExecuteRequest(conjunctive_request)),
            "n=99"
            " 4d4d44420300010001000100000005030040000000030000000c0000000000000"
            "00000d03f000000000000f03f030000... fnv=8c6eac34a1aa3ad8");

  SimilarityQuery similarity;
  similarity.histogram = ColorHistogram(64);
  similarity.histogram.Add(0, 5);
  similarity.histogram.Add(17, 1ll << 33);
  similarity.histogram.Add(63, 255);
  similarity.k = 25;
  EXPECT_EQ(Pin(net::EncodeExecuteRequest(
                QueryRequest::Similarity(similarity))),
            "n=541"
            " 4d4d4442030001000100010000000205000802000019000000400000000500000"
            "0000000000000000000000000000000... fnv=b637f7ae76d29689");
}

TEST(EncodingGoldenTest, ResultDoneWithIntervals) {
  QueryStats stats;
  stats.binary_images_checked = 13;
  stats.edited_images_bounded = 32;
  stats.edited_images_skipped = 4;
  stats.rules_applied = 1ll << 35;
  stats.images_instantiated = 0;
  stats.corrupt_images_skipped = 1;
  std::vector<SimilarityMatch> matches(3);
  matches[0] = {10, 0.0, 0.0, true};
  matches[1] = {11, 0.125, 1.9999999999999998, false};
  matches[2] = {12, 0.3333333333333333, 2.0, false};
  EXPECT_EQ(Pin(net::EncodeResultDone(stats, 3, matches)),
            "n=133"
            " 4d4d4442030003000100300000000d00000000000000200000000000000004000"
            "0000000000000000000080000000000... fnv=424d0338428c9917");
}

TEST(EncodingGoldenTest, FrameLengthPrefix) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  net::Socket writer(fds[0]);
  net::Socket reader(fds[1]);
  // 258 bytes: a length whose two low bytes differ pins the byte order.
  const std::string payload(0x0102, 'x');
  ASSERT_TRUE(net::WriteFrame(writer, payload).ok());
  std::string prefix(net::kLengthPrefixBytes, '\0');
  std::string body(payload.size(), '\0');
  ASSERT_TRUE(reader.RecvAll(prefix.data(), prefix.size()).ok());
  ASSERT_TRUE(reader.RecvAll(body.data(), body.size()).ok());
  EXPECT_EQ(Pin(prefix), "n=4 02010000");
  EXPECT_EQ(body, payload);
}

}  // namespace
}  // namespace mmdb
