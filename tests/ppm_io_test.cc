#include <gtest/gtest.h>

#include <cstdio>

#include "image/ppm_io.h"
#include "test_util.h"
#include "util/random.h"

namespace mmdb {
namespace {

using mmdb::testing::TempPath;

Image SamplePattern() {
  Image image(3, 2);
  image.At(0, 0) = Rgb(255, 0, 0);
  image.At(1, 0) = Rgb(0, 255, 0);
  image.At(2, 0) = Rgb(0, 0, 255);
  image.At(0, 1) = Rgb(10, 20, 30);
  image.At(1, 1) = Rgb(255, 255, 255);
  image.At(2, 1) = Rgb(0, 0, 0);
  return image;
}

TEST(PpmIoTest, BinaryRoundTrip) {
  const Image original = SamplePattern();
  const std::string encoded = EncodePpm(original, PpmFormat::kBinary);
  EXPECT_EQ(encoded.substr(0, 2), "P6");
  Result<Image> decoded = DecodePpm(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, original);
}

TEST(PpmIoTest, TextRoundTrip) {
  const Image original = SamplePattern();
  const std::string encoded = EncodePpm(original, PpmFormat::kText);
  EXPECT_EQ(encoded.substr(0, 2), "P3");
  Result<Image> decoded = DecodePpm(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, original);
}

TEST(PpmIoTest, RandomImagesRoundTripBothFormats) {
  Rng rng(41);
  for (int trial = 0; trial < 10; ++trial) {
    const Image original = testing::RandomBlockImage(17, 11, 8, rng);
    for (PpmFormat format : {PpmFormat::kBinary, PpmFormat::kText}) {
      Result<Image> decoded = DecodePpm(EncodePpm(original, format));
      ASSERT_TRUE(decoded.ok());
      EXPECT_EQ(*decoded, original);
    }
  }
}

TEST(PpmIoTest, HeaderCommentsAreSkipped) {
  const std::string data =
      "P3\n# a comment\n2 1\n# another\n255\n1 2 3  4 5 6\n";
  Result<Image> decoded = DecodePpm(data);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->At(0, 0), Rgb(1, 2, 3));
  EXPECT_EQ(decoded->At(1, 0), Rgb(4, 5, 6));
}

TEST(PpmIoTest, MaxvalIsRescaledTo255) {
  const std::string data = "P3\n1 1\n100\n100 50 0\n";
  Result<Image> decoded = DecodePpm(data);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->At(0, 0), Rgb(255, 127, 0));
}

TEST(PpmIoTest, RejectsBadMagic) {
  EXPECT_EQ(DecodePpm("XX").status().code(), StatusCode::kCorruption);
  EXPECT_EQ(DecodePpm("P4\n1 1\n\0").status().code(),
            StatusCode::kNotSupported);
  EXPECT_EQ(DecodePpm("P7\n").status().code(), StatusCode::kNotSupported);
  EXPECT_EQ(DecodePpm("").status().code(), StatusCode::kCorruption);
}

TEST(PgmIoTest, TextPgmDecodesToGreyPixels) {
  const std::string data = "P2\n2 2\n255\n0 128 255 64\n";
  Result<Image> decoded = DecodePpm(data);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->At(0, 0), Rgb(0, 0, 0));
  EXPECT_EQ(decoded->At(1, 0), Rgb(128, 128, 128));
  EXPECT_EQ(decoded->At(0, 1), Rgb(255, 255, 255));
  EXPECT_EQ(decoded->At(1, 1), Rgb(64, 64, 64));
}

TEST(PgmIoTest, BinaryPgmRoundTripForGreyImages) {
  Image grey(5, 4);
  for (int32_t y = 0; y < 4; ++y) {
    for (int32_t x = 0; x < 5; ++x) {
      const uint8_t v = static_cast<uint8_t>(x * 40 + y * 10);
      grey.At(x, y) = Rgb(v, v, v);
    }
  }
  for (PpmFormat format : {PpmFormat::kBinary, PpmFormat::kText}) {
    Result<Image> decoded = DecodePpm(EncodePgm(grey, format));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, grey);
  }
}

TEST(PgmIoTest, ColorImagesExportAsLuma) {
  Image color(2, 1);
  color.At(0, 0) = Rgb(255, 0, 0);    // Luma ~76.
  color.At(1, 0) = Rgb(0, 255, 0);    // Luma ~150.
  Result<Image> decoded = DecodePpm(EncodePgm(color, PpmFormat::kBinary));
  ASSERT_TRUE(decoded.ok());
  EXPECT_NEAR(decoded->At(0, 0).r, 76, 1);
  EXPECT_NEAR(decoded->At(1, 0).g, 150, 1);
}

TEST(PgmIoTest, TruncatedPgmFailsCleanly) {
  EXPECT_EQ(DecodePpm("P2\n2 2\n255\n0 1\n").status().code(),
            StatusCode::kCorruption);
  std::string binary = "P5\n2 2\n255\nab";  // 2 of 4 raster bytes.
  EXPECT_EQ(DecodePpm(binary).status().code(), StatusCode::kCorruption);
}

TEST(PpmIoTest, RejectsTruncatedRaster) {
  const Image original(4, 4, colors::kRed);
  std::string encoded = EncodePpm(original, PpmFormat::kBinary);
  encoded.resize(encoded.size() - 5);
  EXPECT_EQ(DecodePpm(encoded).status().code(), StatusCode::kCorruption);
}

TEST(PpmIoTest, RejectsTruncatedTextBody) {
  EXPECT_EQ(DecodePpm("P3\n2 2\n255\n1 2 3\n").status().code(),
            StatusCode::kCorruption);
}

TEST(PpmIoTest, RejectsSampleAboveMaxval) {
  EXPECT_EQ(DecodePpm("P3\n1 1\n10\n11 0 0\n").status().code(),
            StatusCode::kCorruption);
}

TEST(PpmIoTest, RejectsMaxvalOutOfRange) {
  EXPECT_EQ(DecodePpm("P3\n1 1\n65535\n1 1 1\n").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DecodePpm("P3\n1 1\n0\n0 0 0\n").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PpmIoTest, FileRoundTrip) {
  const Image original = SamplePattern();
  const std::string path = TempPath("mmdb_ppm_test.ppm");
  ASSERT_TRUE(WritePpmFile(original, path).ok());
  Result<Image> decoded = ReadPpmFile(path);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, original);
  std::remove(path.c_str());
}

TEST(PpmIoTest, ReadMissingFileFails) {
  EXPECT_EQ(ReadPpmFile("/nonexistent/dir/x.ppm").status().code(),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace mmdb
