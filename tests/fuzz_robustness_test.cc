// Robustness sweeps: random and mutated byte buffers fed to every decoder
// must fail cleanly (Status, never a crash or hang), and mutated inputs
// that do decode must decode deterministically. The storage sweeps do the
// same at the file level: bit-flipped page files and journal files must
// reopen cleanly or surface Corruption, never crash.

#include <gtest/gtest.h>

#include <cstdio>

#include "editops/serialize.h"
#include "image/ppm_io.h"
#include "storage/catalog.h"
#include "storage/env.h"
#include "storage/object_store.h"
#include "test_util.h"
#include "util/random.h"

namespace mmdb {
namespace {

using mmdb::testing::TempPath;

std::string RandomBytes(size_t n, Rng& rng) {
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng.Uniform(256));
  return out;
}

class DecoderFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DecoderFuzz, RandomBuffersNeverCrashDecoders) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const std::string buffer =
        RandomBytes(rng.Uniform(256), rng);
    (void)DecodePpm(buffer);
    (void)DecodeEditScript(buffer);
    (void)DecodeCatalogRow(buffer);
    (void)DecodeCatalogMeta(buffer);
  }
  SUCCEED();
}

TEST_P(DecoderFuzz, RandomBuffersWithValidMagicNeverCrashPpm) {
  Rng rng(GetParam() + 50);
  for (int trial = 0; trial < 100; ++trial) {
    std::string buffer = "P6\n" + RandomBytes(rng.Uniform(128), rng);
    (void)DecodePpm(buffer);
    buffer = "P3\n" + RandomBytes(rng.Uniform(128), rng);
    (void)DecodePpm(buffer);
  }
  SUCCEED();
}

TEST_P(DecoderFuzz, BitFlippedScriptsFailOrRoundTrip) {
  Rng rng(GetParam() + 100);
  const std::vector<datasets::MergeTarget> targets = {{7, 16, 16}};
  for (int trial = 0; trial < 50; ++trial) {
    const EditScript script = mmdb::testing::RandomScript(
        3, 16, 16, static_cast<int>(rng.UniformInt(0, 6)), targets, rng);
    std::string encoded = EncodeEditScript(script);
    // Flip one random byte.
    const size_t pos = rng.Uniform(encoded.size());
    encoded[pos] = static_cast<char>(
        static_cast<uint8_t>(encoded[pos]) ^
        static_cast<uint8_t>(1u << rng.Uniform(8)));
    const Result<EditScript> decoded = DecodeEditScript(encoded);
    if (decoded.ok()) {
      // The format is not byte-canonical (e.g. a null merge's ignored
      // target bytes), but canonicalization must be a fixpoint: encoding
      // the decoded script and decoding again yields the same script.
      const std::string reencoded = EncodeEditScript(*decoded);
      const Result<EditScript> twice = DecodeEditScript(reencoded);
      ASSERT_TRUE(twice.ok());
      EXPECT_EQ(*twice, *decoded);
      EXPECT_EQ(EncodeEditScript(*twice), reencoded);
    }
  }
}

TEST_P(DecoderFuzz, TruncatedPpmAlwaysFailsCleanly) {
  Rng rng(GetParam() + 200);
  const Image image = mmdb::testing::RandomBlockImage(9, 7, 6, rng);
  for (PpmFormat format : {PpmFormat::kBinary, PpmFormat::kText}) {
    const std::string full = EncodePpm(image, format);
    for (int trial = 0; trial < 40; ++trial) {
      const size_t len = rng.Uniform(full.size());
      const Result<Image> decoded = DecodePpm(full.substr(0, len));
      if (decoded.ok()) {
        // Only possible if the truncation kept a complete image.
        EXPECT_EQ(*decoded, image);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, DecoderFuzz,
                         ::testing::Range(uint64_t{1}, uint64_t{5}));

// --- Storage-level fuzzing ---------------------------------------------

Result<std::string> ReadWholeFile(const std::string& path) {
  MMDB_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                        Env::Default()->OpenFile(path));
  MMDB_ASSIGN_OR_RETURN(uint64_t size, file->Size());
  std::string bytes(size, '\0');
  if (size > 0) MMDB_RETURN_IF_ERROR(file->ReadAt(0, bytes.data(), size));
  return bytes;
}

Status WriteWholeFile(const std::string& path, const std::string& bytes) {
  MMDB_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                        Env::Default()->OpenFile(path));
  MMDB_RETURN_IF_ERROR(file->Truncate(bytes.size()));
  if (!bytes.empty()) {
    MMDB_RETURN_IF_ERROR(file->WriteAt(0, bytes.data(), bytes.size()));
  }
  return file->Close();
}

std::string FlipRandomBits(std::string bytes, int flips, Rng& rng) {
  for (int i = 0; i < flips && !bytes.empty(); ++i) {
    const size_t pos = rng.Uniform(bytes.size());
    bytes[pos] = static_cast<char>(static_cast<uint8_t>(bytes[pos]) ^
                                   static_cast<uint8_t>(1u << rng.Uniform(8)));
  }
  return bytes;
}

/// Exercises a possibly-damaged store: every read path must return a
/// Status, never crash. Corruption (or NotFound from a rolled-back
/// journal) is an acceptable answer; memory errors are not.
void ProbeStore(DiskObjectStore* store) {
  for (uint64_t key : store->Keys()) (void)store->Get(key);
  const Result<DiskObjectStore::ScrubReport> report = store->Scrub();
  (void)report;
}

class StorageFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StorageFuzz, BitFlippedPageFileReopensOrReportsCorruption) {
  Rng rng(GetParam() + 300);
  // Per-test path: the parametrized instances run as parallel ctest
  // processes and must not share a file.
  const std::string path = TempPath("mmdb_fuzz_pages.db");
  std::remove(path.c_str());
  std::remove((path + ".journal").c_str());
  {
    Result<std::unique_ptr<DiskObjectStore>> store =
        DiskObjectStore::Open(path, 64);
    ASSERT_TRUE(store.ok()) << store.status().message();
    for (uint64_t key = 1; key <= 8; ++key) {
      const size_t len = 100 + rng.Uniform(8000);  // Some multi-page.
      ASSERT_TRUE((*store)->Put(key, RandomBytes(len, rng)).ok());
    }
  }
  Result<std::string> clean = ReadWholeFile(path);
  ASSERT_TRUE(clean.ok()) << clean.status().message();

  for (int trial = 0; trial < 25; ++trial) {
    const int flips = 1 + static_cast<int>(rng.Uniform(8));
    ASSERT_TRUE(
        WriteWholeFile(path, FlipRandomBits(*clean, flips, rng)).ok());
    std::remove((path + ".journal").c_str());
    Result<std::unique_ptr<DiskObjectStore>> store =
        DiskObjectStore::Open(path, 64);
    // A flip in the header or directory may fail the open (with a
    // Status); any store that does open must answer every probe.
    if (store.ok()) ProbeStore(store->get());
  }
  std::remove(path.c_str());
  std::remove((path + ".journal").c_str());
}

TEST_P(StorageFuzz, BitFlippedJournalRecoversOrReportsCorruption) {
  Rng rng(GetParam() + 400);
  // Per-test path for the same parallel-ctest reason as above.
  const std::string path = TempPath("mmdb_fuzz_journal.db");
  const std::string journal_path = path + ".journal";
  std::remove(path.c_str());
  std::remove(journal_path.c_str());
  // Build a store image with a non-empty journal: commit a base state,
  // then crash mid-batch so the undo records stay behind.
  {
    Result<std::unique_ptr<DiskObjectStore>> store =
        DiskObjectStore::Open(path, 64);
    ASSERT_TRUE(store.ok()) << store.status().message();
    ASSERT_TRUE((*store)->Put(1, "committed").ok());
    ASSERT_TRUE((*store)->BeginBatch().ok());
    ASSERT_TRUE((*store)->Put(2, RandomBytes(6000, rng)).ok());
    (*store)->SimulateCrashForTesting();
  }
  Result<std::string> pages = ReadWholeFile(path);
  Result<std::string> journal = ReadWholeFile(journal_path);
  ASSERT_TRUE(pages.ok());
  ASSERT_TRUE(journal.ok());
  ASSERT_FALSE(journal->empty()) << "crash left no journal to fuzz";

  for (int trial = 0; trial < 25; ++trial) {
    ASSERT_TRUE(WriteWholeFile(path, *pages).ok());
    const int flips = 1 + static_cast<int>(rng.Uniform(8));
    ASSERT_TRUE(
        WriteWholeFile(journal_path, FlipRandomBits(*journal, flips, rng))
            .ok());
    Result<std::unique_ptr<DiskObjectStore>> store =
        DiskObjectStore::Open(path, 64);
    // A damaged record ends the journal's valid prefix, so recovery may
    // roll back less than everything — but must never crash, and the
    // committed prefix of the store must still answer probes.
    if (store.ok()) ProbeStore(store->get());
  }
  std::remove(path.c_str());
  std::remove(journal_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, StorageFuzz,
                         ::testing::Range(uint64_t{1}, uint64_t{5}));

}  // namespace
}  // namespace mmdb
