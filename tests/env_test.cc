#include "storage/env.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "test_util.h"
#include "util/status.h"

namespace mmdb {
namespace {

using mmdb::testing::TempPath;

void RemoveIfPresent(const std::string& path) {
  std::remove(path.c_str());
}

TEST(PosixEnvTest, CreatesMissingFileAndRoundTrips) {
  const std::string path = TempPath("mmdb_env_roundtrip.bin");
  RemoveIfPresent(path);
  Env* env = Env::Default();
  ASSERT_FALSE(env->FileExists(path));

  Result<std::unique_ptr<File>> opened = env->OpenFile(path);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  std::unique_ptr<File> file = std::move(opened).value();
  EXPECT_TRUE(env->FileExists(path));

  const std::string payload = "hello, durable world";
  ASSERT_TRUE(file->WriteAt(0, payload.data(), payload.size()).ok());
  ASSERT_TRUE(file->Sync().ok());
  Result<uint64_t> size = file->Size();
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, payload.size());

  std::string read(payload.size(), '\0');
  ASSERT_TRUE(file->ReadAt(0, read.data(), read.size()).ok());
  EXPECT_EQ(read, payload);
  EXPECT_TRUE(file->Close().ok());
  ASSERT_TRUE(env->DeleteFile(path).ok());
}

// Regression test: opening an existing file must never truncate it. The
// old DiskManager fell back from "r+b" to "w+b" on *any* fopen failure,
// so a transient error (EMFILE etc.) could silently erase the database.
// The Env contract is a single O_CREAT (no O_TRUNC) open instead.
TEST(PosixEnvTest, ReopenPreservesExistingContents) {
  const std::string path = TempPath("mmdb_env_noclobber.bin");
  RemoveIfPresent(path);
  Env* env = Env::Default();
  {
    Result<std::unique_ptr<File>> opened = env->OpenFile(path);
    ASSERT_TRUE(opened.ok());
    ASSERT_TRUE((*opened)->WriteAt(0, "precious", 8).ok());
    ASSERT_TRUE((*opened)->Close().ok());
  }
  for (int round = 0; round < 3; ++round) {
    Result<std::unique_ptr<File>> opened = env->OpenFile(path);
    ASSERT_TRUE(opened.ok());
    Result<uint64_t> size = (*opened)->Size();
    ASSERT_TRUE(size.ok());
    EXPECT_EQ(*size, 8u) << "reopen round " << round << " truncated the file";
    char buffer[8];
    ASSERT_TRUE((*opened)->ReadAt(0, buffer, 8).ok());
    EXPECT_EQ(std::string(buffer, 8), "precious");
    ASSERT_TRUE((*opened)->Close().ok());
  }
  ASSERT_TRUE(env->DeleteFile(path).ok());
}

TEST(PosixEnvTest, ShortReadReportsOffset) {
  const std::string path = TempPath("mmdb_env_shortread.bin");
  RemoveIfPresent(path);
  Env* env = Env::Default();
  Result<std::unique_ptr<File>> opened = env->OpenFile(path);
  ASSERT_TRUE(opened.ok());
  ASSERT_TRUE((*opened)->WriteAt(0, "abc", 3).ok());
  char buffer[16];
  const Status status = (*opened)->ReadAt(0, buffer, 16);
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("short read"), std::string::npos)
      << status.message();
  ASSERT_TRUE((*opened)->Close().ok());
  ASSERT_TRUE(env->DeleteFile(path).ok());
}

TEST(PosixEnvTest, DeleteMissingFileIsNotFound) {
  Env* env = Env::Default();
  EXPECT_EQ(env->DeleteFile(TempPath("mmdb_env_never_existed")).code(),
            StatusCode::kNotFound);
}

class FaultInjectingEnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("mmdb_faultenv.bin");
    RemoveIfPresent(path_);
  }
  void TearDown() override { RemoveIfPresent(path_); }

  std::string path_;
  FaultInjectingEnv env_{Env::Default()};
};

TEST_F(FaultInjectingEnvTest, LogsOperationsInProgramOrder) {
  Result<std::unique_ptr<File>> opened = env_.OpenFile(path_);
  ASSERT_TRUE(opened.ok());
  ASSERT_TRUE((*opened)->WriteAt(0, "x", 1).ok());
  char c;
  ASSERT_TRUE((*opened)->ReadAt(0, &c, 1).ok());
  ASSERT_TRUE((*opened)->Sync().ok());
  ASSERT_TRUE((*opened)->Truncate(0).ok());

  ASSERT_EQ(env_.op_count(), 5);
  EXPECT_EQ(env_.log()[0].op, IoOp::kOpen);
  EXPECT_EQ(env_.log()[1].op, IoOp::kWrite);
  EXPECT_EQ(env_.log()[2].op, IoOp::kRead);
  EXPECT_EQ(env_.log()[3].op, IoOp::kSync);
  EXPECT_EQ(env_.log()[4].op, IoOp::kTruncate);
  for (const auto& record : env_.log()) EXPECT_EQ(record.path, path_);
  EXPECT_EQ(IoOpName(IoOp::kSync), "sync");
}

TEST_F(FaultInjectingEnvTest, FailNthWriteIsOneShot) {
  Result<std::unique_ptr<File>> opened = env_.OpenFile(path_);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<File> file = std::move(opened).value();

  env_.FailNth(IoOp::kWrite, 2);
  EXPECT_TRUE(file->WriteAt(0, "a", 1).ok());
  const Status failed = file->WriteAt(1, "b", 1);
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  EXPECT_TRUE(file->WriteAt(1, "b", 1).ok()) << "fault was not one-shot";

  // The failed write must not have touched the file: both bytes readable.
  char buffer[2];
  ASSERT_TRUE(file->ReadAt(0, buffer, 2).ok());
  EXPECT_EQ(std::string(buffer, 2), "ab");
}

TEST_F(FaultInjectingEnvTest, TornWritePersistsPrefixOnly) {
  Result<std::unique_ptr<File>> opened = env_.OpenFile(path_);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<File> file = std::move(opened).value();

  env_.TornNthWrite(1, 3);
  const Status torn = file->WriteAt(0, "abcdef", 6);
  EXPECT_EQ(torn.code(), StatusCode::kIoError);
  Result<uint64_t> size = file->Size();
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 3u);
  char buffer[3];
  ASSERT_TRUE(file->ReadAt(0, buffer, 3).ok());
  EXPECT_EQ(std::string(buffer, 3), "abc");
}

TEST_F(FaultInjectingEnvTest, FlipBitOnReadCorruptsPayloadNotFile) {
  Result<std::unique_ptr<File>> opened = env_.OpenFile(path_);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<File> file = std::move(opened).value();
  ASSERT_TRUE(file->WriteAt(0, "abcd", 4).ok());

  env_.FlipBitOnNthRead(1, 2, 0);
  char flipped[4];
  ASSERT_TRUE(file->ReadAt(0, flipped, 4).ok());
  EXPECT_EQ(flipped[2], static_cast<char>('c' ^ 1));

  char clean[4];
  ASSERT_TRUE(file->ReadAt(0, clean, 4).ok());
  EXPECT_EQ(std::string(clean, 4), "abcd") << "flip must not persist";
}

TEST_F(FaultInjectingEnvTest, CrashFreezesFileImageAfterExactlyKOps) {
  Result<std::unique_ptr<File>> opened = env_.OpenFile(path_);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<File> file = std::move(opened).value();

  // Exactly two more operations (the first two writes) may complete.
  env_.CrashAfterOps(2);
  EXPECT_TRUE(file->WriteAt(0, "a", 1).ok());
  EXPECT_TRUE(file->WriteAt(1, "b", 1).ok());
  EXPECT_FALSE(env_.crashed());
  const Status dead = file->WriteAt(2, "c", 1);
  EXPECT_EQ(dead.code(), StatusCode::kIoError);
  EXPECT_TRUE(env_.crashed());
  // Every further operation on every file fails, including reads.
  char c;
  EXPECT_FALSE(file->ReadAt(0, &c, 1).ok());
  EXPECT_FALSE(file->Sync().ok());
  EXPECT_FALSE(env_.OpenFile(TempPath("mmdb_faultenv_other.bin")).ok());

  // The frozen image holds exactly the pre-crash bytes.
  Result<std::unique_ptr<File>> reopened = Env::Default()->OpenFile(path_);
  ASSERT_TRUE(reopened.ok());
  Result<uint64_t> size = (*reopened)->Size();
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 2u);
  char buffer[2];
  ASSERT_TRUE((*reopened)->ReadAt(0, buffer, 2).ok());
  EXPECT_EQ(std::string(buffer, 2), "ab");
  ASSERT_TRUE((*reopened)->Close().ok());
}

TEST_F(FaultInjectingEnvTest, ClearFaultsRevivesTheEnv) {
  Result<std::unique_ptr<File>> opened = env_.OpenFile(path_);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<File> file = std::move(opened).value();

  env_.CrashAfterOps(0);
  EXPECT_FALSE(file->WriteAt(0, "a", 1).ok());
  EXPECT_TRUE(env_.crashed());

  env_.ClearFaults();
  EXPECT_FALSE(env_.crashed());
  EXPECT_TRUE(file->WriteAt(0, "a", 1).ok());
  // The log kept recording the refused operation.
  EXPECT_GE(env_.op_count(), 3);
}

}  // namespace
}  // namespace mmdb
