// End-to-end exercise of the mmdb_cli binary: a full user session —
// init, import, augment, script, delta import, queries, export, verify,
// delete — run through the real executable against a real database file.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "image/ppm_io.h"
#include "mmdb.h"
#include "test_util.h"

namespace mmdb {
namespace {

using mmdb::testing::TempPath;

#ifndef MMDB_CLI_PATH
#define MMDB_CLI_PATH ""
#endif

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (std::string(MMDB_CLI_PATH).empty()) {
      GTEST_SKIP() << "mmdb_cli binary path not configured";
    }
    dir_ = TempPath("mmdb_cli_e2e");
    std::system(("rm -rf '" + dir_ + "' && mkdir -p '" + dir_ + "'").c_str());
    db_ = dir_ + "/cli.mmdb";
  }
  void TearDown() override {
    std::system(("rm -rf '" + dir_ + "'").c_str());
  }

  /// Runs the CLI and captures combined stdout; returns the exit code.
  int Run(const std::string& args, std::string* output = nullptr) {
    const std::string out_path = dir_ + "/out.txt";
    const std::string command = std::string("'") + MMDB_CLI_PATH + "' '" +
                                db_ + "' " + args + " > '" + out_path +
                                "' 2>&1";
    const int raw = std::system(command.c_str());
    if (output != nullptr) {
      std::ifstream in(out_path);
      std::ostringstream buffer;
      buffer << in.rdbuf();
      *output = buffer.str();
    }
    return WEXITSTATUS(raw);
  }

  std::string dir_;
  std::string db_;
};

TEST_F(CliTest, FullSessionWorkflow) {
  // Prepare input rasters.
  Image blue(10, 10, colors::kBlue);
  blue.Fill(Rect(0, 0, 10, 5), colors::kWhite);
  ASSERT_TRUE(WritePpmFile(blue, dir_ + "/blue.ppm").ok());
  Image variant = blue;
  variant.Fill(Rect(0, 0, 3, 3), colors::kRed);
  ASSERT_TRUE(WritePpmFile(variant, dir_ + "/variant.ppm").ok());

  std::string out;
  EXPECT_EQ(Run("init", &out), 0) << out;
  EXPECT_EQ(Run("import '" + dir_ + "/blue.ppm'", &out), 0) << out;
  EXPECT_NE(out.find("#2"), std::string::npos) << out;

  EXPECT_EQ(Run("augment 2", &out), 0) << out;
  EXPECT_NE(out.find("dusk"), std::string::npos);

  EXPECT_EQ(Run("script 2 'modify:#0038a8:#cc0000;blur'", &out), 0) << out;
  EXPECT_NE(out.find("bound-widening"), std::string::npos) << out;

  EXPECT_EQ(Run("import-delta 2 '" + dir_ + "/variant.ppm'", &out), 0)
      << out;
  EXPECT_NE(out.find("delta of #2"), std::string::npos) << out;

  EXPECT_EQ(Run("query '#0038a8' 0.2 1.0 --method=bwm", &out), 0) << out;
  EXPECT_NE(out.find("matches:"), std::string::npos) << out;

  EXPECT_EQ(Run("query '#0038a8' 0.2 1.0 --method=planned", &out), 0) << out;
  EXPECT_NE(out.find("matches:"), std::string::npos) << out;

  EXPECT_EQ(
      Run("queryx \"color('#0038a8') >= 20% and color('#ffffff') <= 60%\"",
          &out),
      0)
      << out;
  EXPECT_NE(out.find("matches:"), std::string::npos) << out;

  // nearest(...) routes queryx through the similarity path.
  EXPECT_EQ(Run("queryx \"nearest('#0038a8', 2)\"", &out), 0) << out;
  EXPECT_NE(out.find("candidates"), std::string::npos) << out;
  EXPECT_NE(out.find("d=["), std::string::npos) << out;

  EXPECT_EQ(Run("knn '" + dir_ + "/blue.ppm' 2", &out), 0) << out;
  EXPECT_NE(out.find("candidates"), std::string::npos) << out;
  // knn goes through the facade's validation: k = 0 is rejected.
  EXPECT_NE(Run("knn '" + dir_ + "/blue.ppm' 0", &out), 0) << out;

  EXPECT_EQ(Run("get 3 '" + dir_ + "/export.ppm'", &out), 0) << out;
  const auto exported = ReadPpmFile(dir_ + "/export.ppm");
  ASSERT_TRUE(exported.ok());
  EXPECT_FALSE(exported->Empty());

  EXPECT_EQ(Run("describe 3", &out), 0) << out;
  EXPECT_NE(out.find("edited"), std::string::npos) << out;

  EXPECT_EQ(Run("verify --deep", &out), 0) << out;
  EXPECT_NE(out.find("OK"), std::string::npos) << out;

  EXPECT_EQ(Run("stats", &out), 0) << out;
  EXPECT_NE(out.find("binary images"), std::string::npos);

  // Deleting the base while variants exist must fail; deleting a variant
  // succeeds.
  EXPECT_NE(Run("delete 2", &out), 0);
  EXPECT_EQ(Run("delete 3", &out), 0) << out;
  EXPECT_EQ(Run("verify --deep", &out), 0) << out;
}

TEST_F(CliTest, BadInvocationsFailWithUsage) {
  std::string out;
  EXPECT_NE(Run("", &out), 0);
  EXPECT_NE(Run("frobnicate", &out), 0);
  EXPECT_NE(Run("import", &out), 0);  // Missing argument.
  EXPECT_NE(Run("import /nonexistent.ppm", &out), 0);
  EXPECT_NE(Run("queryx \"color(bogus\"", &out), 0);
}

}  // namespace
}  // namespace mmdb
