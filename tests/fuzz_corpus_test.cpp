// Regression corpus: every reproducer under tests/fuzz_corpus/ is a shrunk
// fuzz failure from a bug that has since been fixed (or a hand-written spec
// exercising a fixed parser defect). Each file replays through the full
// flow + differential oracle; a regression flips the replay back to FAIL. MFD_FUZZ_CORPUS_DIR is provided by the build
// (tests/CMakeLists.txt) and points at the source-tree corpus directory.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <vector>

#include "verify/repro.h"

namespace mfd::verify {
namespace {

std::vector<std::string> corpus_files() {
  std::vector<std::string> files;
  const std::filesystem::path dir = MFD_FUZZ_CORPUS_DIR;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.is_regular_file() && entry.path().extension() == ".repro")
      files.push_back(entry.path().string());
  std::sort(files.begin(), files.end());
  return files;
}

class FuzzCorpus : public ::testing::TestWithParam<std::string> {};

TEST_P(FuzzCorpus, ReplaysClean) {
  const OracleResult r = replay_repro_file(GetParam());
  EXPECT_TRUE(r.ok) << GetParam() << " regressed at " << r.failing_point << ": "
                    << r.failure;
  EXPECT_GT(r.points_run, 0);
}

std::string corpus_test_name(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = std::filesystem::path(info.param).stem().string();
  for (char& ch : name)
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  return name;
}

INSTANTIATE_TEST_SUITE_P(All, FuzzCorpus, ::testing::ValuesIn(corpus_files()),
                         corpus_test_name);

// The corpus must never be empty: an accidentally-wrong MFD_FUZZ_CORPUS_DIR
// would otherwise silently skip every replay.
TEST(FuzzCorpusMeta, CorpusIsNonEmpty) { EXPECT_FALSE(corpus_files().empty()); }

}  // namespace
}  // namespace mfd::verify
