// Malformed-input hardening of the edge-list loaders: every corrupt file —
// truncated rows, tokens that do not parse in full, non-finite or
// out-of-range weights, a missing weight column — must surface as a typed
// Status, never a crash, and must not hand back a half-built graph.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "graph/edge_list_io.h"

namespace holim {
namespace {

/// Writes `content` to a unique temp path; unlinks it at scope exit.
class TempFile {
 public:
  explicit TempFile(const std::string& content) {
    path_ = ::testing::TempDir() + "holim_loader_fuzz_" +
            std::to_string(counter_++) + ".tmp";
    std::ofstream out(path_, std::ios::binary);
    out.write(content.data(),
              static_cast<std::streamsize>(content.size()));
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  std::string path_;
};

// ------------------------------------------------- text edge lists ------

TEST(EdgeListHardeningTest, MissingFileIsIOError) {
  auto result = ReadEdgeList("/nonexistent/holim/график.txt");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

TEST(EdgeListHardeningTest, TruncatedRowIsIOError) {
  TempFile file("0 1\n2\n");
  auto result = ReadEdgeList(file.path());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

TEST(EdgeListHardeningTest, NonNumericNodeIdIsIOError) {
  TempFile file("0 1\nfoo bar\n");
  auto result = ReadEdgeList(file.path());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

// A node id token must parse in full: a numeric prefix, a sign or a hex
// prefix is an error, not a node.
TEST(EdgeListHardeningTest, NumericTokensMustParseInFull) {
  for (const char* bad : {"0 1\n12abc 3\n", "+4 3\n", "0 1\n-1 3\n",
                          "0x10 3\n", "3 4.0\n", "5\v 6\n"}) {
    for (bool renumber : {true, false}) {
      EdgeListOptions options;
      options.renumber = renumber;
      auto result = ReadEdgeList(TempFile(bad).path(), options);
      ASSERT_FALSE(result.ok()) << bad;
      EXPECT_EQ(result.status().code(), StatusCode::kIOError) << bad;
    }
  }
}

TEST(WeightedEdgeListHardeningTest, NaNProbabilityRejected) {
  // NaN fails every comparison, so a naive [0,1] range check would pass
  // it through into the sampling kernels.
  TempFile file("0 1 0.5\n1 2 nan\n");
  auto result = ReadWeightedEdgeList(file.path());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(WeightedEdgeListHardeningTest, InfinityAndOutOfRangeRejected) {
  for (const char* bad : {"0 1 inf\n", "0 1 -0.25\n", "0 1 1.5\n"}) {
    TempFile file(bad);
    auto result = ReadWeightedEdgeList(file.path());
    ASSERT_FALSE(result.ok()) << bad;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(WeightedEdgeListHardeningTest, TokensMustParseInFull) {
  for (const char* bad : {"0 1 0.5abc\n", "0 1 +0.5\n", "0 1 0.5.5\n",
                          "12abc 3 0.5\n", "1 -2 0.5\n"}) {
    TempFile file(bad);
    auto result = ReadWeightedEdgeList(file.path());
    ASSERT_FALSE(result.ok()) << bad;
    EXPECT_EQ(result.status().code(), StatusCode::kIOError) << bad;
  }
}

TEST(WeightedEdgeListHardeningTest, MissingWeightColumnIsIOError) {
  TempFile file("0 1 0.5\n1 2\n");
  auto result = ReadWeightedEdgeList(file.path());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

TEST(WeightedEdgeListHardeningTest, WellFormedFileStillLoads) {
  TempFile file("# comment\n0 1 0.5\n1 2 0.25\n2 0 1.0\n");
  auto result = ReadWeightedEdgeList(file.path());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->graph.num_nodes(), 3u);
  EXPECT_EQ(result->graph.num_edges(), 3u);
  EXPECT_EQ(result->probability.size(), 3u);
}

}  // namespace
}  // namespace holim
