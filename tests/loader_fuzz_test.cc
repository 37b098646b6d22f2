// Malformed-input hardening of the graph loaders: every corrupt file —
// truncated, non-finite weights, out-of-range endpoints, trailing bytes,
// random byte-level truncation — must surface as a typed Status, never a
// crash, and must not hand back a half-built graph.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "graph/binary_io.h"
#include "graph/edge_list_io.h"
#include "graph/generators.h"
#include "util/rng.h"

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

// ------------------------------------------------- binary bundles ------

std::string SerializeBundle(const Graph& graph,
                            const std::vector<double>* probability) {
  const std::string path = ::testing::TempDir() + "holim_bundle_ser.tmp";
  EXPECT_TRUE(WriteGraphBundle(path, graph, probability, nullptr, nullptr)
                  .ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return bytes;
}

TEST(BinaryIoHardeningTest, BadMagicIsInvalidArgument) {
  TempFile file(std::string(64, '\xEE'));
  auto result = ReadGraphBundle(file.path());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(BinaryIoHardeningTest, EveryTruncationIsTypedNotACrash) {
  Graph graph = GenerateBarabasiAlbert(40, 2, 3).ValueOrDie();
  std::vector<double> probability(graph.num_edges(), 0.25);
  const std::string bytes = SerializeBundle(graph, &probability);
  ASSERT_GT(bytes.size(), 32u);
  // Every strict prefix must fail with a typed Status (IOError for a short
  // read, InvalidArgument only for the sub-magic prefixes).
  for (std::size_t len = 0; len < bytes.size();
       len += 1 + len / 16 /* denser near the header */) {
    auto result = ReadGraphBundle(
        TempFile(bytes.substr(0, len)).path());
    ASSERT_FALSE(result.ok()) << "prefix of " << len << " bytes";
    const StatusCode code = result.status().code();
    EXPECT_TRUE(code == StatusCode::kIOError ||
                code == StatusCode::kInvalidArgument)
        << "prefix " << len << ": " << result.status().ToString();
  }
}

TEST(BinaryIoHardeningTest, TrailingGarbageRejected) {
  Graph graph = GenerateBarabasiAlbert(20, 2, 3).ValueOrDie();
  const std::string bytes = SerializeBundle(graph, nullptr);
  auto result = ReadGraphBundle(TempFile(bytes + "junk").path());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  EXPECT_NE(result.status().message().find("trailing"), std::string::npos);
}

TEST(BinaryIoHardeningTest, NonFiniteStoredProbabilityRejected) {
  Graph graph = GenerateBarabasiAlbert(20, 2, 3).ValueOrDie();
  std::vector<double> probability(graph.num_edges(), 0.25);
  std::string bytes = SerializeBundle(graph, &probability);
  // Corrupt one stored probability into a NaN bit pattern: the well-formed
  // prefix parses, so the loader must catch the value itself. Layout tail:
  // ...probability doubles, then the two absent-section flag bytes — the
  // last double ends 2 bytes before EOF.
  const uint64_t nan_bits = 0x7FF8000000000000ULL;
  ASSERT_GE(bytes.size(), sizeof(nan_bits) + 2);
  std::memcpy(bytes.data() + bytes.size() - 2 - sizeof(nan_bits), &nan_bits,
              sizeof(nan_bits));
  auto result = ReadGraphBundle(TempFile(bytes).path());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

TEST(BinaryIoHardeningTest, OutOfRangeEndpointRejected) {
  Graph graph = GenerateBarabasiAlbert(20, 2, 3).ValueOrDie();
  std::string bytes = SerializeBundle(graph, nullptr);
  // Layout: magic u64, node count u64, then the source array (count u64,
  // then NodeId entries). Smash the first source id past the node count.
  const std::size_t first_source = sizeof(uint64_t) * 3;
  const NodeId bogus = 1'000'000;
  ASSERT_GE(bytes.size(), first_source + sizeof(bogus));
  std::memcpy(bytes.data() + first_source, &bogus, sizeof(bogus));
  auto result = ReadGraphBundle(TempFile(bytes).path());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  EXPECT_NE(result.status().message().find("out of node range"),
            std::string::npos);
}

TEST(BinaryIoHardeningTest, RandomByteFlipsNeverCrash) {
  Graph graph = GenerateBarabasiAlbert(30, 2, 3).ValueOrDie();
  std::vector<double> probability(graph.num_edges(), 0.5);
  const std::string bytes = SerializeBundle(graph, &probability);
  Rng rng(0xBADF11E5ULL);
  for (int trial = 0; trial < 64; ++trial) {
    std::string corrupt = bytes;
    const int flips = 1 + static_cast<int>(rng.Next64() % 4);
    for (int i = 0; i < flips; ++i) {
      corrupt[rng.Next64() % corrupt.size()] ^=
          static_cast<char>(1 + rng.Next64() % 255);
    }
    // Any outcome is legal except a crash or runaway allocation: either a
    // typed error, or the flip landed somewhere harmless and a
    // structurally valid bundle loads.
    auto result = ReadGraphBundle(TempFile(corrupt).path());
    if (result.ok()) {
      EXPECT_EQ(result->graph.num_edges(),
                result->edge_probability.empty()
                    ? result->graph.num_edges()
                    : result->edge_probability.size());
    }
  }
}

}  // namespace
}  // namespace holim
