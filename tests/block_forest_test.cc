#include "gbdt/block_forest.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gbdt/gbdt.h"
#include "gbdt/tree.h"

// This suite deliberately does NOT guard HORIZON_SIMD: the ctest variants
// (block_forest_test_simd_*) pin it per process to sweep every kernel
// flavor, and every flavor is bit-exact, so the assertions below hold no
// matter which one is active.

namespace horizon::gbdt {
namespace {

DataMatrix RandomMatrix(size_t rows, size_t features, uint64_t seed,
                        double lo = -2.0, double hi = 2.0) {
  Rng rng(seed);
  DataMatrix x(rows, features);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t f = 0; f < features; ++f) {
      x.Set(i, f, static_cast<float>(rng.Uniform(lo, hi)));
    }
  }
  return x;
}

GbdtRegressor TrainRandomModel(uint64_t seed, int num_trees = 60,
                               int depth = 6) {
  const size_t rows = 3000, features = 25;
  Rng rng(seed);
  DataMatrix x(rows, features);
  std::vector<double> y(rows);
  for (size_t i = 0; i < rows; ++i) {
    double target = 0.0;
    for (size_t f = 0; f < features; ++f) {
      const double v = rng.Uniform(-1.0, 1.0);
      x.Set(i, f, static_cast<float>(v));
      if (f < 6) target += (f % 2 == 0 ? v : v * v);
    }
    y[i] = target + rng.Normal(0.0, 0.05);
  }
  GbdtParams params;
  params.num_trees = num_trees;
  params.tree.max_depth = depth;
  params.seed = seed;
  GbdtRegressor model(params);
  model.Fit(x, y);
  return model;
}

TEST(BlockForestTest, CompilesTrainedModel) {
  const GbdtRegressor model = TrainRandomModel(3);
  const BlockForest& blocked = model.block_forest();
  ASSERT_TRUE(blocked.compiled());
  EXPECT_EQ(blocked.num_trees(), model.trees().size());
  EXPECT_GT(blocked.depth(), 0);
  EXPECT_LE(blocked.depth(), BlockForest::kMaxBlockedDepth);
  EXPECT_EQ(blocked.base_score(), model.base_score());
  EXPECT_EQ(blocked.nodes_per_tree() + 1, blocked.leaves_per_tree());
}

TEST(BlockForestTest, BitExactVsFlatForestOn10kRandomRows) {
  const GbdtRegressor model = TrainRandomModel(7);
  const DataMatrix x = RandomMatrix(10000, model.num_features(), 99);
  const std::vector<double> reference = model.flat_forest().PredictBatch(x);
  const std::vector<double> blocked = model.block_forest().PredictBatch(x);
  ASSERT_EQ(blocked.size(), reference.size());
  for (size_t i = 0; i < blocked.size(); ++i) {
    // Bit-exact: same predicate, same accumulation order, no tolerance.
    ASSERT_EQ(blocked[i], reference[i]) << "row " << i;
  }
}

TEST(BlockForestTest, ColumnMajorBatchMatchesRowMajorBitExact) {
  const GbdtRegressor model = TrainRandomModel(11);
  const DataMatrix x = RandomMatrix(4097, model.num_features(), 5);
  ExampleBatch soa(x.num_rows(), x.num_features());
  for (size_t r = 0; r < x.num_rows(); ++r) {
    for (size_t f = 0; f < x.num_features(); ++f) soa.Set(r, f, x.Get(r, f));
  }
  const std::vector<double> row_major = model.block_forest().PredictBatch(x);
  const std::vector<double> col_major = model.block_forest().PredictBatch(soa);
  ASSERT_EQ(col_major.size(), row_major.size());
  for (size_t i = 0; i < col_major.size(); ++i) {
    ASSERT_EQ(col_major[i], row_major[i]) << "row " << i;
  }
}

TEST(BlockForestTest, TruncatedBatchKeepsLeadingRows) {
  const GbdtRegressor model = TrainRandomModel(19, /*num_trees=*/20);
  const DataMatrix x = RandomMatrix(37, model.num_features(), 23);
  ExampleBatch soa(x.num_rows(), x.num_features());
  for (size_t r = 0; r < x.num_rows(); ++r) {
    for (size_t f = 0; f < x.num_features(); ++f) soa.Set(r, f, x.Get(r, f));
  }
  for (size_t keep : {37u, 30u, 9u, 1u, 0u}) {
    soa.TruncateRows(keep);
    ASSERT_EQ(soa.num_rows(), keep);
    ASSERT_EQ(soa.feature_stride(), keep);
    for (size_t r = 0; r < keep; ++r) {
      for (size_t f = 0; f < x.num_features(); ++f) {
        ASSERT_EQ(soa.Get(r, f), x.Get(r, f)) << r << "," << f;
      }
    }
    const std::vector<double> got = model.PredictBatch(soa);
    ASSERT_EQ(got.size(), keep);
    for (size_t r = 0; r < keep; ++r) ASSERT_EQ(got[r], model.Predict(x.Row(r)));
  }
}

TEST(BlockForestTest, RegressorBatchPathsAreBitExactVsPerRowPredict) {
  const GbdtRegressor model = TrainRandomModel(13);
  const DataMatrix x = RandomMatrix(777, model.num_features(), 21);
  ExampleBatch soa(x.num_rows(), x.num_features());
  for (size_t r = 0; r < x.num_rows(); ++r) {
    for (size_t f = 0; f < x.num_features(); ++f) soa.Set(r, f, x.Get(r, f));
  }
  const std::vector<double> via_matrix = model.PredictBatch(x);
  const std::vector<double> via_batch = model.PredictBatch(soa);
  for (size_t r = 0; r < x.num_rows(); ++r) {
    const double expected = model.Predict(x.Row(r));
    ASSERT_EQ(via_matrix[r], expected) << "row " << r;
    ASSERT_EQ(via_batch[r], expected) << "row " << r;
  }
}

TEST(BlockForestTest, OddSizesCoverSimdTails) {
  const GbdtRegressor model = TrainRandomModel(17, /*num_trees=*/20);
  // 1..35 spans every remainder mod 16/8/4 plus the empty batch.
  for (size_t n : {0u, 1u, 2u, 3u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 31u, 35u}) {
    const DataMatrix x = RandomMatrix(n, model.num_features(), 1000 + n);
    const std::vector<double> got = model.block_forest().PredictBatch(x);
    ASSERT_EQ(got.size(), n);
    for (size_t r = 0; r < n; ++r) {
      ASSERT_EQ(got[r], model.Predict(x.Row(r))) << "n=" << n << " row " << r;
    }
  }
}

TEST(BlockForestTest, NonFiniteFeaturesMatchScalarSemantics) {
  const GbdtRegressor model = TrainRandomModel(19, /*num_trees=*/10);
  DataMatrix x = RandomMatrix(64, model.num_features(), 4);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (size_t r = 0; r < x.num_rows(); ++r) {
    // Sprinkle NaN/inf over a rotating subset of features: NaN must go
    // right at every real split in every kernel flavor.
    x.Set(r, r % x.num_features(), r % 2 == 0 ? nan : inf);
    x.Set(r, (r + 3) % x.num_features(), -inf);
  }
  const std::vector<double> got = model.block_forest().PredictBatch(x);
  for (size_t r = 0; r < x.num_rows(); ++r) {
    ASSERT_EQ(got[r], model.Predict(x.Row(r))) << "row " << r;
  }
}

/// Builds a degenerate left-spine tree of the given internal depth.
RegressionTree MakeChainTree(int depth) {
  std::vector<TreeNode> nodes;
  const int32_t num_internal = depth;
  for (int32_t i = 0; i < num_internal; ++i) {
    TreeNode n;
    n.feature = 0;
    n.threshold = -static_cast<float>(i);  // descending: left goes deeper
    n.left = (i + 1 < num_internal) ? (i + 1) : num_internal;
    n.right = num_internal + 1 + i;
    nodes.push_back(n);
  }
  // Leaf reached by the full left spine, then one right leaf per level.
  for (int32_t i = 0; i <= num_internal; ++i) {
    TreeNode leaf;
    leaf.feature = -1;
    leaf.left = -1;
    leaf.right = -1;
    leaf.value = static_cast<double>(i);
    nodes.push_back(leaf);
  }
  return RegressionTree(std::move(nodes));
}

TEST(BlockForestTest, OverDeepEnsembleStaysUncompiledAndRegressorFallsBack) {
  std::vector<RegressionTree> trees;
  trees.push_back(MakeChainTree(BlockForest::kMaxBlockedDepth + 1));
  const FlatForest flat = FlatForest::Compile(trees, 0.5, 0.1);
  const BlockForest blocked = BlockForest::Compile(flat);
  EXPECT_FALSE(blocked.compiled());
}

TEST(BlockForestTest, MaxDepthEnsembleCompilesAndMatches) {
  std::vector<RegressionTree> trees;
  trees.push_back(MakeChainTree(BlockForest::kMaxBlockedDepth));
  const FlatForest flat = FlatForest::Compile(trees, 0.5, 0.1);
  const BlockForest blocked = BlockForest::Compile(flat);
  ASSERT_TRUE(blocked.compiled());
  EXPECT_EQ(blocked.depth(), BlockForest::kMaxBlockedDepth);
  DataMatrix x(40, 1);
  Rng rng(77);
  for (size_t r = 0; r < x.num_rows(); ++r) {
    x.Set(r, 0, static_cast<float>(rng.Uniform(-20.0, 5.0)));
  }
  const std::vector<double> got = blocked.PredictBatch(x);
  for (size_t r = 0; r < x.num_rows(); ++r) {
    ASSERT_EQ(got[r], flat.Predict(x.Row(r))) << "row " << r;
  }
}

TEST(BlockForestTest, ConstantModelRootLeafTrees) {
  // A single-node (root leaf) tree exercises depth 0: no internal nodes,
  // one leaf slot per tree.
  std::vector<TreeNode> leaf_only(1);
  leaf_only[0].feature = -1;
  leaf_only[0].left = -1;
  leaf_only[0].right = -1;
  leaf_only[0].value = 2.5;
  std::vector<RegressionTree> trees;
  trees.emplace_back(std::move(leaf_only));
  const FlatForest flat = FlatForest::Compile(trees, 1.0, 0.5);
  const BlockForest blocked = BlockForest::Compile(flat);
  ASSERT_TRUE(blocked.compiled());
  EXPECT_EQ(blocked.depth(), 0);
  const DataMatrix x = RandomMatrix(10, 3, 8);
  const std::vector<double> got = blocked.PredictBatch(x);
  for (const double v : got) ASSERT_EQ(v, 1.0 + 0.5 * 2.5);
}

}  // namespace
}  // namespace horizon::gbdt
