#include "features/extractor.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/units.h"
#include "datagen/cascade.h"
#include "datagen/generator.h"
#include "features/schema.h"

namespace horizon::features {
namespace {

datagen::SyntheticDataset SmallDataset() {
  datagen::GeneratorConfig config;
  config.num_pages = 20;
  config.num_posts = 50;
  config.base_mean_size = 60.0;
  config.seed = 77;
  return datagen::Generator(config).Generate();
}

TEST(FeatureSchemaTest, AddAndQuery) {
  FeatureSchema schema;
  EXPECT_EQ(schema.Add("a", FeatureCategory::kContent), 0u);
  EXPECT_EQ(schema.Add("b", FeatureCategory::kPage), 1u);
  EXPECT_EQ(schema.Add("c", FeatureCategory::kContent), 2u);
  EXPECT_EQ(schema.size(), 3u);
  EXPECT_EQ(schema.CountOf(FeatureCategory::kContent), 2u);
  EXPECT_EQ(schema.IndicesOf(FeatureCategory::kPage), std::vector<size_t>{1});
  EXPECT_EQ(schema.def(0).name, "a");
}

TEST(FeatureCategoryTest, AllNamesDistinct) {
  std::set<std::string> names;
  for (int c = 0; c < kNumFeatureCategories; ++c) {
    names.insert(FeatureCategoryName(static_cast<FeatureCategory>(c)));
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(kNumFeatureCategories));
}

TEST(FeatureExtractorTest, SchemaCoversAllCategories) {
  FeatureExtractor extractor(stream::TrackerConfig{});
  const FeatureSchema& schema = extractor.schema();
  EXPECT_GT(schema.size(), 60u);
  for (int c = 0; c < kNumFeatureCategories; ++c) {
    EXPECT_GT(schema.CountOf(static_cast<FeatureCategory>(c)), 0u)
        << FeatureCategoryName(static_cast<FeatureCategory>(c));
  }
}

TEST(FeatureExtractorTest, UniqueFeatureNames) {
  FeatureExtractor extractor(stream::TrackerConfig{});
  std::set<std::string> names;
  for (size_t i = 0; i < extractor.schema().size(); ++i) {
    names.insert(extractor.schema().def(i).name);
  }
  EXPECT_EQ(names.size(), extractor.schema().size());
}

TEST(FeatureExtractorTest, ExtractMatchesSchemaSizeAndIsFinite) {
  const auto data = SmallDataset();
  FeatureExtractor extractor(stream::TrackerConfig{});
  const auto& cascade = data.cascades[0];
  const auto snap = extractor.ReplaySnapshot(cascade, 6 * kHour);
  const auto row = extractor.Extract(data.PageOf(cascade.post), cascade.post, snap);
  ASSERT_EQ(row.size(), extractor.schema().size());
  for (float v : row) EXPECT_TRUE(std::isfinite(v));
}

TEST(FeatureExtractorTest, ReplaySnapshotCountsMatchCascade) {
  const auto data = SmallDataset();
  FeatureExtractor extractor(stream::TrackerConfig{});
  for (size_t i = 0; i < 10; ++i) {
    const auto& cascade = data.cascades[i];
    const double s = 12 * kHour;
    const auto snap = extractor.ReplaySnapshot(cascade, s);
    EXPECT_EQ(snap.views().total, cascade.ViewsBefore(s));
    size_t shares = 0;
    for (double t : cascade.share_times) shares += t < s ? 1 : 0;
    EXPECT_EQ(snap.shares().total, shares);
  }
}

TEST(FeatureExtractorTest, TotalsMonotoneInObservationAge) {
  const auto data = SmallDataset();
  FeatureExtractor extractor(stream::TrackerConfig{});
  const auto& cascade = data.cascades[1];
  uint64_t prev = 0;
  for (double age : {1 * kHour, 6 * kHour, 1 * kDay, 4 * kDay}) {
    const auto snap = extractor.ReplaySnapshot(cascade, age);
    EXPECT_GE(snap.views().total, prev);
    prev = snap.views().total;
  }
}

TEST(FeatureExtractorTest, DeterministicExtraction) {
  const auto data = SmallDataset();
  FeatureExtractor extractor(stream::TrackerConfig{});
  const auto& cascade = data.cascades[2];
  const auto snap_a = extractor.ReplaySnapshot(cascade, kDay);
  const auto snap_b = extractor.ReplaySnapshot(cascade, kDay);
  const auto row_a = extractor.Extract(data.PageOf(cascade.post), cascade.post, snap_a);
  const auto row_b = extractor.Extract(data.PageOf(cascade.post), cascade.post, snap_b);
  EXPECT_EQ(row_a, row_b);
}

TEST(FeatureExtractorTest, MediaOneHotMatchesPost) {
  const auto data = SmallDataset();
  FeatureExtractor extractor(stream::TrackerConfig{});
  const auto& schema = extractor.schema();
  const auto& cascade = data.cascades[3];
  const auto snap = extractor.ReplaySnapshot(cascade, kHour);
  const auto row = extractor.Extract(data.PageOf(cascade.post), cascade.post, snap);
  int hot = 0;
  for (size_t i = 0; i < schema.size(); ++i) {
    if (schema.def(i).name.rfind("content/media_", 0) == 0) {
      hot += row[i] > 0.5f ? 1 : 0;
    }
  }
  EXPECT_EQ(hot, 1);
}

TEST(FeatureExtractorTest, EngagementFeaturesReflectActivity) {
  // A later snapshot of an active cascade has a larger views total feature.
  const auto data = SmallDataset();
  FeatureExtractor extractor(stream::TrackerConfig{});
  const auto& schema = extractor.schema();
  size_t total_idx = schema.size();
  for (size_t i = 0; i < schema.size(); ++i) {
    if (schema.def(i).name == "views/log1p_total") total_idx = i;
  }
  ASSERT_LT(total_idx, schema.size());

  // Find a cascade with meaningful growth.
  for (const auto& cascade : data.cascades) {
    if (cascade.ViewsBefore(kDay) > cascade.ViewsBefore(kHour) + 10) {
      const auto early = extractor.Extract(
          data.PageOf(cascade.post), cascade.post, extractor.ReplaySnapshot(cascade, kHour));
      const auto late = extractor.Extract(
          data.PageOf(cascade.post), cascade.post, extractor.ReplaySnapshot(cascade, kDay));
      EXPECT_GT(late[total_idx], early[total_idx]);
      return;
    }
  }
  FAIL() << "no growing cascade found";
}

// --- Feature layout pin -----------------------------------------------------
// Trained models index features by position, so the schema (names,
// categories, order) and every value's float bits are a contract.  The
// expected values below were produced by the extractor and must only
// change together with a deliberate, model-invalidating layout change.

// Fixed inputs: hand-set profiles and cascades whose event ages follow
// closed forms, so the pin depends on nothing but the extractor.
datagen::PageProfile PinPage(int v) {
  datagen::PageProfile page;
  page.id = 3 + v;
  page.followers = 12500.0 * (v + 1);
  page.fans = 4100.0 + 900.0 * v;
  page.posts_last_month = 37.0 - 11.0 * v;
  page.page_age_days = 812.5 + 40.0 * v;
  page.category = static_cast<datagen::PageCategory>(
      (2 + 3 * v) % datagen::kNumPageCategories);
  page.verified = v % 2;
  page.hist_mean_views = 2300.0 / (v + 1);
  page.hist_mean_halflife = 5400.0 * (v + 1);
  page.hist_share_rate = 0.031 + 0.01 * v;
  page.hist_comment_rate = 0.012 * (v + 1);
  return page;
}

datagen::PostProfile PinPost(int v) {
  datagen::PostProfile post;
  post.id = 40 + v;
  post.page_id = 3 + v;
  post.media = static_cast<datagen::MediaType>((1 + 2 * v) % datagen::kNumMediaTypes);
  post.language = 4 + v;
  post.num_mentions = 2 * v;
  post.num_hashtags = 3 - v;
  post.text_length = 140.0 + 55.0 * v;
  post.creation_tod = 9.25 + 6.5 * v;
  post.day_of_week = (2 + 3 * v) % 7;
  post.in_group = v == 1 ? 1.0 : 0.0;
  post.group_members = v == 1 ? 5300.0 : 0.0;
  post.has_question = v % 2 == 0 ? 1.0 : 0.0;
  return post;
}

// View i at age spacing * (i + i^2 / 16); every 7th view is also shared,
// every 11th commented and every 3rd reacted to, a few seconds later.
datagen::Cascade PinCascade(int num_views, double spacing) {
  datagen::Cascade cascade;
  for (int i = 0; i < num_views; ++i) {
    const double t = spacing * (i + i * i / 16.0);
    cascade.views.push_back(pp::Event{t, 1.0});
    if (i % 7 == 0) cascade.share_times.push_back(t + 13.0);
    if (i % 11 == 0) cascade.comment_times.push_back(t + 29.0);
    if (i % 3 == 0) cascade.reaction_times.push_back(t + 5.0);
  }
  return cascade;
}

stream::TrackerConfig TwoWindowsNoLandmarks() {
  stream::TrackerConfig config;
  config.window_lengths = {30 * 60.0, 12 * 3600.0};
  config.landmark_ages.clear();
  config.ewma_tau = 1800.0;
  return config;
}

using FC = FeatureCategory;

struct PinnedDef {
  const char* name;
  FeatureCategory category;
};

const std::vector<PinnedDef> kDefaultSchema = {
    {"content/media_status", FC::kContent},
    {"content/media_photo", FC::kContent},
    {"content/media_video", FC::kContent},
    {"content/media_link", FC::kContent},
    {"content/media_live", FC::kContent},
    {"content/language", FC::kContent},
    {"content/num_mentions", FC::kContent},
    {"content/num_hashtags", FC::kContent},
    {"content/log1p_text_length", FC::kContent},
    {"content/has_question", FC::kContent},
    {"content/in_group", FC::kContent},
    {"page/log1p_followers", FC::kPage},
    {"page/log1p_fans", FC::kPage},
    {"page/fans_to_followers", FC::kPage},
    {"page/log1p_posts_last_month", FC::kPage},
    {"page/age_days", FC::kPage},
    {"page/verified", FC::kPage},
    {"page/category_brand", FC::kPage},
    {"page/category_celebrity", FC::kPage},
    {"page/category_news", FC::kPage},
    {"page/category_entertainment", FC::kPage},
    {"page/category_sports", FC::kPage},
    {"page/category_politics", FC::kPage},
    {"page/category_community", FC::kPage},
    {"page_hist/log1p_mean_views", FC::kEngagementPageViews},
    {"page_hist/log_halflife_h", FC::kEngagementPageViews},
    {"page_hist/share_rate", FC::kEngagementPageViews},
    {"page_hist/comment_rate", FC::kEngagementPageViews},
    {"page_hist/log1p_monthly_views", FC::kEngagementPageViews},
    {"views/log1p_total", FC::kEngagementViews},
    {"views/log1p_last_15m", FC::kEngagementViews},
    {"views/rate_per_h_last_15m", FC::kEngagementViews},
    {"views/log1p_last_1h", FC::kEngagementViews},
    {"views/rate_per_h_last_1h", FC::kEngagementViews},
    {"views/log1p_last_6h", FC::kEngagementViews},
    {"views/rate_per_h_last_6h", FC::kEngagementViews},
    {"views/log1p_last_1d", FC::kEngagementViews},
    {"views/rate_per_h_last_1d", FC::kEngagementViews},
    {"views/log1p_first_30m", FC::kEngagementViews},
    {"views/log1p_first_1h", FC::kEngagementViews},
    {"views/log1p_first_6h", FC::kEngagementViews},
    {"views/log1p_first_1d", FC::kEngagementViews},
    {"views/log1p_ewma_per_h", FC::kEngagementViews},
    {"views/mean_event_age_h", FC::kEngagementViews},
    {"views/first_event_age_h", FC::kEngagementViews},
    {"views/last_event_age_h", FC::kEngagementViews},
    {"views/recency_h", FC::kEngagementViews},
    {"shares/log1p_total", FC::kEngagementShares},
    {"shares/log1p_last_15m", FC::kEngagementShares},
    {"shares/rate_per_h_last_15m", FC::kEngagementShares},
    {"shares/log1p_last_1h", FC::kEngagementShares},
    {"shares/rate_per_h_last_1h", FC::kEngagementShares},
    {"shares/log1p_last_6h", FC::kEngagementShares},
    {"shares/rate_per_h_last_6h", FC::kEngagementShares},
    {"shares/log1p_last_1d", FC::kEngagementShares},
    {"shares/rate_per_h_last_1d", FC::kEngagementShares},
    {"shares/log1p_first_30m", FC::kEngagementShares},
    {"shares/log1p_first_1h", FC::kEngagementShares},
    {"shares/log1p_first_6h", FC::kEngagementShares},
    {"shares/log1p_first_1d", FC::kEngagementShares},
    {"shares/log1p_ewma_per_h", FC::kEngagementShares},
    {"shares/mean_event_age_h", FC::kEngagementShares},
    {"shares/first_event_age_h", FC::kEngagementShares},
    {"shares/last_event_age_h", FC::kEngagementShares},
    {"shares/recency_h", FC::kEngagementShares},
    {"comments/log1p_total", FC::kEngagementComments},
    {"comments/log1p_last_15m", FC::kEngagementComments},
    {"comments/rate_per_h_last_15m", FC::kEngagementComments},
    {"comments/log1p_last_1h", FC::kEngagementComments},
    {"comments/rate_per_h_last_1h", FC::kEngagementComments},
    {"comments/log1p_last_6h", FC::kEngagementComments},
    {"comments/rate_per_h_last_6h", FC::kEngagementComments},
    {"comments/log1p_last_1d", FC::kEngagementComments},
    {"comments/rate_per_h_last_1d", FC::kEngagementComments},
    {"comments/log1p_first_30m", FC::kEngagementComments},
    {"comments/log1p_first_1h", FC::kEngagementComments},
    {"comments/log1p_first_6h", FC::kEngagementComments},
    {"comments/log1p_first_1d", FC::kEngagementComments},
    {"comments/log1p_ewma_per_h", FC::kEngagementComments},
    {"comments/mean_event_age_h", FC::kEngagementComments},
    {"comments/first_event_age_h", FC::kEngagementComments},
    {"comments/last_event_age_h", FC::kEngagementComments},
    {"comments/recency_h", FC::kEngagementComments},
    {"reactions/log1p_total", FC::kEngagementReactions},
    {"reactions/log1p_last_15m", FC::kEngagementReactions},
    {"reactions/rate_per_h_last_15m", FC::kEngagementReactions},
    {"reactions/log1p_last_1h", FC::kEngagementReactions},
    {"reactions/rate_per_h_last_1h", FC::kEngagementReactions},
    {"reactions/log1p_last_6h", FC::kEngagementReactions},
    {"reactions/rate_per_h_last_6h", FC::kEngagementReactions},
    {"reactions/log1p_last_1d", FC::kEngagementReactions},
    {"reactions/rate_per_h_last_1d", FC::kEngagementReactions},
    {"reactions/log1p_first_30m", FC::kEngagementReactions},
    {"reactions/log1p_first_1h", FC::kEngagementReactions},
    {"reactions/log1p_first_6h", FC::kEngagementReactions},
    {"reactions/log1p_first_1d", FC::kEngagementReactions},
    {"reactions/log1p_ewma_per_h", FC::kEngagementReactions},
    {"reactions/mean_event_age_h", FC::kEngagementReactions},
    {"reactions/first_event_age_h", FC::kEngagementReactions},
    {"reactions/last_event_age_h", FC::kEngagementReactions},
    {"reactions/recency_h", FC::kEngagementReactions},
    {"combo/shares_per_view", FC::kEngagementCombos},
    {"combo/comments_per_view", FC::kEngagementCombos},
    {"combo/reactions_per_view", FC::kEngagementCombos},
    {"combo/views_recent_frac", FC::kEngagementCombos},
    {"combo/velocity_short_to_long", FC::kEngagementCombos},
    {"other/age_h", FC::kOther},
    {"other/log1p_age_h", FC::kOther},
    {"other/creation_tod", FC::kOther},
    {"other/day_of_week", FC::kOther},
    {"other/log1p_group_members", FC::kOther},
};

const std::vector<uint32_t> kRowA = {
    0x00000000u, 0x3f800000u, 0x00000000u, 0x00000000u, 0x00000000u, 0x40800000u,
    0x00000000u, 0x40400000u, 0x409e5c3eu, 0x3f800000u, 0x00000000u, 0x4116efe1u,
    0x41051a91u, 0x3ea7ef9eu, 0x4068ce36u, 0x444b2000u, 0x00000000u, 0x00000000u,
    0x00000000u, 0x3f800000u, 0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u,
    0x40f7b715u, 0x3ecf991fu, 0x3cfdf3b6u, 0x3c449ba6u, 0x4135a021u, 0x409a818cu,
    0x3fb17218u, 0x41400000u, 0x401f08b6u, 0x41300000u, 0x4099fd6au, 0x41a2aaabu,
    0x4099fd6au, 0x40a2aaabu, 0x405dce9eu, 0x4077c1c2u, 0x409a818cu, 0x409a818cu,
    0x402463c7u, 0x4006638eu, 0x00000000u, 0x40bdf777u, 0x3d822222u, 0x403c71b0u,
    0x00000000u, 0x00000000u, 0x3f317218u, 0x3f800000u, 0x403c71b0u, 0x40400000u,
    0x403c71b0u, 0x3f400000u, 0x3fe55860u, 0x40051592u, 0x403c71b0u, 0x403c71b0u,
    0x3f71b925u, 0x40015e3fu, 0x3b6ca864u, 0x40b29d95u, 0x3ed626afu, 0x40242821u,
    0x3f317218u, 0x40800000u, 0x3f317218u, 0x3f800000u, 0x40242821u, 0x40000000u,
    0x40242821u, 0x3f000000u, 0x3fb17218u, 0x3fe55860u, 0x40242821u, 0x40242821u,
    0x3f5c1b32u, 0x4007687cu, 0x3c03fb73u, 0x40b87259u, 0x3e71b4e8u, 0x4070b781u,
    0x3f317218u, 0x40800000u, 0x3fce0210u, 0x40800000u, 0x406f35fbu, 0x40daaaabu,
    0x406f35fbu, 0x3fdaaaabu, 0x401f08b6u, 0x4035535eu, 0x4070b781u, 0x4070b781u,
    0x3fd6c62cu, 0x4007638eu, 0x3ab60b61u, 0x40be02d8u, 0x3d7e93e9u, 0x3e14a529u,
    0x3dc6318cu, 0x3ead6b5bu, 0x3f7bdef8u, 0x401714fcu, 0x40c00000u, 0x3ff91395u,
    0x41140000u, 0x40000000u, 0x00000000u,
};

const std::vector<uint32_t> kRowB = {
    0x00000000u, 0x00000000u, 0x00000000u, 0x3f800000u, 0x00000000u, 0x40a00000u,
    0x40000000u, 0x40000000u, 0x40a8e651u, 0x00000000u, 0x3f800000u, 0x412206d8u,
    0x4108473eu, 0x3e4ccccdu, 0x4052eefeu, 0x44552000u, 0x3f800000u, 0x00000000u,
    0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u, 0x3f800000u, 0x00000000u,
    0x40e18c62u, 0x3f8c9f54u, 0x3d27ef9eu, 0x3cc49ba6u, 0x4124e3eeu, 0x40b6a0a6u,
    0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u,
    0x00000000u, 0x00000000u, 0x405dce9eu, 0x4077c1c2u, 0x409a818cu, 0x40b19208u,
    0x24511b66u, 0x41331f87u, 0x00000000u, 0x4202d000u, 0x421d3000u, 0x4072302au,
    0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u,
    0x00000000u, 0x00000000u, 0x3fe55860u, 0x40051592u, 0x403c71b0u, 0x4068ce36u,
    0x2290a937u, 0x412f18bfu, 0x3b6ca864u, 0x41fd3210u, 0x422166f8u, 0x405781c6u,
    0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u,
    0x00000000u, 0x00000000u, 0x3fb17218u, 0x3fe55860u, 0x40242821u, 0x404e0210u,
    0x22e88197u, 0x4133b432u, 0x3c03fb73u, 0x4201250du, 0x421edaf3u, 0x4093af11u,
    0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u,
    0x00000000u, 0x00000000u, 0x401f08b6u, 0x4035535eu, 0x4070b781u, 0x408ee8b8u,
    0x235f079fu, 0x413165b0u, 0x3ab60b61u, 0x42011e39u, 0x421ee1c7u, 0x3e12c5f9u,
    0x3dbf258cu, 0x3eaaaaabu, 0x00000000u, 0x00000000u, 0x42900000u, 0x40894b72u,
    0x417c0000u, 0x40a00000u, 0x410935deu,
};

const std::vector<uint32_t> kRowC = {
    0x3f800000u, 0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u, 0x40c00000u,
    0x40800000u, 0x3f800000u, 0x40b0d083u, 0x3f800000u, 0x00000000u, 0x41288393u,
    0x410aed11u, 0x3e211bfdu, 0x40317218u, 0x445f2000u, 0x00000000u, 0x00000000u,
    0x3f800000u, 0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u,
    0x40d4965fu, 0x3fc0859cu, 0x3d50e560u, 0x3d1374bcu, 0x41159a60u, 0x00000000u,
    0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u,
    0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u,
    0x00000000u, 0x00000000u, 0xb991a2b4u, 0xb991a2b4u, 0xbf800000u, 0x00000000u,
    0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u,
    0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u,
    0x00000000u, 0x00000000u, 0xb991a2b4u, 0xb991a2b4u, 0xbf800000u, 0x00000000u,
    0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u,
    0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u,
    0x00000000u, 0x00000000u, 0xb991a2b4u, 0xb991a2b4u, 0xbf800000u, 0x00000000u,
    0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u,
    0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u,
    0x00000000u, 0x00000000u, 0xb991a2b4u, 0xb991a2b4u, 0xbf800000u, 0x00000000u,
    0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u, 0x3e2aaaabu, 0x3e1dd9adu,
    0x41b20000u, 0x3f800000u, 0x00000000u,
};

const std::vector<uint32_t> kRowTwoWindows = {
    0x00000000u, 0x3f800000u, 0x00000000u, 0x00000000u, 0x00000000u, 0x40800000u,
    0x00000000u, 0x40400000u, 0x409e5c3eu, 0x3f800000u, 0x00000000u, 0x412206d8u,
    0x4108473eu, 0x3e4ccccdu, 0x4052eefeu, 0x44552000u, 0x3f800000u, 0x00000000u,
    0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u, 0x3f800000u, 0x00000000u,
    0x40e18c62u, 0x3f8c9f54u, 0x3d27ef9eu, 0x3cc49ba6u, 0x4124e3eeu, 0x4099771eu,
    0x00000000u, 0x00000000u, 0x405084a7u, 0x40055555u, 0x360d27e0u, 0x408e4ddeu,
    0x00000000u, 0x4148d000u, 0x40ee6000u, 0x403c71b0u, 0x00000000u, 0x00000000u,
    0x3fce0210u, 0x3eaaaaabu, 0x354472fau, 0x4091650du, 0x3b6ca864u, 0x4148decbu,
    0x40ee426bu, 0x401f08b6u, 0x00000000u, 0x00000000u, 0x3f8c9f54u, 0x3e2aaaabu,
    0x32c09ed7u, 0x408021feu, 0x3c03fb73u, 0x412d60ffu, 0x41129f01u, 0x406dab2au,
    0x00000000u, 0x00000000u, 0x400c9f54u, 0x3f2aaaabu, 0x34f36833u, 0x408afb61u,
    0x3ab60b61u, 0x414288e4u, 0x40faee39u, 0x3e19999au, 0x3dbbbbbcu, 0x3eaaaaabu,
    0x3e555555u, 0x00000000u, 0x41a00000u, 0x4042d975u, 0x41140000u, 0x40000000u,
    0x00000000u,
};

std::vector<uint32_t> Bits(const std::vector<float>& row) {
  std::vector<uint32_t> bits(row.size());
  std::memcpy(bits.data(), row.data(), row.size() * sizeof(float));
  return bits;
}

// Extracts the same row through ExtractInto and through a 3-row strided
// batch; both must agree bit for bit before either is compared to the pin.
std::vector<uint32_t> PinnedRow(const FeatureExtractor& extractor,
                                const datagen::PageProfile& page,
                                const datagen::PostProfile& post,
                                const stream::TrackerSnapshot& snap) {
  const size_t width = extractor.schema().size();
  std::vector<float> row(width);
  extractor.ExtractInto(page, post, snap, row.data());
  std::vector<float> strided(3 * width, -7.0f);
  extractor.ExtractIntoStrided(page, post, snap, strided.data() + 1, 3);
  for (size_t f = 0; f < width; ++f) {
    EXPECT_EQ(std::memcmp(&row[f], &strided[1 + 3 * f], sizeof(float)), 0) << f;
    EXPECT_EQ(strided[3 * f], -7.0f) << f;
  }
  return Bits(row);
}

TEST(FeatureLayoutPinTest, DefaultSchemaNamesAndCategories) {
  const FeatureExtractor extractor(stream::TrackerConfig{});
  const FeatureSchema& schema = extractor.schema();
  ASSERT_EQ(schema.size(), kDefaultSchema.size());
  for (size_t i = 0; i < schema.size(); ++i) {
    EXPECT_EQ(schema.def(i).name, kDefaultSchema[i].name) << i;
    EXPECT_EQ(schema.def(i).category, kDefaultSchema[i].category) << i;
  }
}

TEST(FeatureLayoutPinTest, DefaultConfigRowsAreBitExact) {
  const FeatureExtractor extractor(stream::TrackerConfig{});
  const auto cascade = PinCascade(300, 20.0);
  EXPECT_EQ(PinnedRow(extractor, PinPage(0), PinPost(0),
                      extractor.ReplaySnapshot(cascade, 6 * kHour)),
            kRowA);
  EXPECT_EQ(PinnedRow(extractor, PinPage(1), PinPost(1),
                      extractor.ReplaySnapshot(cascade, 3 * kDay)),
            kRowB);
  // No events at all: the -1 "never seen" ages and zero-view ratios.
  EXPECT_EQ(PinnedRow(extractor, PinPage(2), PinPost(2),
                      extractor.ReplaySnapshot(PinCascade(0, 20.0), 600.0)),
            kRowC);
}

TEST(FeatureLayoutPinTest, TwoWindowsNoLandmarksRowIsBitExact) {
  const FeatureExtractor extractor(TwoWindowsNoLandmarks());
  ASSERT_EQ(extractor.schema().size(), 79u);
  EXPECT_EQ(extractor.schema().def(32).name, "views/log1p_last_12h");
  EXPECT_EQ(extractor.schema().def(34).name, "views/log1p_ewma_per_h");
  EXPECT_EQ(PinnedRow(extractor, PinPage(1), PinPost(0),
                      extractor.ReplaySnapshot(PinCascade(120, 45.0), 20 * kHour)),
            kRowTwoWindows);
}

}  // namespace
}  // namespace horizon::features
