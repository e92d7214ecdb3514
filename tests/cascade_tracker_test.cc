#include "stream/cascade_tracker.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/units.h"

namespace horizon::stream {
namespace {

TrackerConfig SmallConfig() {
  TrackerConfig config;
  config.window_lengths = {10.0, 100.0};
  config.landmark_ages = {5.0, 50.0};
  config.ewma_tau = 10.0;
  config.epsilon = 0.01;
  return config;
}

TEST(CascadeTrackerTest, TotalsPerType) {
  CascadeTracker tracker(100.0, SmallConfig());
  tracker.Observe(EngagementType::kView, 101.0);
  tracker.Observe(EngagementType::kView, 102.0);
  tracker.Observe(EngagementType::kShare, 103.0);
  EXPECT_EQ(tracker.TotalCount(EngagementType::kView), 2u);
  EXPECT_EQ(tracker.TotalCount(EngagementType::kShare), 1u);
  EXPECT_EQ(tracker.TotalCount(EngagementType::kComment), 0u);
}

TEST(CascadeTrackerTest, LandmarkCountsAreExact) {
  CascadeTracker tracker(0.0, SmallConfig());
  // Events at ages 1, 2, 4.9, 5.1, 20, 60.
  for (double t : {1.0, 2.0, 4.9, 5.1, 20.0, 60.0}) {
    tracker.Observe(EngagementType::kView, t);
  }
  const auto snap = tracker.Snapshot(70.0);
  // Landmark 5.0: events with age <= 5 -> {1, 2, 4.9} = 3.
  EXPECT_EQ(snap.views().landmark_counts[0], 3u);
  // Landmark 50: {1, 2, 4.9, 5.1, 20} = 5.
  EXPECT_EQ(snap.views().landmark_counts[1], 5u);
  EXPECT_EQ(snap.views().total, 6u);
}

TEST(CascadeTrackerTest, LandmarkBeforeReachedReportsRunningTotal) {
  CascadeTracker tracker(0.0, SmallConfig());
  tracker.Observe(EngagementType::kView, 1.0);
  tracker.Observe(EngagementType::kView, 2.0);
  const auto snap = tracker.Snapshot(3.0);  // before both landmarks
  EXPECT_EQ(snap.views().landmark_counts[0], 2u);
  EXPECT_EQ(snap.views().landmark_counts[1], 2u);
}

TEST(CascadeTrackerTest, WindowCountsApproximatelyCorrect) {
  CascadeTracker tracker(0.0, SmallConfig());
  for (int i = 0; i < 200; ++i) {
    tracker.Observe(EngagementType::kView, static_cast<double>(i));
  }
  const auto snap = tracker.Snapshot(199.5);
  // ~10 events in the last 10 s, ~100 in the last 100 s.
  EXPECT_NEAR(static_cast<double>(snap.views().window_counts[0]), 10.0, 2.0);
  EXPECT_NEAR(static_cast<double>(snap.views().window_counts[1]), 100.0, 5.0);
  EXPECT_NEAR(snap.views().window_rates[1] * 100.0,
              static_cast<double>(snap.views().window_counts[1]), 1e-9);
}

TEST(CascadeTrackerTest, MeanEventAge) {
  CascadeTracker tracker(0.0, SmallConfig());
  tracker.Observe(EngagementType::kView, 2.0);
  tracker.Observe(EngagementType::kView, 4.0);
  tracker.Observe(EngagementType::kView, 6.0);
  const auto snap = tracker.Snapshot(10.0);
  EXPECT_DOUBLE_EQ(snap.views().mean_event_age, 4.0);
  EXPECT_DOUBLE_EQ(snap.views().first_event_age, 2.0);
  EXPECT_DOUBLE_EQ(snap.views().last_event_age, 6.0);
}

TEST(CascadeTrackerTest, EmptyStreamSnapshot) {
  CascadeTracker tracker(0.0, SmallConfig());
  const auto snap = tracker.Snapshot(10.0);
  EXPECT_EQ(snap.views().total, 0u);
  EXPECT_EQ(snap.views().first_event_age, -1.0);
  EXPECT_EQ(snap.views().last_event_age, -1.0);
  EXPECT_EQ(snap.views().ewma_rate, 0.0);
  EXPECT_EQ(snap.views().mean_event_age, 0.0);
}

TEST(CascadeTrackerTest, EwmaRateDecaysBetweenEvents) {
  CascadeTracker tracker(0.0, SmallConfig());
  tracker.Observe(EngagementType::kView, 1.0);
  const auto early = tracker.Snapshot(1.0);
  const auto late = tracker.Snapshot(31.0);
  EXPECT_GT(early.views().ewma_rate, 0.0);
  EXPECT_NEAR(late.views().ewma_rate,
              early.views().ewma_rate * std::exp(-30.0 / 10.0), 1e-12);
}

TEST(CascadeTrackerTest, EwmaRateTracksSteadyRate) {
  TrackerConfig config = SmallConfig();
  config.ewma_tau = 50.0;
  CascadeTracker tracker(0.0, config);
  // Steady rate of 2 events/s for 200 s.
  for (int i = 0; i < 400; ++i) {
    tracker.Observe(EngagementType::kView, i * 0.5);
  }
  const auto snap = tracker.Snapshot(199.5);
  EXPECT_NEAR(snap.views().ewma_rate, 2.0, 0.3);
}

TEST(CascadeTrackerTest, StreamsAreIndependent) {
  CascadeTracker tracker(0.0, SmallConfig());
  tracker.Observe(EngagementType::kView, 1.0);
  tracker.Observe(EngagementType::kComment, 2.0);
  const auto snap = tracker.Snapshot(3.0);
  EXPECT_EQ(snap.views().total, 1u);
  EXPECT_EQ(snap.comments().total, 1u);
  EXPECT_EQ(snap.shares().total, 0u);
  EXPECT_DOUBLE_EQ(snap.views().last_event_age, 1.0);
  EXPECT_DOUBLE_EQ(snap.comments().last_event_age, 2.0);
}

TEST(CascadeTrackerTest, SnapshotAgeIsRelativeToCreation) {
  CascadeTracker tracker(1000.0, SmallConfig());
  const auto snap = tracker.Snapshot(1010.0);
  EXPECT_DOUBLE_EQ(snap.age, 10.0);
}

void ExpectSameSnapshot(const TrackerSnapshot& a, const TrackerSnapshot& b) {
  EXPECT_EQ(a.age, b.age);
  for (int t = 0; t < kNumEngagementTypes; ++t) {
    const StreamSnapshot& x = a.streams[t];
    const StreamSnapshot& y = b.streams[t];
    EXPECT_EQ(x.total, y.total) << t;
    EXPECT_EQ(x.window_counts, y.window_counts) << t;
    EXPECT_EQ(x.window_rates, y.window_rates) << t;
    EXPECT_EQ(x.landmark_counts, y.landmark_counts) << t;
    EXPECT_EQ(x.ewma_rate, y.ewma_rate) << t;
    EXPECT_EQ(x.mean_event_age, y.mean_event_age) << t;
    EXPECT_EQ(x.first_event_age, y.first_event_age) << t;
    EXPECT_EQ(x.last_event_age, y.last_event_age) << t;
  }
}

TEST(CascadeTrackerTest, SnapshotIntoReusedBufferMatchesSnapshot) {
  // One buffer carried across trackers and times, as the serving query
  // paths carry it across items: nothing of an earlier item may leak in.
  CascadeTracker busy(0.0, SmallConfig());
  for (double t = 0.5; t < 80.0; t += 0.75) {
    busy.Observe(static_cast<EngagementType>(static_cast<int>(t) % 4), t);
  }
  const CascadeTracker empty(20.0, SmallConfig());
  TrackerSnapshot reused;
  for (double s : {80.0, 120.0}) {
    busy.SnapshotInto(s, &reused);
    ExpectSameSnapshot(reused, busy.Snapshot(s));
    empty.SnapshotInto(s, &reused);
    ExpectSameSnapshot(reused, empty.Snapshot(s));
  }
}

TEST(EngagementTypeTest, Names) {
  EXPECT_STREQ(EngagementTypeName(EngagementType::kView), "view");
  EXPECT_STREQ(EngagementTypeName(EngagementType::kShare), "share");
  EXPECT_STREQ(EngagementTypeName(EngagementType::kComment), "comment");
  EXPECT_STREQ(EngagementTypeName(EngagementType::kReaction), "reaction");
}

}  // namespace
}  // namespace horizon::stream
