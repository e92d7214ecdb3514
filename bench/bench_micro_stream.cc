// Micro-benchmark (google-benchmark): the stream substrate.  DGIM
// exponential-histogram Add/Count vs the exact sliding window, plus the
// memory footprint that makes O(1)-state tracking feasible per item, and
// the two per-query stages built on it: the tracker snapshot and the
// feature extraction of one row.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "datagen/profiles.h"
#include "features/extractor.h"
#include "gbdt/dataset.h"
#include "stream/cascade_tracker.h"
#include "stream/exponential_histogram.h"
#include "stream/sliding_window.h"

namespace {

using namespace horizon;
using namespace horizon::stream;

void BM_ExponentialHistogramAdd(benchmark::State& state) {
  const double epsilon = 1.0 / static_cast<double>(state.range(0));
  ExponentialHistogram hist(3600.0, epsilon);
  double t = 0.0;
  Rng rng(1);
  for (auto _ : state) {
    t += rng.Exponential(1.0);
    hist.Add(t);
  }
  state.counters["buckets"] = static_cast<double>(hist.NumBuckets());
}
BENCHMARK(BM_ExponentialHistogramAdd)->Arg(2)->Arg(10)->Arg(100);

void BM_ExactSlidingWindowAdd(benchmark::State& state) {
  ExactSlidingWindow window(3600.0);
  double t = 0.0;
  Rng rng(1);
  for (auto _ : state) {
    t += rng.Exponential(1.0);
    window.Add(t);
    if ((window.TotalCount() & 1023) == 0) {
      benchmark::DoNotOptimize(window.Count(t));
    }
  }
  state.counters["mem_events"] = static_cast<double>(window.MemoryEvents());
}
BENCHMARK(BM_ExactSlidingWindowAdd);

void BM_ExponentialHistogramCount(benchmark::State& state) {
  ExponentialHistogram hist(3600.0, 0.1);
  double t = 0.0;
  Rng rng(2);
  for (int i = 0; i < 100000; ++i) {
    t += rng.Exponential(2.0);
    hist.Add(t);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(hist.Count(t));
  }
}
BENCHMARK(BM_ExponentialHistogramCount);

void BM_CascadeTrackerObserve(benchmark::State& state) {
  CascadeTracker tracker(0.0, TrackerConfig{});
  double t = 0.0;
  Rng rng(3);
  for (auto _ : state) {
    t += rng.Exponential(0.5);
    tracker.Observe(EngagementType::kView, t);
  }
}
BENCHMARK(BM_CascadeTrackerObserve);

void BM_CascadeTrackerSnapshot(benchmark::State& state) {
  CascadeTracker tracker(0.0, TrackerConfig{});
  double t = 0.0;
  Rng rng(4);
  for (int i = 0; i < state.range(0); ++i) {
    t += rng.Exponential(0.5);
    tracker.Observe(EngagementType::kView, t);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracker.Snapshot(t));
  }
  // The point of the data structure: snapshot cost must be flat in the
  // number of observed events (compare across /1000 /100000).
}
BENCHMARK(BM_CascadeTrackerSnapshot)->Arg(1000)->Arg(100000);

// Snapshot into one reused TrackerSnapshot: the form the serving query
// paths use, so no vector is allocated after the first call.
void BM_CascadeTrackerSnapshotInto(benchmark::State& state) {
  CascadeTracker tracker(0.0, TrackerConfig{});
  double t = 0.0;
  Rng rng(4);
  for (int i = 0; i < state.range(0); ++i) {
    t += rng.Exponential(0.5);
    tracker.Observe(EngagementType::kView, t);
  }
  TrackerSnapshot snapshot;
  for (auto _ : state) {
    tracker.SnapshotInto(t, &snapshot);
    benchmark::DoNotOptimize(snapshot);
  }
}
BENCHMARK(BM_CascadeTrackerSnapshotInto)->Arg(1000)->Arg(100000);

// One ExtractIntoStrided row into a 256-row column-major batch, the
// layout the serving paths fill; the snapshot is taken once, outside.
void BM_FeatureExtract(benchmark::State& state) {
  CascadeTracker tracker(0.0, TrackerConfig{});
  double t = 0.0;
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    t += rng.Exponential(0.5);
    tracker.Observe(static_cast<EngagementType>(i % kNumEngagementTypes), t);
  }
  const TrackerSnapshot snapshot = tracker.Snapshot(t);
  const features::FeatureExtractor extractor(TrackerConfig{});
  const datagen::PageProfile page{};
  const datagen::PostProfile post{};
  constexpr size_t kRows = 256;
  gbdt::ExampleBatch batch(kRows, extractor.schema().size());
  size_t row = 0;
  for (auto _ : state) {
    extractor.ExtractIntoStrided(page, post, snapshot,
                                 batch.MutableRowBase(row),
                                 batch.feature_stride());
    benchmark::DoNotOptimize(batch.data());
    benchmark::ClobberMemory();
    row = (row + 1) % kRows;
  }
  state.counters["features"] = static_cast<double>(extractor.schema().size());
}
BENCHMARK(BM_FeatureExtract);

}  // namespace

BENCHMARK_MAIN();
