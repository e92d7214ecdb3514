// Figure 2: mean clock time (ms) to produce one prediction as a function
// of the normalized observed cascade size N(s), for the proposed Hawkes
// model (constant: an O(1) tracker snapshot, feature extraction and a few
// GBDT inferences) and SEISMIC-CF (linear: a pass over the full event
// history).  Each side's per-item state -- a CascadeTracker for HWK, the
// event history for SEISMIC -- is built outside the timed loops.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "baselines/seismic.h"
#include "common/table.h"
#include "common/check.h"
#include "common/timer.h"
#include "core/hawkes_predictor.h"
#include "eval/experiment.h"
#include "stream/cascade_tracker.h"

namespace {
using namespace horizon;
}  // namespace

int main() {
  std::printf("Reproduction of Figure 2 (Sec. 5.4): computation cost vs observed "
              "cascade size.\n\n");

  eval::ExperimentConfig config;
  config.generator.num_posts = 1200;
  config.generator.base_mean_size = 300.0;  // stretch the size axis
  eval::ExperimentData data = eval::PrepareExperiment(config);

  core::HawkesPredictorParams hwk_params;
  hwk_params.reference_horizons = config.examples.reference_horizons;
  hwk_params.gbdt_count = eval::BenchGbdtParams();
  hwk_params.gbdt_alpha = eval::BenchGbdtParams();
  core::HawkesPredictor hwk(hwk_params);
  hwk.Fit(data.train.x, data.train.log1p_increments, data.train.alpha_targets);

  baselines::SeismicCf seismic;
  const features::FeatureExtractor& extractor = *data.extractor;
  stream::TrackerSnapshot snapshot;
  std::vector<float> row(extractor.schema().size());

  // Pool all examples (train + test) and bin them by observed size N(s).
  struct Item {
    size_t cascade_index;
    double s;
    size_t n_s;
    const float* row;
  };
  std::vector<Item> items;
  for (size_t i = 0; i < data.test.size(); ++i) {
    const auto& ref = data.test.refs[i];
    items.push_back({ref.cascade_index, ref.prediction_age,
                     static_cast<size_t>(ref.n_s), data.test.x.Row(i)});
  }

  double mean_size = 0.0;
  for (const auto& it : items) mean_size += static_cast<double>(it.n_s);
  mean_size /= static_cast<double>(items.size());
  std::printf("mean N(s) over %zu test items: %.1f (the size normalizer)\n\n",
              items.size(), mean_size);

  // Log-spaced bins of N(s).
  const std::vector<double> bin_edges = {0, 10, 30, 100, 300, 1000, 3000, 10000,
                                         100000, 1e18};
  Table table({"N(s) bin", "norm. size", "n", "Hawkes ms", "SEISMIC ms",
               "SEISMIC/Hawkes"});

  for (size_t b = 0; b + 1 < bin_edges.size(); ++b) {
    std::vector<const Item*> bin;
    for (const auto& it : items) {
      if (static_cast<double>(it.n_s) >= bin_edges[b] &&
          static_cast<double>(it.n_s) < bin_edges[b + 1]) {
        bin.push_back(&it);
      }
    }
    if (bin.empty()) continue;

    // Per-item state of each method: SEISMIC's event history (the memory
    // cost of the baseline) and HWK's O(1) tracker, fed up to s.
    std::vector<std::vector<double>> histories;
    std::vector<stream::CascadeTracker> trackers;
    histories.reserve(bin.size());
    trackers.reserve(bin.size());
    double bin_mean = 0.0;
    for (const Item* it : bin) {
      std::vector<double> times;
      const auto& cascade = data.dataset.cascades[it->cascade_index];
      for (const auto& e : cascade.views) {
        if (e.time >= it->s) break;
        times.push_back(e.time);
      }
      histories.push_back(std::move(times));
      trackers.push_back(extractor.ReplayTracker(cascade, it->s));
      bin_mean += static_cast<double>(it->n_s);
    }
    bin_mean /= static_cast<double>(bin.size());

    // HWK's timed work per prediction: snapshot the tracker, extract the
    // feature row, run the forests.  The row must be the one the model
    // was evaluated on.
    const auto hwk_predict = [&](size_t k) {
      const Item& it = *bin[k];
      const auto& cascade = data.dataset.cascades[it.cascade_index];
      trackers[k].SnapshotInto(it.s, &snapshot);
      extractor.ExtractInto(data.dataset.PageOf(cascade.post), cascade.post,
                            snapshot, row.data());
      return hwk.PredictIncrement(row.data(), 2 * kDay);
    };
    for (size_t k = 0; k < bin.size(); ++k) {
      (void)hwk_predict(k);
      HORIZON_CHECK(std::memcmp(row.data(), bin[k]->row,
                                row.size() * sizeof(float)) == 0);
    }

    // Repeat to get stable timings for cheap predictions.
    const int reps = static_cast<int>(std::max(1.0, 20000.0 / bin.size() /
                                                        std::max(bin_mean, 1.0)));
    double sink_value = 0.0;
    volatile double* sink = &sink_value;

    Timer hwk_timer;
    for (int r = 0; r < reps; ++r) {
      for (size_t k = 0; k < bin.size(); ++k) {
        *sink = *sink + hwk_predict(k);
      }
    }
    const double hwk_ms =
        hwk_timer.ElapsedMillis() / (static_cast<double>(bin.size()) * reps);

    Timer seismic_timer;
    for (int r = 0; r < reps; ++r) {
      for (size_t k = 0; k < bin.size(); ++k) {
        *sink = *sink + seismic.PredictFinal(histories[k], bin[k]->s);
      }
    }
    const double seismic_ms =
        seismic_timer.ElapsedMillis() / (static_cast<double>(bin.size()) * reps);

    char bin_label[64];
    std::snprintf(bin_label, sizeof(bin_label), "[%g, %g)", bin_edges[b],
                  bin_edges[b + 1]);
    table.AddRow({bin_label, Table::Num(bin_mean / mean_size, 3),
                  std::to_string(bin.size()), Table::Num(hwk_ms, 4),
                  Table::Num(seismic_ms, 4),
                  Table::Num(seismic_ms / std::max(hwk_ms, 1e-12), 3)});
    (void)sink_value;
  }

  table.Print("Figure 2: mean prediction time (ms) vs observed cascade size");
  table.WriteCsv("fig2.csv");

  std::printf("Paper shape to check: Hawkes column flat (constant time); SEISMIC "
              "column\ngrows ~linearly with N(s) (the paper reports a ~4000x "
              "spread across bins).\n");
  return 0;
}
