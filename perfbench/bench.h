// Shared declarations of the end-to-end replay benchmark (see README.md).
//
// The benchmark is a single-threaded load generator in front of the real
// serving::PredictionService.  Every timing it reports covers only the
// calls of its own operation, made from outside the program; every answer
// the service gives is checked against quantities the benchmark computes
// itself from the raw generated inputs.
#ifndef HORIZON_PERFBENCH_BENCH_H_
#define HORIZON_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/hawkes_predictor.h"
#include "datagen/event_stream.h"
#include "datagen/generator.h"
#include "features/extractor.h"
#include "serving/prediction_service.h"

namespace perfbench {

using namespace horizon;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Deterministic 64-bit generator (splitmix64): the same seed gives the
/// same inputs on every platform, which std:: distributions do not promise.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [0, n).
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t state_;
};

/// A corruption the self-test injects on the benchmark's side; each one
/// must make exactly the check named after it report a failure.
enum class Fault {
  kNone = 0,
  kAnswerViews,       // an answer's observed_views is off by one
  kSentCount,         // the benchmark's own count of views sent is off by one
  kPredictedBelow,    // an answer's prediction falls below its observation
  kAlphaRange,        // an answer's alpha leaves [alpha_min, alpha_max]
  kMonotone,          // two horizons of one item swap their answers
  kRatio,             // one horizon's increment is scaled by 1 + 1e-6
  kReplayBit,         // a recorded prediction loses its lowest mantissa bit
  kScan,              // a top-k scan result's prediction is perturbed
  kCheckpointByte,    // one byte of a written checkpoint is flipped
  kRestoreAnswer,     // a restored service's answer is perturbed
  kTau,               // predictions are shuffled across items
  kCount,
};
const char* FaultName(Fault fault);
/// Name of the check that must report `fault`.
const char* FaultCheck(Fault fault);

/// Command-line settings of one run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the timed phase; required, since the bounds in
  /// BENCHMARK.json hold only for its run_seconds.
  double seconds = 0.0;
  bool trace = false;
  /// Directory for checkpoints and span files (inside the checkout).
  std::string work_dir = ".bench_build/perfbench-work";
  /// Stop after this many rounds (0: only the clock stops the run).
  int rounds = 0;
  /// Self-test: small inputs, one injected fault.
  bool small = false;
  Fault fault = Fault::kNone;
};

/// The trained model every workload serves, plus the setup timings of the
/// layers that built it.
struct Model {
  stream::TrackerConfig tracker;
  features::FeatureExtractor extractor{stream::TrackerConfig{}};
  core::HawkesPredictor predictor;
  double generate_s = 0.0;  // history generation (datagen)
  double train_s = 0.0;     // example extraction + GBDT fits (core, gbdt)
};

/// Generates a training history from `seed` and fits the predictor.
void TrainModel(uint64_t seed, bool small, Model* model);

/// One answered query as the benchmark saw it.
struct Answer {
  int64_t id = 0;
  double s = 0.0;
  double delta = 0.0;
  double observed = 0.0;
  double predicted = 0.0;
  double alpha = 0.0;
};

/// One engagement event of an item's log (for replays into fresh trackers).
struct LoggedEvent {
  double time = 0.0;
  stream::EngagementType type = stream::EngagementType::kView;
};

/// A sampled answer kept for the after-phase checks.  The service's
/// tracker held the first k of the item's logged events for some k in
/// [events_lo, events_hi] (equal in sync mode; between the last barrier
/// and the last send in async mode).
struct Record {
  Answer answer;
  uint32_t events_lo = 0;
  uint32_t events_hi = 0;
};

/// Per-operation tallies.  `busy_ns` sums the wall time of the calls only.
struct OpStats {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t busy_ns = 0;
  uint64_t items = 0;  // events applied / items answered / bytes written
};

/// Result of one workload run, printed by main.
struct RunResult {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failed_checks;  // names of checks that failed
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
};

/// Runs a workload ("replay_sync", "replay_async", "horizon_queries").
/// `start_ns` is the process start, for setup_s.  Returns false on an
/// unknown workload name.
bool RunWorkload(const Options& options, const Model& model, uint64_t start_ns,
                 RunResult* result);

}  // namespace perfbench

#endif  // HORIZON_PERFBENCH_BENCH_H_
