// Output checks of the replay benchmark.  Each expected value is computed
// apart from the program: from the benchmark's own counts of what it sent,
// from a replay into a fresh tracker, from a second service call on the
// same state, or from the generator's ground-truth cascades.
#ifndef HORIZON_PERFBENCH_CHECKS_H_
#define HORIZON_PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

/// Tally of one named check.
struct Check {
  explicit Check(const char* check_name) : name(check_name) {}
  const char* name;
  uint64_t checked = 0;
  uint64_t failed = 0;
  std::string first_failure;
  void Pass() { ++checked; }
  void Fail(const std::string& why) {
    ++checked;
    if (failed++ == 0) first_failure = why;
  }
};

struct Checks {
  Check views{"observed_views"};
  Check bounds{"predicted_ge_observed"};
  Check alpha{"alpha_in_range"};
  Check monotone{"increment_monotone_in_delta"};
  Check ratio{"increment_ratio_expm1"};
  Check replay{"replay_bit_exact"};
  Check scan{"scan_matches_batch"};
  Check restore{"restore_bit_exact"};
  Check tau{"kendall_tau_floor"};

  std::vector<Check*> All() {
    return {&views, &bounds, &alpha, &monotone, &ratio,
            &replay, &scan, &restore, &tau};
  }
  /// Every check ran at least once and none failed.
  bool AllPassed();
  std::vector<std::string> Failed();
  /// One line per check on stderr.
  void Print();
};

/// observed_views lies in [views_lo, views_hi] (a single value in sync
/// mode); predicted >= observed; alpha_min <= alpha <= alpha_max.
void CheckAnswer(const Answer& a, uint64_t views_lo, uint64_t views_hi,
                 const core::HawkesPredictorParams& params, Checks* checks);

/// `answers` are one item at one s over strictly increasing deltas, read
/// from unchanged state: the increment does not decrease with delta
/// (Prop. 3.2) and inc(d1)/inc(d2) == expm1(-a d1)/expm1(-a d2) for the
/// alpha the service returned.
void CheckHorizonSet(const std::vector<Answer>& answers, Checks* checks);

/// Replays `log` into a fresh tracker and scores the snapshot through
/// HawkesPredictor::PredictCount / PredictAlpha: some prefix of
/// [events_lo, events_hi] events must reproduce the recorded answer
/// bit for bit.
void CheckReplay(const Model& model, const datagen::PageProfile& page,
                 const datagen::PostProfile& post,
                 const std::vector<LoggedEvent>& log, const Record& record,
                 Checks* checks);

/// A scan-mode top-k answer agrees with a per-id BatchQuery over every
/// live id at the same (s, delta): same winners, bit-identical values.
void CheckScan(const serving::QueryResponse& scan,
               const serving::QueryResponse& all, size_t k, Checks* checks);

/// Two services answered the same requests bit-identically.
void CheckRestore(const std::vector<Answer>& written,
                  const std::vector<Answer>& restored, Checks* checks);

/// Kendall tau-b (tie-corrected) of two equally long samples.
double KendallTauB(const std::vector<double>& x, const std::vector<double>& y);

/// Tau between predicted and true increments is at least `floor`.
void CheckTau(const std::vector<double>& predicted,
              const std::vector<double>& truth, double floor, Checks* checks);

/// True increment of a ground-truth cascade over (s, s + delta].
double TrueIncrement(const datagen::Cascade& cascade, double s, double delta);

}  // namespace perfbench

#endif  // HORIZON_PERFBENCH_CHECKS_H_
