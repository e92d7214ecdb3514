#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <unordered_map>

namespace perfbench {
namespace {

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

std::string Describe(const Answer& a) {
  char buf[224];
  std::snprintf(buf, sizeof buf,
                "id=%lld s=%.17g delta=%.17g observed=%.17g predicted=%.17g "
                "alpha=%.17g",
                static_cast<long long>(a.id), a.s, a.delta, a.observed,
                a.predicted, a.alpha);
  return buf;
}

}  // namespace

bool Checks::AllPassed() {
  for (const Check* c : All()) {
    if (c->checked == 0 || c->failed > 0) return false;
  }
  return true;
}

std::vector<std::string> Checks::Failed() {
  std::vector<std::string> out;
  for (const Check* c : All()) {
    if (c->failed > 0) out.push_back(c->name);
  }
  return out;
}

void Checks::Print() {
  for (const Check* c : All()) {
    std::fprintf(stderr, "check %-28s %10llu checked %6llu failed%s%s\n", c->name,
                 static_cast<unsigned long long>(c->checked),
                 static_cast<unsigned long long>(c->failed),
                 c->failed > 0 ? "  first: " : (c->checked == 0 ? "  NEVER RAN" : ""),
                 c->first_failure.c_str());
  }
}

void CheckAnswer(const Answer& a, uint64_t views_lo, uint64_t views_hi,
                 const core::HawkesPredictorParams& params, Checks* checks) {
  if (a.observed >= static_cast<double>(views_lo) &&
      a.observed <= static_cast<double>(views_hi)) {
    checks->views.Pass();
  } else {
    checks->views.Fail(Describe(a) + " expected views in [" +
                       std::to_string(views_lo) + ", " +
                       std::to_string(views_hi) + "]");
  }
  if (a.predicted >= a.observed) {
    checks->bounds.Pass();
  } else {
    checks->bounds.Fail(Describe(a));
  }
  if (a.alpha >= params.alpha_min && a.alpha <= params.alpha_max) {
    checks->alpha.Pass();
  } else {
    checks->alpha.Fail(Describe(a));
  }
}

void CheckHorizonSet(const std::vector<Answer>& answers, Checks* checks) {
  for (size_t i = 1; i < answers.size(); ++i) {
    const Answer& a = answers[i - 1];
    const Answer& b = answers[i];
    const bool same_state = a.id == b.id && SameBits(a.s, b.s) &&
                            SameBits(a.observed, b.observed) &&
                            SameBits(a.alpha, b.alpha) && a.delta < b.delta;
    const double inc_a = a.predicted - a.observed;
    const double inc_b = b.predicted - b.observed;
    if (same_state && inc_b >= inc_a) {
      checks->monotone.Pass();
    } else {
      checks->monotone.Fail(Describe(a) + " then " + Describe(b));
    }
    // Eq. 7: the increment is C (1 - e^{-alpha delta}) for one C per
    // (item, s), so the ratio at two horizons depends on alpha alone.  An
    // increment is recovered as predicted - observed, which carries the
    // rounding of the service's observed + increment: half an ulp of the
    // prediction, large against a tiny increment.
    const double expected =
        std::expm1(-a.alpha * a.delta) / std::expm1(-b.alpha * b.delta);
    const auto half_ulp = [](double x) { return (std::nextafter(x, INFINITY) - x) / 2; };
    const double tolerance =
        1e-12 * expected +
        (half_ulp(a.predicted) + expected * half_ulp(b.predicted)) / inc_b;
    const bool ratio_ok = inc_b == 0.0 ? inc_a == 0.0
                                       : std::fabs(inc_a / inc_b - expected) <= tolerance;
    if (same_state && ratio_ok) {
      checks->ratio.Pass();
    } else {
      char buf[96];
      std::snprintf(buf, sizeof buf, " ratio %.17g expected %.17g",
                    inc_b == 0.0 ? 0.0 : inc_a / inc_b, expected);
      checks->ratio.Fail(Describe(a) + " then " + Describe(b) + buf);
    }
  }
}

void CheckReplay(const Model& model, const datagen::PageProfile& page,
                 const datagen::PostProfile& post,
                 const std::vector<LoggedEvent>& log, const Record& record,
                 Checks* checks) {
  const Answer& a = record.answer;
  if (record.events_hi > log.size() || record.events_lo > record.events_hi) {
    checks->replay.Fail(Describe(a) + " event range beyond the item's log");
    return;
  }
  stream::CascadeTracker tracker(post.creation_time, model.tracker);
  size_t k = 0;
  for (; k < record.events_lo; ++k) tracker.Observe(log[k].type, log[k].time);
  std::vector<float> row(model.extractor.schema().size());
  for (;; ++k) {
    const double views =
        static_cast<double>(tracker.TotalCount(stream::EngagementType::kView));
    if (views == a.observed) {
      model.extractor.ExtractInto(page, post, tracker.Snapshot(a.s), row.data());
      const double predicted = model.predictor.PredictCount(row.data(), views, a.delta);
      const double alpha = model.predictor.PredictAlpha(row.data());
      if (SameBits(predicted, a.predicted) && SameBits(alpha, a.alpha)) {
        checks->replay.Pass();
        return;
      }
    }
    if (k >= record.events_hi) break;
    tracker.Observe(log[k].type, log[k].time);
  }
  checks->replay.Fail(Describe(a) + " matches no replayed prefix in [" +
                      std::to_string(record.events_lo) + ", " +
                      std::to_string(record.events_hi) + "]");
}

void CheckScan(const serving::QueryResponse& scan,
               const serving::QueryResponse& all, size_t k, Checks* checks) {
  std::unordered_map<int64_t, const serving::PredictionResult*> by_id;
  for (const auto& r : all.results) by_id[r.item_id] = &r.prediction;
  if (scan.results.size() != std::min(k, all.results.size())) {
    checks->scan.Fail("scan returned " + std::to_string(scan.results.size()) +
                      " items, " + std::to_string(all.results.size()) + " live");
    return;
  }
  double weakest = INFINITY;
  for (const auto& r : scan.results) {
    const auto it = by_id.find(r.item_id);
    const serving::PredictionResult& p = r.prediction;
    if (it == by_id.end() || !SameBits(p.observed_views, it->second->observed_views) ||
        !SameBits(p.predicted_views, it->second->predicted_views) ||
        !SameBits(p.alpha, it->second->alpha)) {
      checks->scan.Fail("scan item " + std::to_string(r.item_id) +
                        " disagrees with its per-id answer");
      return;
    }
    weakest = std::min(weakest, p.predicted_views - p.observed_views);
    by_id.erase(it);
  }
  // Whatever the scan left out must not beat its weakest winner.
  for (const auto& [id, p] : by_id) {
    if (p->predicted_views - p->observed_views > weakest) {
      checks->scan.Fail("item " + std::to_string(id) +
                        " beats the scan's weakest winner but is missing");
      return;
    }
  }
  checks->scan.Pass();
}

void CheckRestore(const std::vector<Answer>& written,
                  const std::vector<Answer>& restored, Checks* checks) {
  if (written.size() != restored.size()) {
    checks->restore.Fail("restored service answered " +
                         std::to_string(restored.size()) + " of " +
                         std::to_string(written.size()) + " queries");
    return;
  }
  for (size_t i = 0; i < written.size(); ++i) {
    const Answer& a = written[i];
    const Answer& b = restored[i];
    if (a.id != b.id || !SameBits(a.observed, b.observed) ||
        !SameBits(a.predicted, b.predicted) || !SameBits(a.alpha, b.alpha)) {
      checks->restore.Fail(Describe(a) + " restored as " + Describe(b));
      continue;
    }
    checks->restore.Pass();
  }
}

double KendallTauB(const std::vector<double>& x, const std::vector<double>& y) {
  const size_t n = std::min(x.size(), y.size());
  double concordant = 0, discordant = 0, ties_x = 0, ties_y = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const int dx = (x[i] > x[j]) - (x[i] < x[j]);
      const int dy = (y[i] > y[j]) - (y[i] < y[j]);
      if (dx == 0 && dy == 0) continue;
      if (dx == 0) {
        ++ties_x;
      } else if (dy == 0) {
        ++ties_y;
      } else if (dx == dy) {
        ++concordant;
      } else {
        ++discordant;
      }
    }
  }
  const double denom = std::sqrt((concordant + discordant + ties_x) *
                                 (concordant + discordant + ties_y));
  return denom > 0 ? (concordant - discordant) / denom : 0.0;
}

void CheckTau(const std::vector<double>& predicted,
              const std::vector<double>& truth, double floor, Checks* checks) {
  const double tau = KendallTauB(predicted, truth);
  std::fprintf(stderr, "kendall tau-b %.4f over %zu answers (floor %.2f)\n", tau,
               predicted.size(), floor);
  if (predicted.size() >= 100 && tau >= floor) {
    checks->tau.Pass();
  } else {
    checks->tau.Fail("tau " + std::to_string(tau) + " over " +
                     std::to_string(predicted.size()) + " answers");
  }
}

double TrueIncrement(const datagen::Cascade& cascade, double s, double delta) {
  const double c = cascade.post.creation_time;
  const auto by_time = [](double t, const pp::Event& e) { return t < e.time; };
  const auto& v = cascade.views;
  const auto upto_s = std::upper_bound(v.begin(), v.end(), s - c, by_time);
  const auto upto_end = std::upper_bound(upto_s, v.end(), s + delta - c, by_time);
  return static_cast<double>(upto_end - upto_s);
}

}  // namespace perfbench
