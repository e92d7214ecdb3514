#include "stream/cascade_tracker.h"

#include <cmath>
#include <sstream>

#include "common/check.h"

namespace horizon::stream {

const char* EngagementTypeName(EngagementType type) {
  switch (type) {
    case EngagementType::kView: return "view";
    case EngagementType::kShare: return "share";
    case EngagementType::kComment: return "comment";
    case EngagementType::kReaction: return "reaction";
  }
  return "unknown";
}

CascadeTracker::StreamState::StreamState(const TrackerConfig& config)
    : bank(config.window_lengths, config.epsilon),
      landmark_counts(config.landmark_ages.size(), 0),
      landmark_done(config.landmark_ages.size(), false) {}

void CascadeTracker::StreamState::Add(double age, const TrackerConfig& config) {
  // Finalize landmarks that this event's age has passed: their count is the
  // total *before* this event, because the landmark is "events with age <=
  // landmark".
  for (size_t j = 0; j < config.landmark_ages.size(); ++j) {
    if (!landmark_done[j] && age > config.landmark_ages[j]) {
      landmark_counts[j] = total;
      landmark_done[j] = true;
    }
  }
  bank.Add(age);
  ++total;
  age_sum.Add(age);
  if (first_age < 0.0) first_age = age;
  last_age = age;
  // EWMA intensity estimator: decay, then add the unit impulse 1/tau.
  const double dt = age - ewma_time;
  ewma_rate = ewma_rate * std::exp(-dt / config.ewma_tau) + 1.0 / config.ewma_tau;
  ewma_time = age;
}

void CascadeTracker::StreamState::SnapshotInto(double age,
                                               const TrackerConfig& config,
                                               StreamSnapshot* out) const {
  out->total = total;
  out->window_counts.resize(config.window_lengths.size());
  out->window_rates.resize(config.window_lengths.size());
  for (size_t i = 0; i < config.window_lengths.size(); ++i) {
    out->window_counts[i] = bank.Count(i, age);
    out->window_rates[i] =
        static_cast<double>(out->window_counts[i]) / config.window_lengths[i];
  }
  out->landmark_counts.resize(config.landmark_ages.size());
  for (size_t j = 0; j < config.landmark_ages.size(); ++j) {
    // If the landmark has been passed, report the finalized value; otherwise
    // every event so far happened before the landmark age.
    out->landmark_counts[j] =
        (landmark_done[j] && age > config.landmark_ages[j]) ? landmark_counts[j] : total;
  }
  out->ewma_rate = ewma_rate * std::exp(-(age - ewma_time) / config.ewma_tau);
  out->mean_event_age =
      total > 0 ? age_sum.value() / static_cast<double>(total) : 0.0;
  out->first_event_age = first_age;
  out->last_event_age = last_age;
}

CascadeTracker::CascadeTracker(double creation_time, const TrackerConfig& config)
    : creation_time_(creation_time),
      config_(config),
      streams_{StreamState(config), StreamState(config), StreamState(config),
               StreamState(config)} {
  HORIZON_CHECK(!config.window_lengths.empty());
  HORIZON_CHECK_GT(config.ewma_tau, 0.0);
}

void CascadeTracker::Observe(EngagementType type, double t) {
  HORIZON_CHECK_GE(t, creation_time_);
  streams_[static_cast<int>(type)].Add(t - creation_time_, config_);
}

uint64_t CascadeTracker::TotalCount(EngagementType type) const {
  return streams_[static_cast<int>(type)].total;
}

std::string CascadeTracker::Serialize() const {
  std::ostringstream os;
  os.precision(17);
  os << "trk v1\n";
  os << creation_time_ << " " << config_.window_lengths.size() << " "
     << config_.landmark_ages.size() << "\n";
  for (const StreamState& stream : streams_) {
    os << stream.total << " " << stream.first_age << " " << stream.last_age << " "
       << stream.ewma_rate << " " << stream.ewma_time << " "
       << stream.age_sum.value() << " " << stream.age_sum.compensation() << "\n";
    for (size_t j = 0; j < stream.landmark_counts.size(); ++j) {
      os << stream.landmark_counts[j] << " " << (stream.landmark_done[j] ? 1 : 0)
         << " ";
    }
    os << "\n";
    stream.bank.SerializeTo(os);
  }
  return os.str();
}

bool CascadeTracker::Deserialize(const std::string& text) {
  std::istringstream is(text);
  std::string magic, version;
  if (!(is >> magic >> version) || magic != "trk" || version != "v1") return false;
  double creation_time = 0.0;
  size_t num_windows = 0, num_landmarks = 0;
  if (!(is >> creation_time >> num_windows >> num_landmarks)) return false;
  if (!std::isfinite(creation_time) ||
      num_windows != config_.window_lengths.size() ||
      num_landmarks != config_.landmark_ages.size()) {
    return false;
  }
  for (StreamState& stream : streams_) {
    double sum = 0.0, comp = 0.0;
    if (!(is >> stream.total >> stream.first_age >> stream.last_age >>
          stream.ewma_rate >> stream.ewma_time >> sum >> comp)) {
      return false;
    }
    stream.age_sum.Restore(sum, comp);
    for (size_t j = 0; j < num_landmarks; ++j) {
      int done = 0;
      if (!(is >> stream.landmark_counts[j] >> done) || (done != 0 && done != 1)) {
        return false;
      }
      stream.landmark_done[j] = done == 1;
    }
    if (!stream.bank.DeserializeFrom(is)) return false;
  }
  creation_time_ = creation_time;
  return true;
}

TrackerSnapshot CascadeTracker::Snapshot(double s) const {
  TrackerSnapshot snap;
  SnapshotInto(s, &snap);
  return snap;
}

void CascadeTracker::SnapshotInto(double s, TrackerSnapshot* out) const {
  HORIZON_CHECK_GE(s, creation_time_);
  out->age = s - creation_time_;
  for (int i = 0; i < kNumEngagementTypes; ++i) {
    streams_[i].SnapshotInto(out->age, config_, &out->streams[i]);
  }
}

}  // namespace horizon::stream
