#include "features/extractor.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <type_traits>

#include "common/check.h"
#include "common/units.h"
#include "obs/metrics.h"

namespace horizon::features {

namespace {

using stream::EngagementType;
using stream::StreamSnapshot;
using stream::TrackerConfig;
using stream::TrackerSnapshot;

float Log1p(double v) { return static_cast<float>(std::log1p(std::max(v, 0.0))); }

/// Category a given engagement stream's features belong to.
FeatureCategory CategoryOf(EngagementType type) {
  switch (type) {
    case EngagementType::kView: return FeatureCategory::kEngagementViews;
    case EngagementType::kShare: return FeatureCategory::kEngagementShares;
    case EngagementType::kComment: return FeatureCategory::kEngagementComments;
    case EngagementType::kReaction: return FeatureCategory::kEngagementReactions;
  }
  return FeatureCategory::kOther;
}

/// Builds a feature name.  Names reach EmitAll either as string literals
/// or as callables that compose them (stream prefix, window label); only
/// the schema sink calls NameOf, so extraction does no string work.
template <typename Name>
std::string NameOf(const Name& name) {
  if constexpr (std::is_invocable_v<const Name&>) {
    return name();
  } else {
    return std::string(name);
  }
}

/// Emits every feature as (name, category, value) in a fixed order.  Both
/// schema construction and extraction flow through this single routine, so
/// they can never drift apart.  See NameOf for how names are passed.
template <typename Emit>
void EmitAll(const datagen::PageProfile& page, const datagen::PostProfile& post,
             const TrackerSnapshot& snap, const TrackerConfig& cfg, Emit&& emit) {
  using FC = FeatureCategory;

  // --- Content features ---
  for (int m = 0; m < datagen::kNumMediaTypes; ++m) {
    emit([m] {
           return std::string("content/media_") +
                  datagen::MediaTypeName(static_cast<datagen::MediaType>(m));
         },
         FC::kContent, static_cast<int>(post.media) == m ? 1.0f : 0.0f);
  }
  emit("content/language", FC::kContent, static_cast<float>(post.language));
  emit("content/num_mentions", FC::kContent, static_cast<float>(post.num_mentions));
  emit("content/num_hashtags", FC::kContent, static_cast<float>(post.num_hashtags));
  emit("content/log1p_text_length", FC::kContent, Log1p(post.text_length));
  emit("content/has_question", FC::kContent, static_cast<float>(post.has_question));
  emit("content/in_group", FC::kContent, static_cast<float>(post.in_group));

  // --- Page features ---
  emit("page/log1p_followers", FC::kPage, Log1p(page.followers));
  emit("page/log1p_fans", FC::kPage, Log1p(page.fans));
  emit("page/fans_to_followers", FC::kPage,
       static_cast<float>(page.followers > 0 ? page.fans / page.followers : 0.0));
  emit("page/log1p_posts_last_month", FC::kPage, Log1p(page.posts_last_month));
  emit("page/age_days", FC::kPage, static_cast<float>(page.page_age_days));
  emit("page/verified", FC::kPage, static_cast<float>(page.verified));
  for (int c = 0; c < datagen::kNumPageCategories; ++c) {
    emit([c] {
           return std::string("page/category_") +
                  datagen::PageCategoryName(static_cast<datagen::PageCategory>(c));
         },
         FC::kPage, static_cast<int>(page.category) == c ? 1.0f : 0.0f);
  }

  // --- Cumulative engagement on the page's other posts ---
  emit("page_hist/log1p_mean_views", FC::kEngagementPageViews,
       Log1p(page.hist_mean_views));
  emit("page_hist/log_halflife_h", FC::kEngagementPageViews,
       static_cast<float>(std::log(std::max(page.hist_mean_halflife / kHour, 1e-3))));
  emit("page_hist/share_rate", FC::kEngagementPageViews,
       static_cast<float>(page.hist_share_rate));
  emit("page_hist/comment_rate", FC::kEngagementPageViews,
       static_cast<float>(page.hist_comment_rate));
  emit("page_hist/log1p_monthly_views", FC::kEngagementPageViews,
       Log1p(page.hist_mean_views * page.posts_last_month));

  // --- Per-stream engagement features ---
  for (int t = 0; t < stream::kNumEngagementTypes; ++t) {
    const auto type = static_cast<EngagementType>(t);
    const StreamSnapshot& s = snap.streams[t];
    const FC cat = CategoryOf(type);
    // "<type>s/<stem>" and "<type>s/<stem><window label>".
    const auto named = [type](const char* stem) {
      return [type, stem] {
        return std::string(stream::EngagementTypeName(type)) + "s/" + stem;
      };
    };
    const auto windowed = [type](const char* stem, double seconds) {
      return [type, stem, seconds] {
        return std::string(stream::EngagementTypeName(type)) + "s/" + stem +
               FormatDuration(seconds);
      };
    };

    emit(named("log1p_total"), cat, Log1p(static_cast<double>(s.total)));
    for (size_t w = 0; w < cfg.window_lengths.size(); ++w) {
      emit(windowed("log1p_last_", cfg.window_lengths[w]), cat,
           Log1p(static_cast<double>(s.window_counts[w])));
      emit(windowed("rate_per_h_last_", cfg.window_lengths[w]), cat,
           static_cast<float>(s.window_rates[w] * kHour));
    }
    for (size_t l = 0; l < cfg.landmark_ages.size(); ++l) {
      emit(windowed("log1p_first_", cfg.landmark_ages[l]), cat,
           Log1p(static_cast<double>(s.landmark_counts[l])));
    }
    emit(named("log1p_ewma_per_h"), cat, Log1p(s.ewma_rate * kHour));
    emit(named("mean_event_age_h"), cat,
         static_cast<float>(s.mean_event_age / kHour));
    emit(named("first_event_age_h"), cat,
         static_cast<float>(s.first_event_age / kHour));
    emit(named("last_event_age_h"), cat,
         static_cast<float>(s.last_event_age / kHour));
    emit(named("recency_h"), cat,
         static_cast<float>(s.last_event_age >= 0.0
                                ? (snap.age - s.last_event_age) / kHour
                                : -1.0));
  }

  // --- Combination (ratio) features ---
  const double views = static_cast<double>(snap.views().total);
  auto ratio = [&](double num) {
    return static_cast<float>(views > 0 ? num / views : 0.0);
  };
  emit("combo/shares_per_view", FC::kEngagementCombos,
       ratio(static_cast<double>(snap.shares().total)));
  emit("combo/comments_per_view", FC::kEngagementCombos,
       ratio(static_cast<double>(snap.comments().total)));
  emit("combo/reactions_per_view", FC::kEngagementCombos,
       ratio(static_cast<double>(snap.reactions().total)));
  emit("combo/views_recent_frac", FC::kEngagementCombos,
       ratio(static_cast<double>(
           snap.views().window_counts.empty() ? 0 : snap.views().window_counts.back())));
  {
    const auto& rates = snap.views().window_rates;
    const double short_rate = rates.empty() ? 0.0 : rates.front();
    const double long_rate = rates.empty() ? 0.0 : rates.back();
    emit("combo/velocity_short_to_long", FC::kEngagementCombos,
         static_cast<float>(long_rate > 0 ? short_rate / long_rate : 0.0));
  }

  // --- Other features ---
  emit("other/age_h", FC::kOther, static_cast<float>(snap.age / kHour));
  emit("other/log1p_age_h", FC::kOther, Log1p(snap.age / kHour));
  emit("other/creation_tod", FC::kOther, static_cast<float>(post.creation_tod));
  emit("other/day_of_week", FC::kOther, static_cast<float>(post.day_of_week));
  emit("other/log1p_group_members", FC::kOther, Log1p(post.group_members));
}

/// Dummy inputs used to walk the schema at construction time.
TrackerSnapshot DummySnapshot(const TrackerConfig& cfg) {
  TrackerSnapshot snap;
  for (auto& s : snap.streams) {
    s.window_counts.assign(cfg.window_lengths.size(), 0);
    s.window_rates.assign(cfg.window_lengths.size(), 0.0);
    s.landmark_counts.assign(cfg.landmark_ages.size(), 0);
  }
  return snap;
}

}  // namespace

FeatureExtractor::FeatureExtractor(const stream::TrackerConfig& tracker_config)
    : tracker_config_(tracker_config) {
  const datagen::PageProfile page{};
  const datagen::PostProfile post{};
  const TrackerSnapshot snap = DummySnapshot(tracker_config_);
  EmitAll(page, post, snap, tracker_config_,
          [this](const auto& name, FeatureCategory cat, float /*value*/) {
            schema_.Add(NameOf(name), cat);
          });
}

std::vector<float> FeatureExtractor::Extract(const datagen::PageProfile& page,
                                             const datagen::PostProfile& post,
                                             const stream::TrackerSnapshot& snapshot)
    const {
  std::vector<float> out(schema_.size());
  ExtractInto(page, post, snapshot, out.data());
  return out;
}

void FeatureExtractor::ExtractInto(const datagen::PageProfile& page,
                                   const datagen::PostProfile& post,
                                   const stream::TrackerSnapshot& snapshot,
                                   float* out) const {
  ExtractIntoStrided(page, post, snapshot, out, 1);
}

void FeatureExtractor::ExtractIntoStrided(const datagen::PageProfile& page,
                                          const datagen::PostProfile& post,
                                          const stream::TrackerSnapshot& snapshot,
                                          float* out, size_t stride) const {
  // Extraction runs in tight per-row loops (one row costs well under a
  // microsecond), so the trace hook is a sampled latency probe plus a
  // wait-free row counter.
  static obs::Histogram* const extract_latency =
      obs::MetricsRegistry::Global().GetHistogram(
          "horizon_features_extract_latency_seconds");
  static obs::Counter* const rows_extracted =
      obs::MetricsRegistry::Global().GetCounter(
          "horizon_features_rows_extracted_total");
  const obs::ScopedTimer timer(obs::SampleEvery(64, extract_latency));
  rows_extracted->Increment();
  size_t i = 0;
  EmitAll(page, post, snapshot, tracker_config_,
          [&](const auto& /*name*/, FeatureCategory /*cat*/, float value) {
            HORIZON_DCHECK(std::isfinite(value));
            out[i++ * stride] = value;
          });
  HORIZON_CHECK_EQ(i, schema_.size());
}

stream::CascadeTracker FeatureExtractor::ReplayTracker(
    const datagen::Cascade& cascade, double observe_age) const {
  stream::CascadeTracker tracker(0.0, tracker_config_);
  for (const auto& e : cascade.views) {
    if (e.time >= observe_age) break;
    tracker.Observe(EngagementType::kView, e.time);
  }
  for (double t : cascade.share_times) {
    if (t >= observe_age) break;
    tracker.Observe(EngagementType::kShare, t);
  }
  for (double t : cascade.comment_times) {
    if (t >= observe_age) break;
    tracker.Observe(EngagementType::kComment, t);
  }
  for (double t : cascade.reaction_times) {
    if (t >= observe_age) break;
    tracker.Observe(EngagementType::kReaction, t);
  }
  return tracker;
}

stream::TrackerSnapshot FeatureExtractor::ReplaySnapshot(
    const datagen::Cascade& cascade, double observe_age) const {
  return ReplayTracker(cascade, observe_age).Snapshot(observe_age);
}

}  // namespace horizon::features
