#include "serving/prediction_service.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>

#include "common/check.h"
#include "common/file_io.h"
#include "common/thread_pool.h"
#include "pointprocess/transform.h"

namespace horizon::serving {

namespace {

/// SplitMix64 finalizer: item ids are often sequential, so mix before
/// taking the shard residue to spread neighbors across shards.
uint64_t MixId(int64_t id) {
  uint64_t z = static_cast<uint64_t>(id) + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Ingest latency is sampled 1-in-kIngestSampleRate: at ~1 us/op, two
/// clock reads per op would cost more than the histogram is worth.
constexpr uint32_t kIngestSampleRate = 64;

using SteadyClock = std::chrono::steady_clock;

uint64_t ElapsedNs(SteadyClock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(SteadyClock::now() -
                                                           start)
          .count());
}

/// Events of every type an item has taken: a retire sweep that judged an
/// item at one count must not erase it at another.
uint64_t EventCount(const stream::CascadeTracker& tracker) {
  uint64_t n = 0;
  for (int t = 0; t < stream::kNumEngagementTypes; ++t) {
    n += tracker.TotalCount(static_cast<stream::EngagementType>(t));
  }
  return n;
}

double PredictedIncrement(const ItemPrediction& p) {
  return p.prediction.predicted_views - p.prediction.observed_views;
}

/// Apply-lag is sampled at the same 1-in-64 rate as ingest latency.
constexpr uint64_t kLagSampleRate = 64;

/// Events drained per group commit (one lock acquisition).  Big enough
/// that a saturated queue amortizes the view republish over thousands of
/// events, small enough to bound commit latency.
constexpr size_t kMaxApplyBatch = 16384;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          SteadyClock::now().time_since_epoch())
          .count());
}

bool ResolveAsyncIngest(IngestMode mode) {
  switch (mode) {
    case IngestMode::kSync:
      return false;
    case IngestMode::kAsync:
      return true;
    case IngestMode::kAuto:
      break;
  }
  const char* env = std::getenv("HORIZON_ASYNC_INGEST");
  if (env == nullptr) return false;
  const std::string v(env);
  return v == "on" || v == "1" || v == "true";
}

}  // namespace

Status ServiceConfig::Validate(const features::FeatureExtractor* extractor) const {
  if (num_shards < 1) {
    return Status::InvalidArgument("ServiceConfig: num_shards must be >= 1");
  }
  if (!(idle_retirement_age > 0.0)) {
    return Status::InvalidArgument(
        "ServiceConfig: idle_retirement_age must be positive");
  }
  if (!(death_probability_threshold > 0.0) || death_probability_threshold > 1.0) {
    return Status::InvalidArgument(
        "ServiceConfig: death_probability_threshold must be in (0, 1]");
  }
  if (tracker.window_lengths.empty() || tracker.landmark_ages.empty()) {
    return Status::InvalidArgument(
        "ServiceConfig: tracker needs at least one window and landmark");
  }
  if (ingest_queue_capacity < 2) {
    return Status::InvalidArgument(
        "ServiceConfig: ingest_queue_capacity must be >= 2");
  }
  if (extractor != nullptr) {
    const stream::TrackerConfig& other = extractor->tracker_config();
    if (other.window_lengths != tracker.window_lengths ||
        other.landmark_ages != tracker.landmark_ages ||
        other.ewma_tau != tracker.ewma_tau || other.epsilon != tracker.epsilon) {
      return Status::ConfigMismatch(
          "ServiceConfig: extractor was built for a different tracker "
          "window/landmark layout");
    }
  }
  return Status::Ok();
}

PredictionService::PredictionService(const core::HawkesPredictor* model,
                                     const features::FeatureExtractor* extractor,
                                     const ServiceConfig& config)
    : model_(model), extractor_(extractor), config_(config) {
  HORIZON_CHECK(model != nullptr);
  HORIZON_CHECK(extractor != nullptr);
  HORIZON_CHECK(model->trained());
  const Status valid = config_.Validate(extractor);
  if (!valid.ok()) {
    std::fprintf(stderr, "rejected ServiceConfig: %s\n", valid.ToString().c_str());
  }
  HORIZON_CHECK(valid.ok());
  async_ = ResolveAsyncIngest(config_.ingest_mode);
  shards_.reserve(static_cast<size_t>(config_.num_shards));
  for (int i = 0; i < config_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }

  registry_ = config_.metrics != nullptr ? config_.metrics
                                         : &obs::MetricsRegistry::Global();
  m_items_registered_ = registry_->GetCounter("horizon_serving_items_registered_total");
  m_events_ingested_ = registry_->GetCounter("horizon_serving_events_ingested_total");
  m_queries_ = registry_->GetCounter("horizon_serving_queries_total");
  m_scan_results_ = registry_->GetCounter("horizon_serving_scan_results_total");
  m_items_retired_ = registry_->GetCounter("horizon_serving_items_retired_total");
  m_errors_[0] = nullptr;  // kOk is not an error
  for (int c = 1; c <= 9; ++c) {
    m_errors_[c] = registry_->GetCounter(
        "horizon_serving_errors_" +
        std::string(StatusCodeName(static_cast<StatusCode>(c))) + "_total");
  }
  m_live_items_ = registry_->GetGauge("horizon_serving_live_items");
  m_ingest_enqueued_ =
      registry_->GetCounter("horizon_serving_ingest_enqueued_total");
  m_ingest_dropped_ =
      registry_->GetCounter("horizon_serving_ingest_dropped_total");
  m_ingest_backpressure_ =
      registry_->GetCounter("horizon_serving_ingest_backpressure_total");
  m_ingest_commits_ =
      registry_->GetCounter("horizon_serving_ingest_commits_total");
  m_apply_wakeups_ =
      registry_->GetCounter("horizon_serving_apply_wakeups_total");
  m_queue_depth_ = registry_->GetGauge("horizon_serving_ingest_queue_depth");
  m_apply_batch_events_ = registry_->GetHistogram(
      "horizon_serving_apply_batch_events", obs::CountBuckets());
  m_apply_lag_ =
      registry_->GetHistogram("horizon_serving_apply_lag_seconds");
  m_flush_latency_ =
      registry_->GetHistogram("horizon_serving_flush_latency_seconds");
  m_ingest_latency_ = registry_->GetHistogram("horizon_serving_ingest_latency_seconds");
  m_ingest_batch_latency_ =
      registry_->GetHistogram("horizon_serving_ingest_batch_latency_seconds");
  m_query_latency_ = registry_->GetHistogram("horizon_serving_query_latency_seconds");
  m_batch_query_latency_ =
      registry_->GetHistogram("horizon_serving_batch_query_latency_seconds");
  m_topk_latency_ = registry_->GetHistogram("horizon_serving_topk_latency_seconds");
  m_retire_latency_ = registry_->GetHistogram("horizon_serving_retire_latency_seconds");
  m_checkpoint_latency_ =
      registry_->GetHistogram("horizon_serving_checkpoint_latency_seconds");
  m_restore_latency_ =
      registry_->GetHistogram("horizon_serving_restore_latency_seconds");

  if (async_) {
    for (auto& shard : shards_) {
      shard->queue = std::make_unique<IngestQueue>(
          config_.ingest_queue_capacity, config_.ingest_backpressure);
      {
        MutexLock lock(shard->mu);
        PublishView(*shard, epochs_);  // initial (empty) view
      }
      shard->applier = std::thread([this, s = shard.get()] { ApplierLoop(*s); });
    }
  }
}

PredictionService::~PredictionService() {
  if (!async_) return;
  // Stop() lets each applier drain whatever is still queued and exit;
  // accepted events are applied, not lost (the documented contract: only
  // a real crash drops the volatile queue contents, and then wholesale).
  for (auto& shard : shards_) shard->queue->Stop();
  for (auto& shard : shards_) {
    if (shard->applier.joinable()) shard->applier.join();
  }
  for (auto& shard : shards_) {
    // horizon-lint: allow(naked-new) -- reclaims the last published view; appliers are joined, so no reader can hold it
    // order: seq_cst keeps the final unpublish in the same total order
    // as PublishView's exchange; by now appliers are joined so this is
    // belt-and-braces, not load-bearing.
    delete shard->view.exchange(nullptr, std::memory_order_seq_cst);
  }
  // epochs_ frees any still-retired views in its destructor.
}

Status PredictionService::Flush() {
  const obs::ScopedTimer timer(m_flush_latency_);
  if (async_) {
    DrainAllQueues();
    m_queue_depth_->Set(static_cast<double>(TotalQueueDepth()));
  }
  return Status::Ok();
}

void PredictionService::DrainAllQueues() const {
  if (!async_) return;
  std::vector<uint64_t> targets(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    targets[i] = shards_[i]->queue->pushed();
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->queue->WaitConsumed(targets[i]);
  }
}

size_t PredictionService::TotalQueueDepth() const {
  size_t depth = 0;
  for (const auto& shard : shards_) {
    const uint64_t pushed = shard->queue->pushed();
    const uint64_t consumed = shard->queue->consumed();
    if (pushed > consumed) depth += static_cast<size_t>(pushed - consumed);
  }
  return depth;
}

uint64_t PredictionService::MaybeSampleEnqueueNs() const {
  // order: relaxed; sampling ticket -- only 1-in-N selection rides on
  // it, no payload.
  if (lag_sample_tick_.fetch_add(1, std::memory_order_relaxed) %
          kLagSampleRate !=
      0) {
    return 0;
  }
  const uint64_t ns = NowNs();
  return ns == 0 ? 1 : ns;  // 0 is the "unsampled" sentinel
}

void PredictionService::ApplierLoop(Shard& shard) {
  std::vector<QueuedEvent> batch;
  batch.reserve(kMaxApplyBatch);
  uint64_t backpressure_synced = 0;
  while (shard.queue->WaitForEvents()) {
    bool counted_wakeup = false;
    for (;;) {
      batch.clear();
      const size_t n = shard.queue->PopBatch(&batch, kMaxApplyBatch);
      if (n == 0) break;
      if (!counted_wakeup) {
        m_apply_wakeups_->Increment();
        counted_wakeup = true;
      }
      size_t dropped = 0;
      {
        MutexLock lock(shard.mu);
        ApplyEvents(shard, batch.data(), n, &dropped);
        PublishView(shard, epochs_);
      }
      const size_t applied = n - dropped;
      // Instrument updates precede MarkConsumed so a Flush barrier that
      // releases on this commit already sees them (the DST conservation
      // checks scrape right after Flush).
      // order: relaxed; statistics counter -- cross-thread visibility
      // for Flush readers is provided by MarkConsumed's release below,
      // which this update precedes program-order-wise.
      events_ingested_.fetch_add(applied, std::memory_order_relaxed);
      m_events_ingested_->Add(applied);
      if (dropped > 0) m_ingest_dropped_->Add(dropped);
      m_ingest_commits_->Increment();
      m_apply_batch_events_->Observe(static_cast<double>(n));
      uint64_t lag_now = 0;
      for (const QueuedEvent& e : batch) {
        if (e.enqueue_ns == 0) continue;
        if (lag_now == 0) lag_now = NowNs();
        if (lag_now > e.enqueue_ns) {
          m_apply_lag_->Observe(static_cast<double>(lag_now - e.enqueue_ns) *
                                1e-9);
        }
      }
      const uint64_t stalls = shard.queue->backpressure_events();
      if (stalls > backpressure_synced) {
        m_ingest_backpressure_->Add(stalls - backpressure_synced);
        backpressure_synced = stalls;
      }
      // This commit's n is not yet marked consumed, so subtract it out.
      const size_t raw_depth = TotalQueueDepth();
      m_queue_depth_->Set(static_cast<double>(raw_depth >= n ? raw_depth - n : 0));
      shard.queue->MarkConsumed(n);
    }
  }
}

Status PredictionService::CountError(Status status) const {
  const int code = static_cast<int>(status.code());
  if (code >= 1 && code <= 9) m_errors_[code]->Increment();
  return status;
}

size_t PredictionService::ShardOf(int64_t item_id) const {
  return static_cast<size_t>(MixId(item_id) % shards_.size());
}

Status PredictionService::RegisterItem(int64_t item_id, double creation_time,
                                       const datagen::PageProfile& page,
                                       const datagen::PostProfile& post) {
  Shard& shard = *shards_[ShardOf(item_id)];
  bool inserted = false;
  {
    MutexLock lock(shard.mu);
    inserted = ApplyRegister(
        shard, item_id,
        Item{stream::CascadeTracker(creation_time, config_.tracker), page,
             post});
    // Republish before returning so an async Ingest enqueued after this
    // call observes the item at its view-side existence check.
    if (inserted && async_) PublishView(shard, epochs_);
  }
  if (!inserted) {
    return CountError(Status::AlreadyExists("item id already registered"));
  }
  // order: relaxed; statistics counter paired with the relaxed load in
  // stats() -- no payload.
  items_registered_.fetch_add(1, std::memory_order_relaxed);
  m_items_registered_->Increment();
  // order: relaxed; gauge source paired with LiveItems()'s relaxed
  // load; fetch_add only so concurrent registrations count exactly.
  m_live_items_->Set(
      static_cast<double>(live_items_.fetch_add(1, std::memory_order_relaxed) + 1));
  return Status::Ok();
}

bool PredictionService::HasItem(int64_t item_id) const {
  const Shard& shard = *shards_[ShardOf(item_id)];
  if (async_) {
    const EpochGuard guard(epochs_);
    // order: seq_cst view load under the EpochGuard; participates in
    // the publisher exchange / epoch total order (see PublishView in
    // shard_apply.cc and the epoch.h reclamation proof).
    const ShardView* view = shard.view.load(std::memory_order_seq_cst);
    return view->items.count(item_id) > 0;
  }
  MutexLock lock(shard.mu);
  return shard.items.count(item_id) > 0;
}

Status PredictionService::Ingest(int64_t item_id, stream::EngagementType type,
                                 double t) {
  const obs::ScopedTimer timer(
      obs::SampleEvery(kIngestSampleRate, m_ingest_latency_));
  Shard& shard = *shards_[ShardOf(item_id)];
  if (async_) {
    // Existence is decided at enqueue time against the published view,
    // which the barrier ops keep current -- so the caller sees the same
    // kNotFound a synchronous service would return.  Applying happens in
    // the shard's applier; counters move when it does.
    {
      const EpochGuard guard(epochs_);
      // order: seq_cst view load under the EpochGuard; participates in
      // the publisher exchange / epoch total order (see PublishView in
      // shard_apply.cc and the epoch.h reclamation proof).
      const ShardView* view = shard.view.load(std::memory_order_seq_cst);
      if (view->items.find(item_id) == view->items.end()) {
        return CountError(
            Status::NotFound("unknown item (dropped straggler?)"));
      }
    }
    const QueuedEvent event{item_id, type, t, MaybeSampleEnqueueNs()};
    const Status pushed = shard.queue->Push(event);
    if (!pushed.ok()) return CountError(pushed);
    m_ingest_enqueued_->Increment();
    return Status::Ok();
  }
  {
    MutexLock lock(shard.mu);
    size_t dropped = 0;
    const QueuedEvent event{item_id, type, t, 0};
    ApplyEvents(shard, &event, 1, &dropped);
    if (dropped > 0) {
      return CountError(Status::NotFound("unknown item (dropped straggler?)"));
    }
  }
  // order: relaxed; statistics counter paired with the relaxed load in
  // stats().
  events_ingested_.fetch_add(1, std::memory_order_relaxed);
  m_events_ingested_->Increment();
  return Status::Ok();
}

size_t PredictionService::IngestBatch(const std::vector<IngestEvent>& events) {
  const obs::ScopedTimer timer(m_ingest_batch_latency_);
  if (async_) {
    // Enqueue in caller order (per-item order rides per-producer FIFO);
    // the count returned is the accepted count, decided -- like Ingest --
    // against the published views at enqueue time.  The appliers coalesce
    // the whole batch into a handful of group commits.
    size_t accepted = 0;
    const EpochGuard guard(epochs_);
    for (const IngestEvent& e : events) {
      Shard& shard = *shards_[ShardOf(e.item_id)];
      // order: seq_cst view load under the EpochGuard; participates in
      // the publisher exchange / epoch total order (see PublishView in
      // shard_apply.cc and the epoch.h reclamation proof).
      const ShardView* view = shard.view.load(std::memory_order_seq_cst);
      if (view->items.find(e.item_id) == view->items.end()) continue;
      const QueuedEvent event{e.item_id, e.type, e.time,
                              MaybeSampleEnqueueNs()};
      if (!shard.queue->Push(event).ok()) continue;  // kReject under load
      ++accepted;
    }
    m_ingest_enqueued_->Add(accepted);
    return accepted;
  }
  // Group event indices by shard (stable, so per-item order is kept),
  // then apply each shard's group under ONE lock acquisition -- the
  // group-commit contract IngestBatch shares with the async appliers,
  // counted by horizon_serving_ingest_commits_total either way.
  std::vector<std::vector<uint32_t>> by_shard(shards_.size());
  for (uint32_t i = 0; i < events.size(); ++i) {
    by_shard[ShardOf(events[i].item_id)].push_back(i);
  }
  std::atomic<size_t> ingested{0};
  std::atomic<size_t> commits{0};
  ParallelFor(shards_.size(), 1, [&](size_t begin, size_t end) {
    std::vector<QueuedEvent> group;
    for (size_t sh = begin; sh < end; ++sh) {
      if (by_shard[sh].empty()) continue;
      Shard& shard = *shards_[sh];
      group.clear();
      group.reserve(by_shard[sh].size());
      for (const uint32_t i : by_shard[sh]) {
        const IngestEvent& e = events[i];
        group.push_back(QueuedEvent{e.item_id, e.type, e.time, 0});
      }
      size_t dropped = 0;
      size_t applied = 0;
      {
        MutexLock lock(shard.mu);
        applied = ApplyEvents(shard, group.data(), group.size(), &dropped);
      }
      // order: relaxed (both); per-task tallies folded after the
      // ParallelFor barrier, which supplies the happens-before edge.
      ingested.fetch_add(applied, std::memory_order_relaxed);
      // order: relaxed; see above.
      commits.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // order: relaxed; reads after the ParallelFor join (drain_mu handoff
  // orders them); the atomics only arbitrate concurrent adds above.
  const size_t total = ingested.load(std::memory_order_relaxed);
  // order: relaxed; statistics counter paired with stats().
  events_ingested_.fetch_add(total, std::memory_order_relaxed);
  m_events_ingested_->Add(total);
  // order: relaxed; same post-join read as `total` above.
  m_ingest_commits_->Add(commits.load(std::memory_order_relaxed));
  return total;
}

// ---------------------------------------------------------------------------
// Query surface

StatusOr<QueryResponse> PredictionService::QueryByIds(
    const QueryRequest& request) const {
  QueryResponse response;
  // Each resolved item is extracted straight into its row of the SoA batch
  // while its shard lock (sync) or the epoch guard (async) is held, through
  // one reused snapshot, so no per-item copy outlives the lookup.  Rows are
  // sized for every id and trimmed to the resolved ones afterwards.
  gbdt::ExampleBatch x(request.ids.size(), extractor_->schema().size());
  std::vector<int64_t> ids;
  std::vector<double> observed;
  ids.reserve(request.ids.size());
  observed.reserve(request.ids.size());
  stream::TrackerSnapshot snapshot;
  const auto resolve = [&](int64_t id, const Item* item) {
    if (item == nullptr) {
      response.errors.push_back(
          {id, CountError(Status::NotFound("unknown item"))});
      return;
    }
    if (request.s < item->tracker.creation_time()) {
      response.errors.push_back(
          {id, CountError(Status::NotYetLive("item goes live after s"))});
      return;
    }
    item->tracker.SnapshotInto(request.s, &snapshot);
    extractor_->ExtractIntoStrided(item->page, item->post, snapshot,
                                   x.MutableRowBase(ids.size()),
                                   x.feature_stride());
    ids.push_back(id);
    observed.push_back(static_cast<double>(snapshot.views().total));
  };
  if (async_) {
    // Lock-free: every lookup reads the shard's published (frozen) view
    // under one epoch guard, so queries never contend with group commits.
    const EpochGuard guard(epochs_);
    for (const int64_t id : request.ids) {
      // order: seq_cst view load under the EpochGuard; participates in
      // the publisher exchange / epoch total order (see PublishView in
      // shard_apply.cc and the epoch.h reclamation proof).
      const ShardView* view =
          shards_[ShardOf(id)]->view.load(std::memory_order_seq_cst);
      const auto it = view->items.find(id);
      resolve(id, it == view->items.end() ? nullptr : it->second.get());
    }
  } else {
    for (const int64_t id : request.ids) {
      const Shard& shard = *shards_[ShardOf(id)];
      MutexLock lock(shard.mu);
      const auto it = shard.items.find(id);
      resolve(id, it == shard.items.end() ? nullptr : it->second.get());
    }
  }
  if (ids.empty()) return response;
  x.TruncateRows(ids.size());

  // Inference runs outside the shard locks, batched over every resolved
  // item: one vectorized-forest pass per model over the column-major
  // batch, with no transposition pass.
  const std::vector<double> deltas(ids.size(), request.delta);
  std::vector<double> alphas;
  const std::vector<double> counts =
      model_->PredictCountBatch(x, observed, deltas, &alphas);

  response.results.reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    response.results.push_back(
        {ids[i], PredictionResult{observed[i], counts[i], alphas[i]}});
  }
  if (request.top_k > 0 && response.results.size() > request.top_k) {
    std::partial_sort(response.results.begin(),
                      response.results.begin() +
                          static_cast<ptrdiff_t>(request.top_k),
                      response.results.end(),
                      [](const ItemPrediction& a, const ItemPrediction& b) {
                        return PredictedIncrement(a) > PredictedIncrement(b);
                      });
    response.results.resize(request.top_k);
  } else if (request.top_k > 0) {
    std::sort(response.results.begin(), response.results.end(),
              [](const ItemPrediction& a, const ItemPrediction& b) {
                return PredictedIncrement(a) > PredictedIncrement(b);
              });
  }
  // order: relaxed; statistics counter paired with the relaxed load in
  // stats().
  queries_answered_.fetch_add(response.results.size(), std::memory_order_relaxed);
  m_queries_->Add(response.results.size());
  return response;
}

std::vector<PredictionService::ScanCandidate> PredictionService::ShardScanTopK(
    const Shard& shard, double s, double delta, size_t k) const {
  // Extract every live item straight into its row of one SoA batch under
  // the shard lock / epoch guard (see QueryByIds), then batch the whole
  // shard through the vectorized forests outside it.
  const size_t width = extractor_->schema().size();
  gbdt::ExampleBatch x;
  std::vector<int64_t> ids;
  std::vector<double> observed;
  const auto collect = [&](const ItemMap& items) {
    x = gbdt::ExampleBatch(items.size(), width);
    ids.reserve(items.size());
    observed.reserve(items.size());
    stream::TrackerSnapshot snapshot;
    for (const auto& [id, ptr] : items) {
      const Item& item = *ptr;
      if (s < item.tracker.creation_time()) continue;  // not yet live
      item.tracker.SnapshotInto(s, &snapshot);
      extractor_->ExtractIntoStrided(item.page, item.post, snapshot,
                                     x.MutableRowBase(ids.size()),
                                     x.feature_stride());
      ids.push_back(id);
      observed.push_back(static_cast<double>(snapshot.views().total));
    }
  };
  if (async_) {
    // Scan the frozen view under an epoch guard: the whole-shard walk
    // never blocks a group commit (and vice versa).
    const EpochGuard guard(epochs_);
    // order: seq_cst view load under the EpochGuard; participates in
    // the publisher exchange / epoch total order (see PublishView in
    // shard_apply.cc and the epoch.h reclamation proof).
    collect(shard.view.load(std::memory_order_seq_cst)->items);
  } else {
    MutexLock lock(shard.mu);
    collect(shard.items);
  }
  if (ids.empty()) return {};
  x.TruncateRows(ids.size());

  const std::vector<double> increments = model_->PredictIncrementBatch(x, delta);

  // Keep only the shard's k best; the winners carry their feature rows so
  // the merge step can finish the full prediction without re-extracting.
  std::vector<size_t> order(ids.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  const size_t take = std::min(k, order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<ptrdiff_t>(take),
                    order.end(), [&](size_t a, size_t b) {
                      return increments[a] > increments[b];
                    });
  std::vector<ScanCandidate> out;
  out.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    const size_t idx = order[i];
    std::vector<float> row(width);
    x.CopyRowTo(idx, row.data());
    out.push_back({ids[idx], observed[idx], increments[idx], std::move(row)});
  }
  return out;
}

StatusOr<QueryResponse> PredictionService::QueryScan(
    const QueryRequest& request) const {
  const obs::ScopedTimer timer(m_topk_latency_);
  const size_t k = request.top_k;
  std::vector<std::vector<ScanCandidate>> per_shard(shards_.size());
  ParallelFor(shards_.size(), 1, [&](size_t begin, size_t end) {
    for (size_t sh = begin; sh < end; ++sh) {
      per_shard[sh] = ShardScanTopK(*shards_[sh], request.s, request.delta, k);
    }
  });
  std::vector<ScanCandidate> merged;
  for (auto& partial : per_shard) {
    std::move(partial.begin(), partial.end(), std::back_inserter(merged));
  }
  const size_t take = std::min(k, merged.size());
  std::partial_sort(merged.begin(), merged.begin() + static_cast<ptrdiff_t>(take),
                    merged.end(), [](const ScanCandidate& a, const ScanCandidate& b) {
                      return a.increment > b.increment;
                    });
  merged.resize(take);

  QueryResponse response;
  if (merged.empty()) return response;
  // Only the global winners pay for the alpha forest.  Their feature rows
  // were already materialized row-major by the shard scans, so a row-major
  // matrix (strided kernel path) is the no-copy-beyond-this layout here.
  gbdt::DataMatrix x(merged.size(), extractor_->schema().size());
  for (size_t i = 0; i < merged.size(); ++i) {
    std::copy(merged[i].row.begin(), merged[i].row.end(), x.MutableRow(i));
  }
  const std::vector<double> alphas = model_->PredictAlphaBatch(x);
  response.results.reserve(merged.size());
  for (size_t i = 0; i < merged.size(); ++i) {
    response.results.push_back(
        {merged[i].id,
         PredictionResult{merged[i].observed,
                          merged[i].observed + merged[i].increment, alphas[i]}});
  }
  // Scan answers are deliberately NOT counted into queries_answered (the
  // pre-BatchQuery TopK never was); they have their own counter.
  m_scan_results_->Add(response.results.size());
  return response;
}

StatusOr<QueryResponse> PredictionService::BatchQuery(
    const QueryRequest& request) const {
  const auto start = SteadyClock::now();
  if (!std::isfinite(request.s) || !std::isfinite(request.delta) ||
      request.delta < 0.0) {
    return CountError(
        Status::InvalidArgument("QueryRequest: s and delta must be finite, "
                                "delta >= 0"));
  }
  if (request.ids.empty() && request.top_k == 0) {
    return CountError(Status::InvalidArgument(
        "QueryRequest: empty ids (scan mode) requires top_k > 0"));
  }
  StatusOr<QueryResponse> response =
      request.ids.empty() ? QueryScan(request) : QueryByIds(request);
  if (response.ok()) {
    const uint64_t ns = ElapsedNs(start);
    response->latency_ns = ns;
    m_batch_query_latency_->Observe(static_cast<double>(ns) * 1e-9);
  }
  return response;
}

StatusOr<PredictionResult> PredictionService::Query(int64_t item_id, double s,
                                                    double delta) const {
  const obs::ScopedTimer timer(m_query_latency_);
  QueryRequest request;
  request.ids.push_back(item_id);
  request.s = s;
  request.delta = delta;
  StatusOr<QueryResponse> response = BatchQuery(request);
  if (!response.ok()) return response.status();
  if (!response->errors.empty()) return response->errors.front().status;
  HORIZON_CHECK(!response->results.empty());
  return response->results.front().prediction;
}

std::vector<std::pair<int64_t, double>> PredictionService::TopK(double s,
                                                                double delta,
                                                                size_t k) const {
  if (k == 0) return {};
  QueryRequest request;
  request.s = s;
  request.delta = delta;
  request.top_k = k;
  const StatusOr<QueryResponse> response = BatchQuery(request);
  if (!response.ok()) return {};
  std::vector<std::pair<int64_t, double>> out;
  out.reserve(response->results.size());
  for (const ItemPrediction& p : response->results) {
    out.emplace_back(p.item_id, PredictedIncrement(p));
  }
  return out;
}

size_t PredictionService::RetireDeadItems(double now) {
  const obs::ScopedTimer timer(m_retire_latency_);
  // Barrier op: drain accepted-but-unapplied events first so the liveness
  // decision sees every event the caller has been acknowledged for --
  // exactly what the synchronous service would have seen.
  DrainAllQueues();
  const size_t width = extractor_->schema().size();
  std::atomic<size_t> retired_total{0};
  ParallelFor(shards_.size(), 1, [&](size_t begin, size_t end) {
    stream::TrackerSnapshot snapshot;
    for (size_t sh = begin; sh < end; ++sh) {
      Shard& shard = *shards_[sh];
      // Pass 1, under the lock: the idle rule retires outright.  Every
      // other live item with a positive view rate gets a feature row for
      // the alpha forest, remembered with its event count.
      gbdt::ExampleBatch x;
      std::vector<int64_t> ids;
      std::vector<uint64_t> events;
      std::vector<double> rates;
      size_t retired = 0;
      {
        MutexLock lock(shard.mu);
        x = gbdt::ExampleBatch(shard.items.size(), width);
        retired = ApplyRetireSweep(shard, [&](int64_t id, const Item& item) {
          if (now < item.tracker.creation_time()) {
            return false;  // not yet live; nothing to retire
          }
          item.tracker.SnapshotInto(now, &snapshot);
          const auto& views = snapshot.views();
          if (views.last_event_age >= 0.0) {
            const double idle = snapshot.age - views.last_event_age;
            if (idle >= config_.idle_retirement_age) return true;
          } else if (snapshot.age >= config_.idle_retirement_age) {
            return true;  // never received a single view
          }
          if (views.ewma_rate > 0.0) {
            extractor_->ExtractIntoStrided(item.page, item.post, snapshot,
                                           x.MutableRowBase(ids.size()),
                                           x.feature_stride());
            ids.push_back(id);
            events.push_back(EventCount(item.tracker));
            rates.push_back(views.ewma_rate);
          }
          return false;
        });
        if (async_ && retired > 0) PublishView(shard, epochs_);
      }
      // Pass 2, outside every lock: eager retirement.  With the EWMA rate
      // as the lambda(now) proxy and the model's alpha as the decay scale,
      // the probability that the cascade produces no further views
      // (Appendix A.14, u = 0 transform) exceeds the threshold.
      std::unordered_map<int64_t, uint64_t> doomed;
      if (!ids.empty()) {
        x.TruncateRows(ids.size());
        const std::vector<double> alphas = model_->PredictAlphaBatch(x);
        for (size_t i = 0; i < ids.size(); ++i) {
          const double p_dead = pp::ProbabilityNoNewEvents(
              rates[i], std::numeric_limits<double>::infinity(), alphas[i]);
          if (p_dead >= config_.death_probability_threshold) {
            doomed.emplace(ids[i], events[i]);
          }
        }
      }
      // Pass 3, under the lock again: retire the doomed items, except any
      // that took an event after it was judged.
      if (!doomed.empty()) {
        MutexLock lock(shard.mu);
        const size_t eager =
            ApplyRetireSweep(shard, [&](int64_t id, const Item& item) {
              const auto it = doomed.find(id);
              return it != doomed.end() &&
                     EventCount(item.tracker) == it->second;
            });
        if (async_ && eager > 0) PublishView(shard, epochs_);
        retired += eager;
      }
      // order: relaxed; per-task tally folded after the ParallelFor
      // barrier, which supplies the happens-before edge.
      retired_total.fetch_add(retired, std::memory_order_relaxed);
    }
  });
  // order: relaxed; read after the ParallelFor join (drain_mu handoff
  // orders it).
  const size_t retired = retired_total.load(std::memory_order_relaxed);
  // order: relaxed; statistics counter paired with stats().
  items_retired_.fetch_add(retired, std::memory_order_relaxed);
  m_items_retired_->Add(retired);
  // order: relaxed; gauge source paired with LiveItems()'s relaxed
  // load; fetch_sub only so concurrent sweeps count exactly.
  m_live_items_->Set(static_cast<double>(
      live_items_.fetch_sub(retired, std::memory_order_relaxed) - retired));
  return retired;
}

// ---------------------------------------------------------------------------
// Checkpoint / Restore

namespace {

std::string CheckpointDirName(uint64_t epoch) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ckpt-%09llu",
                static_cast<unsigned long long>(epoch));
  return buf;
}

std::string ShardFileName(size_t shard) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard-%04zu", shard);
  return buf;
}

std::optional<uint64_t> ParseCheckpointEpoch(const std::string& name) {
  if (name.rfind("ckpt-", 0) != 0 || name.size() <= 5) return std::nullopt;
  uint64_t epoch = 0;
  for (size_t i = 5; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    epoch = epoch * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  return epoch;
}

std::string Trim(const std::string& text) {
  size_t b = 0, e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  return text.substr(b, e - b);
}

void SerializePage(std::ostream& os, const datagen::PageProfile& p) {
  os << p.id << " " << p.followers << " " << p.fans << " " << p.posts_last_month
     << " " << p.page_age_days << " " << static_cast<int>(p.category) << " "
     << p.verified << " " << p.hist_mean_views << " " << p.hist_mean_halflife
     << " " << p.hist_share_rate << " " << p.hist_comment_rate << " " << p.quality
     << " " << p.audience_tau << " " << p.shareability << " " << p.alpha_page
     << "\n";
}

bool DeserializePage(std::istream& is, datagen::PageProfile* p) {
  int category = 0;
  if (!(is >> p->id >> p->followers >> p->fans >> p->posts_last_month >>
        p->page_age_days >> category >> p->verified >> p->hist_mean_views >>
        p->hist_mean_halflife >> p->hist_share_rate >> p->hist_comment_rate >>
        p->quality >> p->audience_tau >> p->shareability >> p->alpha_page)) {
    return false;
  }
  if (category < 0 || category >= datagen::kNumPageCategories) return false;
  p->category = static_cast<datagen::PageCategory>(category);
  return true;
}

void SerializePost(std::ostream& os, const datagen::PostProfile& p) {
  os << p.id << " " << p.page_id << " " << static_cast<int>(p.media) << " "
     << p.language << " " << p.num_mentions << " " << p.num_hashtags << " "
     << p.text_length << " " << p.creation_tod << " " << p.day_of_week << " "
     << p.in_group << " " << p.group_members << " " << p.has_question << " "
     << p.creation_time << " " << p.lambda0 << " " << p.beta << " " << p.rho1
     << " " << p.mark_sigma_log << "\n";
}

bool DeserializePost(std::istream& is, datagen::PostProfile* p) {
  int media = 0;
  if (!(is >> p->id >> p->page_id >> media >> p->language >> p->num_mentions >>
        p->num_hashtags >> p->text_length >> p->creation_tod >> p->day_of_week >>
        p->in_group >> p->group_members >> p->has_question >> p->creation_time >>
        p->lambda0 >> p->beta >> p->rho1 >> p->mark_sigma_log)) {
    return false;
  }
  if (media < 0 || media >= datagen::kNumMediaTypes) return false;
  p->media = static_cast<datagen::MediaType>(media);
  return true;
}

}  // namespace

Status PredictionService::Checkpoint(const std::string& dir) const {
  const obs::ScopedTimer latency(m_checkpoint_latency_);
  // Linearization barrier: every event accepted before this call is
  // applied before any state is copied.  The drain is memory-only and
  // precedes all checkpoint IO, so a crash mid-checkpoint loses the
  // volatile queues wholesale -- never a half-applied batch.
  DrainAllQueues();
  HORIZON_RETURN_IF_ERROR(io::EnsureDir(dir));
  uint64_t epoch = 1;
  if (const auto current = io::ReadFile(dir + "/CURRENT")) {
    if (const auto prev = ParseCheckpointEpoch(Trim(*current))) epoch = *prev + 1;
  }
  const std::string name = CheckpointDirName(epoch);
  const std::string ckpt = dir + "/" + name;
  HORIZON_RETURN_IF_ERROR(io::EnsureDir(ckpt));

  // One coherent counter snapshot up front; events ingested while the
  // shards are being copied belong to the next checkpoint.
  const ServiceStats counters = stats();
  const std::string model_blob = model_->Serialize();
  // Quantized companions of every forest, in the same epoch dir.  The blob
  // is a deterministic function of the trained model, which is what lets
  // Restore verify it by byte equality instead of a tolerance check.
  const std::string qforest_blob = model_->SerializeQuantized();

  // Snapshot each shard under its lock (a copy of the O(1)-state items),
  // then serialize and write the file outside the lock so ingest/query
  // never stall behind disk IO.  Shards proceed in parallel.
  const size_t num_shards = shards_.size();
  std::vector<uint32_t> shard_crc(num_shards, 0);
  std::vector<size_t> shard_bytes(num_shards, 0);
  std::vector<size_t> shard_items(num_shards, 0);
  Mutex error_mu;
  Status shard_error;  // first failure wins
  ParallelFor(num_shards, 1, [&](size_t begin, size_t end) {
    for (size_t sh = begin; sh < end; ++sh) {
      const Shard& shard = *shards_[sh];
      std::vector<std::pair<int64_t, Item>> snapshot;
      {
        MutexLock lock(shard.mu);
        snapshot.reserve(shard.items.size());
        for (const auto& [id, item] : shard.items) {
          snapshot.emplace_back(id, *item);
        }
      }
      std::ostringstream os;
      os.precision(17);
      os << "shard v1\n" << snapshot.size() << "\n";
      for (const auto& [id, item] : snapshot) {
        os << id << "\n";
        SerializePage(os, item.page);
        SerializePost(os, item.post);
        const std::string tracker = item.tracker.Serialize();
        os << tracker.size() << "\n" << tracker;
      }
      const std::string framed = io::WrapCrcFrame(os.str());
      shard_crc[sh] = io::Crc32(framed);
      shard_bytes[sh] = framed.size();
      shard_items[sh] = snapshot.size();
      const Status wrote =
          io::WriteFileAtomic(ckpt + "/" + ShardFileName(sh), framed);
      if (!wrote.ok()) {
        MutexLock lock(error_mu);
        if (shard_error.ok()) shard_error = wrote;
      }
    }
  });
  HORIZON_RETURN_IF_ERROR(shard_error);
  HORIZON_RETURN_IF_ERROR(
      io::WriteFileAtomic(ckpt + "/model.hwk", io::WrapCrcFrame(model_blob)));
  HORIZON_RETURN_IF_ERROR(io::WriteFileAtomic(ckpt + "/model.qforest",
                                              io::WrapCrcFrame(qforest_blob)));

  std::ostringstream manifest;
  manifest.precision(17);
  manifest << "manifest v1\n";
  manifest << "epoch " << epoch << "\n";
  manifest << "model " << io::Crc32(model_blob) << " " << model_blob.size() << "\n";
  manifest << "qforest " << io::Crc32(qforest_blob) << " " << qforest_blob.size()
           << "\n";
  const stream::TrackerConfig& tracker = config_.tracker;
  manifest << "windows " << tracker.window_lengths.size();
  for (double w : tracker.window_lengths) manifest << " " << w;
  manifest << "\n";
  manifest << "landmarks " << tracker.landmark_ages.size();
  for (double l : tracker.landmark_ages) manifest << " " << l;
  manifest << "\n";
  manifest << "ewma_tau " << tracker.ewma_tau << "\n";
  manifest << "epsilon " << tracker.epsilon << "\n";
  manifest << "counters " << counters.items_registered << " "
           << counters.events_ingested << " " << counters.queries_answered << " "
           << counters.items_retired << "\n";
  manifest << "shards " << num_shards << "\n";
  for (size_t sh = 0; sh < num_shards; ++sh) {
    manifest << ShardFileName(sh) << " " << shard_crc[sh] << " " << shard_bytes[sh]
             << " " << shard_items[sh] << "\n";
  }
  HORIZON_RETURN_IF_ERROR(
      io::WriteFileAtomic(ckpt + "/MANIFEST", io::WrapCrcFrame(manifest.str())));
  // Commit point: once CURRENT names the new directory, the checkpoint is
  // the one Restore will load.
  HORIZON_RETURN_IF_ERROR(io::WriteFileAtomic(dir + "/CURRENT", name + "\n"));

  // GC: drop checkpoints older than the committed one's predecessor
  // (including partial directories left by crashed attempts).
  for (const std::string& entry : io::ListDir(dir)) {
    if (const auto e = ParseCheckpointEpoch(entry)) {
      if (*e + 1 < epoch) io::RemoveTree(dir + "/" + entry);
    }
  }
  return Status::Ok();
}

Status PredictionService::Restore(const std::string& dir) {
  const obs::ScopedTimer latency(m_restore_latency_);
  // Barrier op: in-flight events against the pre-restore state must be
  // applied (to the state being replaced) before the swap, not smeared
  // into the restored state afterwards.
  DrainAllQueues();
  const auto current = io::ReadFile(dir + "/CURRENT");
  if (!current.ok()) {
    if (current.code() == StatusCode::kNotFound) {
      return CountError(
          Status::NotFound("no committed checkpoint under " + dir));
    }
    return CountError(current.status());
  }
  const std::string name = Trim(*current);
  if (!ParseCheckpointEpoch(name).has_value()) {
    return CountError(Status::Corruption("CURRENT names no valid checkpoint"));
  }
  const std::string ckpt = dir + "/" + name;

  const auto manifest_file = io::ReadFile(ckpt + "/MANIFEST");
  if (!manifest_file.ok()) {
    return CountError(Status::Corruption(
        "checkpoint manifest unreadable: " + manifest_file.status().ToString()));
  }
  const auto manifest = io::UnwrapCrcFrame(*manifest_file);
  if (!manifest.ok()) return CountError(manifest.status());

  std::istringstream is(*manifest);
  std::string magic, version, key;
  uint64_t epoch = 0;
  uint32_t model_crc = 0;
  size_t model_size = 0;
  if (!(is >> magic >> version) || magic != "manifest" || version != "v1") {
    return CountError(Status::Corruption("manifest: bad magic/version"));
  }
  if (!(is >> key >> epoch) || key != "epoch") {
    return CountError(Status::Corruption("manifest: missing epoch"));
  }
  if (!(is >> key >> model_crc >> model_size) || key != "model") {
    return CountError(Status::Corruption("manifest: missing model digest"));
  }
  uint32_t qforest_crc = 0;
  size_t qforest_size = 0;
  if (!(is >> key >> qforest_crc >> qforest_size) || key != "qforest") {
    return CountError(Status::Corruption("manifest: missing qforest digest"));
  }

  // The restored trackers only make sense if this service interprets their
  // state with the same window/landmark layout and EWMA constants.
  const stream::TrackerConfig& tracker = config_.tracker;
  size_t n = 0;
  if (!(is >> key >> n) || key != "windows") {
    return CountError(Status::Corruption("manifest: missing windows"));
  }
  if (n != tracker.window_lengths.size()) {
    return CountError(
        Status::ConfigMismatch("checkpoint uses a different window layout"));
  }
  for (size_t i = 0; i < n; ++i) {
    double w = 0.0;
    if (!(is >> w)) {
      return CountError(Status::Corruption("manifest: truncated windows"));
    }
    if (w != tracker.window_lengths[i]) {
      return CountError(
          Status::ConfigMismatch("checkpoint uses a different window layout"));
    }
  }
  if (!(is >> key >> n) || key != "landmarks") {
    return CountError(Status::Corruption("manifest: missing landmarks"));
  }
  if (n != tracker.landmark_ages.size()) {
    return CountError(
        Status::ConfigMismatch("checkpoint uses a different landmark layout"));
  }
  for (size_t i = 0; i < n; ++i) {
    double l = 0.0;
    if (!(is >> l)) {
      return CountError(Status::Corruption("manifest: truncated landmarks"));
    }
    if (l != tracker.landmark_ages[i]) {
      return CountError(
          Status::ConfigMismatch("checkpoint uses a different landmark layout"));
    }
  }
  double ewma_tau = 0.0, epsilon = 0.0;
  if (!(is >> key >> ewma_tau) || key != "ewma_tau") {
    return CountError(Status::Corruption("manifest: missing ewma_tau"));
  }
  if (ewma_tau != tracker.ewma_tau) {
    return CountError(
        Status::ConfigMismatch("checkpoint uses a different ewma_tau"));
  }
  if (!(is >> key >> epsilon) || key != "epsilon") {
    return CountError(Status::Corruption("manifest: missing epsilon"));
  }
  if (epsilon != tracker.epsilon) {
    return CountError(
        Status::ConfigMismatch("checkpoint uses a different epsilon"));
  }
  ServiceStats counters;
  if (!(is >> key >> counters.items_registered >> counters.events_ingested >>
        counters.queries_answered >> counters.items_retired) ||
      key != "counters") {
    return CountError(Status::Corruption("manifest: missing counters"));
  }
  size_t num_shard_files = 0;
  if (!(is >> key >> num_shard_files) || key != "shards" ||
      num_shard_files > 1u << 20) {
    return CountError(Status::Corruption("manifest: bad shard table"));
  }

  // Bit-identical predictions require the identical model.
  const std::string model_blob = model_->Serialize();
  if (io::Crc32(model_blob) != model_crc || model_blob.size() != model_size) {
    return CountError(Status::ConfigMismatch(
        "checkpoint was written by a different model (serialization digest "
        "mismatch)"));
  }
  // Same contract for the quantized companions: recompiling them from the
  // live model must reproduce the checkpointed blob byte for byte, or the
  // quantized query path would disagree with whoever wrote the checkpoint.
  const std::string qforest_blob = model_->SerializeQuantized();
  if (io::Crc32(qforest_blob) != qforest_crc ||
      qforest_blob.size() != qforest_size) {
    return CountError(Status::ConfigMismatch(
        "checkpoint was written by a different quantized forest (digest "
        "mismatch)"));
  }
  const auto qforest_file = io::ReadFile(ckpt + "/model.qforest");
  if (!qforest_file.ok()) {
    return CountError(
        Status::Corruption("checkpoint qforest file missing or unreadable"));
  }
  const auto qforest_payload = io::UnwrapCrcFrame(*qforest_file);
  if (!qforest_payload.ok() || *qforest_payload != qforest_blob) {
    return CountError(Status::Corruption("checkpoint qforest file damaged"));
  }

  // Stage every item first; the live service is only touched once the
  // whole checkpoint has been read and verified.
  std::vector<std::pair<int64_t, Item>> staged;
  for (size_t f = 0; f < num_shard_files; ++f) {
    std::string file;
    uint32_t crc = 0;
    size_t bytes = 0, items = 0;
    if (!(is >> file >> crc >> bytes >> items)) {
      return CountError(Status::Corruption("manifest: truncated shard table"));
    }
    if (file.find('/') != std::string::npos) {
      return CountError(Status::Corruption("manifest: shard name escapes dir"));
    }
    const auto raw = io::ReadFile(ckpt + "/" + file);
    if (!raw.ok() || raw->size() != bytes || io::Crc32(*raw) != crc) {
      return CountError(
          Status::Corruption("shard file " + file + " missing or damaged"));
    }
    const auto payload = io::UnwrapCrcFrame(*raw);
    if (!payload.ok()) return CountError(payload.status());
    std::istringstream ss(*payload);
    std::string smagic, sversion;
    size_t num_items = 0;
    if (!(ss >> smagic >> sversion) || smagic != "shard" || sversion != "v1") {
      return CountError(Status::Corruption("shard file: bad magic/version"));
    }
    if (!(ss >> num_items) || num_items != items) {
      return CountError(Status::Corruption("shard file: item count mismatch"));
    }
    for (size_t i = 0; i < num_items; ++i) {
      int64_t id = 0;
      datagen::PageProfile page;
      datagen::PostProfile post;
      if (!(ss >> id)) {
        return CountError(Status::Corruption("shard file: truncated item id"));
      }
      if (!DeserializePage(ss, &page) || !DeserializePost(ss, &post)) {
        return CountError(Status::Corruption("shard file: bad item profile"));
      }
      size_t blob_size = 0;
      if (!(ss >> blob_size) || blob_size > 1u << 24) {
        return CountError(Status::Corruption("shard file: bad tracker size"));
      }
      ss.ignore(1);  // the newline after the size
      std::string blob(blob_size, '\0');
      if (!ss.read(blob.data(), static_cast<std::streamsize>(blob_size))) {
        return CountError(Status::Corruption("shard file: truncated tracker"));
      }
      Item item{stream::CascadeTracker(0.0, tracker), page, post};
      if (!item.tracker.Deserialize(blob)) {
        return CountError(Status::Corruption("shard file: bad tracker state"));
      }
      staged.emplace_back(id, std::move(item));
    }
  }

  // Swap the staged state in.  Items re-shard by id hash, so a restored
  // service may even use a different shard count than the writer.
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    ApplyClear(*shard);
  }
  for (auto& [id, item] : staged) {
    Shard& shard = *shards_[ShardOf(id)];
    MutexLock lock(shard.mu);
    ApplyInsert(shard, id, std::move(item));
  }
  if (async_) {
    // Republish every shard so queries (and enqueue-time existence
    // checks) see the restored state immediately.
    for (const auto& shard : shards_) {
      MutexLock lock(shard->mu);
      PublishView(*shard, epochs_);
    }
  }
  // order: relaxed (all five); Restore runs before the service takes
  // traffic -- publication to other threads happens when the caller
  // hands the service over, and stats() reads are relaxed-paired.
  live_items_.store(staged.size(), std::memory_order_relaxed);
  m_live_items_->Set(static_cast<double>(staged.size()));
  // order: relaxed; see above.
  items_registered_.store(counters.items_registered, std::memory_order_relaxed);
  // order: relaxed; see above.
  events_ingested_.store(counters.events_ingested, std::memory_order_relaxed);
  // order: relaxed; see above.
  queries_answered_.store(counters.queries_answered, std::memory_order_relaxed);
  // order: relaxed; see above.
  items_retired_.store(counters.items_retired, std::memory_order_relaxed);
  return Status::Ok();
}

ServiceStats PredictionService::stats() const {
  ServiceStats out;
  // order: relaxed (all four); statistics snapshot paired with the
  // relaxed counter updates -- fields may be mutually inconsistent by
  // a few events, which the DST conservation checks tolerate by
  // draining (Flush) first.
  out.items_registered = items_registered_.load(std::memory_order_relaxed);
  // order: relaxed; see above.
  out.events_ingested = events_ingested_.load(std::memory_order_relaxed);
  // order: relaxed; see above.
  out.queries_answered = queries_answered_.load(std::memory_order_relaxed);
  // order: relaxed; see above.
  out.items_retired = items_retired_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace horizon::serving
