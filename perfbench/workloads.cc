// The three workloads of the replay benchmark (README.md, "Workloads").
//
// replay_sync / replay_async replay datagen's interleaved platform stream
// through per-event Ingest, with engagement-driven point queries and an
// hourly/6-hourly/daily/weekly schedule of batch queries, scans,
// retirement sweeps and checkpoint/restore cycles.  One round replays the
// whole stream into a fresh service; rounds repeat until the time is up.
//
// horizon_queries pre-loads a large live set during setup and then runs
// rounds of point queries at several horizons, 256-id batch queries, a
// top-k scan, a trickle of ingest into random items, retirement sweeps
// and checkpoint/restore cycles, all at one frozen stream time.
#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <thread>

#include "bench.h"
#include "checks.h"
#include "core/trainer.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using stream::EngagementType;

// Horizons an engagement-driven or batch query draws from (1 h .. 7 d).
constexpr double kHorizons[] = {1 * kHour, 6 * kHour, 1 * kDay, 3 * kDay,
                                7 * kDay};
// Horizons of a probe triple: one item, one s, increasing deltas.
constexpr double kTriple[] = {1 * kHour, 1 * kDay, 7 * kDay};

// Replay schedule.
constexpr size_t kProbeEveryEvents = 128;  // engagement-driven point query
constexpr size_t kRecentBatchCap = 64;     // ids in the hourly BatchQuery
constexpr size_t kReplayScanK = 20;
constexpr int kScanEveryHours = 6;
constexpr int kRetireEveryHours = 24;
constexpr int kCheckpointEveryHours = 168;

// horizon_queries round.
constexpr size_t kTricklePerRound = 32;
constexpr size_t kProbeItemsPerRound = 1024;
constexpr size_t kBatchesPerRound = 8;
constexpr size_t kBatchIds = 256;
constexpr size_t kQueriesScanK = 100;
constexpr int kRetireEveryRounds = 3;
constexpr int kVerifyScanEveryRounds = 16;
constexpr int kCheckpointEveryRounds = 6;

// Checks.
constexpr size_t kRecordEvery = 16;        // answers kept for replay/tau
constexpr size_t kMaxRecords = 1 << 14;
constexpr size_t kMaxReplayChecks = 600;
constexpr size_t kMaxTauAnswers = 3000;
constexpr size_t kRestoreSampleIds = 32;
// Floor of Kendall tau-b between predicted and true increments, set well
// below the lowest value seen over many seeds (README.md, "Output checks").
constexpr double kTauFloor = 0.55;

// Traced-run sampling: 1 in N requests of each kind carries spans.
constexpr uint64_t kTraceEventEvery = 64;
constexpr uint64_t kTraceQueryEvery = 8;
constexpr uint64_t kTraceScanEvery = 4;
constexpr size_t kSpanCapacity = 1 << 19;

// Which check an injected fault targets, for the self-test.
Fault g_fault = Fault::kNone;
bool Inject(Fault f) { return g_fault == f; }

double HeapBytes() {
  const struct mallinfo2 m = mallinfo2();
  return static_cast<double>(m.uordblks) + static_cast<double>(m.hblkhd);
}

/// Peak resident memory the service adds.  The process's own high-water
/// mark would mostly measure the benchmark: its generated inputs, ground
/// truth and set-up allocations.  So the baseline is the resident set once
/// those exist, after malloc_trim has handed back what set-up freed (else
/// the service reuses freed heap and RSS under-reads), and a thread samples
/// the resident set every 2 ms until Stop(), so the peak inside a long call
/// (Checkpoint copies every item of a shard before writing) is seen too.
class ResidentSampler {
 public:
  ResidentSampler() : fd_(::open("/proc/self/statm", O_RDONLY | O_CLOEXEC)) {
    if (fd_ < 0) {
      std::perror("perfbench: /proc/self/statm");
      std::exit(2);
    }
    malloc_trim(0);
    baseline_ = peak_ = Pages();
    thread_ = std::thread([this] {
      while (!stop_.load(std::memory_order_relaxed)) {
        peak_ = std::max(peak_, Pages());
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }
  ~ResidentSampler() {
    Stop();
    ::close(fd_);
  }
  ResidentSampler(const ResidentSampler&) = delete;
  ResidentSampler& operator=(const ResidentSampler&) = delete;

  /// Ends sampling; returns the peak above the baseline in MB (10^6 bytes).
  double Stop() {
    if (thread_.joinable()) {
      stop_.store(true, std::memory_order_relaxed);
      thread_.join();
      peak_ = std::max(peak_, Pages());
    }
    return static_cast<double>(peak_ - std::min(peak_, baseline_)) *
           static_cast<double>(::sysconf(_SC_PAGESIZE)) * 1e-6;
  }

 private:
  /// Resident pages, the second field of /proc/self/statm.
  uint64_t Pages() const {
    char buf[128];
    const ssize_t n = ::pread(fd_, buf, sizeof buf - 1, 0);
    if (n <= 0) return 0;
    buf[n] = '\0';
    unsigned long long size = 0, resident = 0;
    return std::sscanf(buf, "%llu %llu", &size, &resident) == 2 ? resident : 0;
  }

  int fd_;
  uint64_t baseline_ = 0;
  uint64_t peak_ = 0;  // written by the sampling thread until Stop() joins it
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

double Percentile(std::vector<uint32_t> values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = std::min(
      values.size() - 1, static_cast<size_t>(std::ceil(q * values.size())) - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<ptrdiff_t>(rank),
                   values.end());
  return values[rank];
}

uint64_t DirBytes(const fs::path& dir) {
  uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

/// Generated inputs of one workload.
struct Inputs {
  datagen::SyntheticDataset data;
  std::vector<datagen::PlatformEvent> stream;  // time ordered
  std::vector<std::vector<LoggedEvent>> logs;  // per item, in stream order
  std::vector<int64_t> by_creation;            // ids by creation time
  double generate_s = 0.0;                     // datagen time of the above
};

/// Generates a dataset, its platform stream (events of age < max_age) and
/// the per-item logs of the events at or before `until`.  Without
/// `keep_stream` the global stream is dropped once the logs are built.
Inputs Generate(const datagen::GeneratorConfig& config, double max_age,
                double until, bool keep_stream) {
  const uint64_t t0 = NowNs();
  Inputs in;
  in.data = datagen::Generator(config).Generate();
  datagen::EventStreamOptions options;
  options.max_age = max_age;
  in.stream = datagen::BuildEventStream(in.data, options);
  const size_t n = in.data.cascades.size();
  in.logs.resize(n);
  for (size_t i = 0; i < n; ++i) {
    HORIZON_CHECK_EQ(static_cast<size_t>(in.data.cascades[i].post.id), i);
    in.by_creation.push_back(static_cast<int64_t>(i));
  }
  for (const datagen::PlatformEvent& e : in.stream) {
    if (e.time > until) break;
    in.logs[static_cast<size_t>(e.post_id)].push_back({e.time, e.type});
  }
  if (!keep_stream) in.stream = {};
  std::stable_sort(in.by_creation.begin(), in.by_creation.end(),
                   [&](int64_t a, int64_t b) {
                     return in.data.cascades[a].post.creation_time <
                            in.data.cascades[b].post.creation_time;
                   });
  in.generate_s = static_cast<double>(NowNs() - t0) * 1e-9;
  return in;
}

/// What the benchmark itself knows about one item.
struct ItemBook {
  uint32_t sent_events = 0;  // accepted by Ingest
  uint32_t sent_views = 0;
  uint32_t barrier_events = 0;  // as of the last drain barrier (async)
  uint32_t barrier_views = 0;
  uint32_t stamp = 0;           // barrier epoch of the last send
  int32_t recent_hour = -1;     // hour of the last engagement
  bool registered = false;
  bool retired = false;
};

class Driver {
 public:
  Driver(const Options& options, const Model& model, Inputs inputs, bool async)
      : options_(options),
        model_(model),
        in_(std::move(inputs)),
        async_(async),
        rng_(options.seed * 0x2545f4914f6cdd1dULL + 11),
        tracer_(options.trace, kSpanCapacity) {
    // One core stays with the load generator: in async mode every shard
    // owns an applier thread, and more runnable threads than cores turns
    // scheduler noise into run-to-run spread.
    config_.num_shards = static_cast<int>(
        std::clamp<unsigned>(std::thread::hardware_concurrency(), 2u, 5u) - 1);
    config_.ingest_mode =
        async_ ? serving::IngestMode::kAsync : serving::IngestMode::kSync;
    config_.metrics = &registry_;
    ckpt_dir_ = options.work_dir + "/ckpt-" + std::to_string(::getpid());
    features_rows_ =
        obs::MetricsRegistry::Global().GetCounter("horizon_features_rows_extracted_total");
    gbdt_rows_ =
        obs::MetricsRegistry::Global().GetCounter("horizon_gbdt_rows_scored_total");
  }

  ~Driver() {
    std::error_code ignored;
    fs::remove_all(ckpt_dir_, ignored);
  }

  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  /// Replay workloads: rounds of the whole stream until the time is up.
  void RunReplay(uint64_t start_ns, RunResult* result);
  /// horizon_queries: pre-load, then rounds at the frozen time.
  void RunQueries(uint64_t start_ns, RunResult* result);

 private:
  // --- operations, each timed around the service call only -----------
  void Register(int64_t id, bool make_shadow);
  bool Ingest(int64_t id, EngagementType type, double t);
  bool PointQuery(int64_t id, double s, double delta, Answer* out);
  void Triple(int64_t id, double s);
  void Batch(const std::vector<int64_t>& ids, double s, double delta);
  void Scan(double s, double delta, size_t k, bool verify);
  void Barrier();
  void Retire(double now);
  void CheckpointCycle(double s);
  void Scrape();

  // --- helpers -------------------------------------------------------
  std::unique_ptr<serving::PredictionService> NewService(
      const serving::ServiceConfig& config) const {
    return std::make_unique<serving::PredictionService>(
        &model_.predictor, &model_.extractor, config);
  }
  const datagen::PostProfile& Post(int64_t id) const {
    return in_.data.cascades[static_cast<size_t>(id)].post;
  }
  const datagen::PageProfile& Page(int64_t id) const {
    return in_.data.PageOf(Post(id));
  }
  /// Bounds on the views a just-answered query may report.
  std::pair<uint64_t, uint64_t> ViewBounds(int64_t id) const {
    const ItemBook& b = book_[static_cast<size_t>(id)];
    const uint32_t lo = async_ && b.stamp == epoch_ ? b.barrier_views : b.sent_views;
    return {lo, b.sent_views};
  }
  std::pair<uint32_t, uint32_t> EventBounds(int64_t id) const {
    const ItemBook& b = book_[static_cast<size_t>(id)];
    const uint32_t lo = async_ && b.stamp == epoch_ ? b.barrier_events : b.sent_events;
    return {lo, b.sent_events};
  }
  /// Brackets a round for the features.rows / gbdt.rows tallies.
  void BeginRound(bool traced) {
    traced_ = traced;
    tracer_.set_recording(traced);
    round_rows_[0] = features_rows_->Value();
    round_rows_[1] = gbdt_rows_->Value();
    round_rows_[2] = excluded_features_rows_;
    round_rows_[3] = excluded_gbdt_rows_;
  }
  void EndRound() {
    if (!traced_) return;
    service_features_rows_ += (features_rows_->Value() - round_rows_[0]) -
                              (excluded_features_rows_ - round_rows_[2]);
    service_gbdt_rows_ += (gbdt_rows_->Value() - round_rows_[1]) -
                          (excluded_gbdt_rows_ - round_rows_[3]);
  }
  void Account(OpStats& op, uint64_t t0, uint64_t t1) {
    ++op.attempted;
    op.busy_ns += t1 - t0;
  }
  /// The workload's main operation, timed in traced and untraced rounds.
  void AccountMain(uint64_t t0, uint64_t t1) {
    main_busy_ns_[traced_ ? 1 : 0] += t1 - t0;
    ++main_ops_[traced_ ? 1 : 0];
  }
  void Fail(OpStats& op, const char* what, const Status& status) {
    if (op.failed++ == 0) {
      std::fprintf(stderr, "operation %s failed: %s\n", what,
                   status.ToString().c_str());
    }
  }
  void CheckAnswerInline(Answer a, int64_t id);
  void MaybeRecord(const Answer& a);
  /// Refreshes retired flags from the service after a sweep.
  size_t SyncRetired();
  void RebuildLive();
  bool TimeUp() const { return stopped_ || NowNs() >= deadline_ns_; }
  bool RoundsDone(int round) const {
    return options_.rounds > 0 && round >= options_.rounds;
  }
  /// Runs `fn` and keeps the rows it extracts/scores out of the
  /// features.rows / gbdt.rows tallies (shadow work and check calls).
  template <typename Fn>
  void Excluded(Fn&& fn) {
    const uint64_t f0 = features_rows_->Value(), g0 = gbdt_rows_->Value();
    fn();
    excluded_features_rows_ += features_rows_->Value() - f0;
    excluded_gbdt_rows_ += gbdt_rows_->Value() - g0;
  }
  // Shadow layers (traced rounds).
  void ShadowObserve(int64_t id, EngagementType type, double t, uint32_t parent,
                     uint64_t request);
  /// Snapshot + extract of `ids` at `s` from the shadow trackers into `x`
  /// (sized ids.size() rows); returns the summed duration of the two layer
  /// calls.  `observed` gets each item's view count.
  uint64_t ShadowExtract(const std::vector<int64_t>& ids, double s, uint32_t parent,
                         uint64_t request, gbdt::ExampleBatch* x,
                         std::vector<double>* observed);
  /// Snapshot + extract + forests + PredictCountBatch over `ids`; returns
  /// the summed duration of the layer calls.
  uint64_t ShadowPredict(const std::vector<int64_t>& ids, double s, double delta,
                         uint32_t parent, uint64_t request, bool split_forests);
  void AfterPhaseChecks();
  void Finish(const char* workload, uint64_t setup_ns, RunResult* result);

  const Options& options_;
  const Model& model_;
  Inputs in_;
  bool async_;
  SplitMix rng_;
  Tracer tracer_;
  obs::MetricsRegistry registry_;
  serving::ServiceConfig config_;
  std::unique_ptr<serving::PredictionService> service_;
  std::string ckpt_dir_;
  // From just before the first service exists to the end of the first
  // round (replays) or block of rounds (horizon_queries), a fixed amount of
  // work: resident memory keeps creeping up over further checkpoint/restore
  // cycles (README.md, "End-to-end metrics"), so a peak over the whole run
  // would depend on how many cycles the host fits into it.  Untraced runs
  // only.
  std::optional<ResidentSampler> resident_;
  double service_peak_mb_ = 0.0;

  std::vector<ItemBook> book_;
  std::vector<int64_t> live_;  // registered, not retired (horizon_queries)
  uint32_t epoch_ = 1;
  bool traced_ = false;
  bool stopped_ = false;  // a failed restore ends the run
  uint64_t deadline_ns_ = 0;
  uint64_t request_ = 0;

  struct Ops {
    OpStats reg, ingest, flush, point, batch, scan, retire, checkpoint, restore,
        scrape;
  } ops_;
  uint64_t straggler_drops_ = 0;
  std::vector<uint32_t> point_latency_ns_;
  // Time in the main operation per untraced / traced round, for the
  // tracing overhead: Ingest in the replays, point queries in
  // horizon_queries.
  uint64_t main_busy_ns_[2] = {0, 0};
  uint64_t main_ops_[2] = {0, 0};
  bool main_is_ingest_ = false;

  Checks checks_;
  std::vector<Record> records_;
  uint64_t answers_seen_ = 0;

  // Traced-run state.
  std::vector<std::unique_ptr<stream::CascadeTracker>> shadow_;
  obs::Counter* features_rows_;
  obs::Counter* gbdt_rows_;
  uint64_t excluded_features_rows_ = 0;
  uint64_t excluded_gbdt_rows_ = 0;
  uint64_t answered_items_traced_ = 0;
  uint64_t event_tick_ = 0, query_tick_ = 0, scan_tick_ = 0;
  struct Residual {
    double sum = 0;
    uint64_t n = 0;
    void Add(double v) { sum += v; ++n; }
    double Mean() const { return n ? sum / static_cast<double>(n) : 0.0; }
  } query_residual_ns_, scan_residual_ms_,
      checkpoint_residual_ms_, serialize_ms_, model_serialize_ms_,
      forest_ns_per_row_, transfer_ns_per_row_;
  struct RowCost {
    double ns = 0;
    uint64_t rows = 0;
    double PerRow() const { return rows ? ns / static_cast<double>(rows) : 0.0; }
  } snapshot_ns_, extract_ns_;
  // Rows the service itself extracted / scored during traced rounds.
  uint64_t service_features_rows_ = 0;
  uint64_t service_gbdt_rows_ = 0;
  uint64_t round_rows_[4] = {0, 0, 0, 0};
  double bytes_per_item_ = 0;
};

// ---------------------------------------------------------------------------
// Operations

void Driver::Register(int64_t id, bool make_shadow) {
  const uint32_t parent = tracer_.Open(SpanName::kReqRegister, Tracer::kNoParent, ++request_);
  const uint64_t t0 = NowNs();
  const Status st =
      service_->RegisterItem(id, Post(id).creation_time, Page(id), Post(id));
  const uint64_t t1 = NowNs();
  Account(ops_.reg, t0, t1);
  tracer_.Add(SpanName::kServingRegister, parent, request_, t0, t1);
  tracer_.Close(parent);
  if (!st.ok()) return Fail(ops_.reg, "RegisterItem", st);
  book_[static_cast<size_t>(id)].registered = true;
  if (traced_ && make_shadow) {
    shadow_[static_cast<size_t>(id)] = std::make_unique<stream::CascadeTracker>(
        Post(id).creation_time, model_.tracker);
  }
}

bool Driver::Ingest(int64_t id, EngagementType type, double t) {
  const bool sampled = traced_ && ++event_tick_ % kTraceEventEvery == 0;
  const uint32_t parent =
      sampled ? tracer_.Open(SpanName::kReqEvent, Tracer::kNoParent, ++request_)
              : Tracer::kNoParent;
  const uint64_t t0 = NowNs();
  const Status st = service_->Ingest(id, type, t);
  const uint64_t t1 = NowNs();
  Account(ops_.ingest, t0, t1);
  ItemBook& b = book_[static_cast<size_t>(id)];
  if (!st.ok()) {
    tracer_.Close(parent);
    // The documented straggler drop: the item was retired by a sweep.
    if (st.code() == StatusCode::kNotFound && b.retired) {
      ++straggler_drops_;
      return false;
    }
    Fail(ops_.ingest, "Ingest", st);
    return false;
  }
  ++ops_.ingest.items;
  if (main_is_ingest_) AccountMain(t0, t1);
  if (b.stamp != epoch_) {
    b.barrier_events = b.sent_events;
    b.barrier_views = b.sent_views;
    b.stamp = epoch_;
  }
  ++b.sent_events;
  if (type == EngagementType::kView) ++b.sent_views;
  if (traced_) {
    if (sampled) tracer_.Add(SpanName::kServingIngest, parent, request_, t0, t1);
    ShadowObserve(id, type, t, parent, request_);
    if (sampled) {
      tracer_.Close(parent);
    }
  }
  return true;
}

void Driver::ShadowObserve(int64_t id, EngagementType type, double t,
                           uint32_t parent, uint64_t request) {
  stream::CascadeTracker& tracker = *shadow_[static_cast<size_t>(id)];
  if (parent == Tracer::kNoParent) {
    tracker.Observe(type, t);
    return;
  }
  const uint64_t t0 = NowNs();
  tracker.Observe(type, t);
  const uint64_t t1 = NowNs();
  tracer_.Add(SpanName::kStreamObserve, parent, request, t0, t1);
}

void Driver::CheckAnswerInline(Answer a, int64_t id) {
  auto [lo, hi] = ViewBounds(id);
  const bool first = answers_seen_ == 5;  // one injection per run
  if (first && Inject(Fault::kAnswerViews)) a.observed += 1;
  if (first && Inject(Fault::kSentCount)) { lo += 1; hi += 1; }
  if (first && Inject(Fault::kPredictedBelow)) a.predicted = a.observed - 1;
  if (first && Inject(Fault::kAlphaRange)) a.alpha = model_.predictor.params().alpha_max * 2;
  CheckAnswer(a, lo, hi, model_.predictor.params(), &checks_);
}

void Driver::MaybeRecord(const Answer& a) {
  if (answers_seen_++ % kRecordEvery != 0) return;
  if (records_.size() >= kMaxRecords) return;
  const auto [lo, hi] = EventBounds(a.id);
  records_.push_back({a, lo, hi});
}

bool Driver::PointQuery(int64_t id, double s, double delta, Answer* out) {
  const bool sampled = traced_ && ++query_tick_ % kTraceQueryEvery == 0;
  const uint32_t parent =
      sampled ? tracer_.Open(SpanName::kReqPointQuery, Tracer::kNoParent, ++request_)
              : Tracer::kNoParent;
  const uint64_t t0 = NowNs();
  const StatusOr<serving::PredictionResult> r = service_->Query(id, s, delta);
  const uint64_t t1 = NowNs();
  Account(ops_.point, t0, t1);
  if (!main_is_ingest_) AccountMain(t0, t1);
  point_latency_ns_.push_back(static_cast<uint32_t>(std::min<uint64_t>(t1 - t0, UINT32_MAX)));
  if (!r.ok()) {
    tracer_.Close(parent);
    Fail(ops_.point, "Query", r.status());
    return false;
  }
  const Answer a{id, s, delta, r->observed_views, r->predicted_views, r->alpha};
  if (traced_) ++answered_items_traced_;
  if (sampled) {
    tracer_.Add(SpanName::kServingQuery, parent, request_, t0, t1);
    const uint64_t layers = ShadowPredict({id}, s, delta, parent, request_, false);
    query_residual_ns_.Add(static_cast<double>(t1 - t0) - static_cast<double>(layers));
    tracer_.Close(parent);
  }
  CheckAnswerInline(a, id);
  MaybeRecord(a);
  if (out != nullptr) *out = a;
  return true;
}

void Driver::Triple(int64_t id, double s) {
  std::vector<Answer> answers;
  for (const double delta : kTriple) {
    Answer a;
    if (!PointQuery(id, s, delta, &a)) return;
    answers.push_back(a);
  }
  if (Inject(Fault::kMonotone)) {
    std::swap(answers[0].predicted, answers[2].predicted);
    g_fault = Fault::kNone;
  }
  if (Inject(Fault::kRatio)) {
    answers[1].predicted =
        answers[1].observed + (answers[1].predicted - answers[1].observed) * (1 + 1e-6);
    g_fault = Fault::kNone;
  }
  CheckHorizonSet(answers, &checks_);
}

uint64_t Driver::ShadowExtract(const std::vector<int64_t>& ids, double s,
                               uint32_t parent, uint64_t request, gbdt::ExampleBatch* x,
                               std::vector<double>* observed) {
  const size_t n = ids.size();
  std::vector<stream::TrackerSnapshot> snaps(n);
  uint64_t t0 = NowNs();
  for (size_t i = 0; i < n; ++i) snaps[i] = shadow_[static_cast<size_t>(ids[i])]->Snapshot(s);
  uint64_t t1 = NowNs();
  tracer_.Add(SpanName::kStreamSnapshot, parent, request, t0, t1);
  snapshot_ns_.ns += static_cast<double>(t1 - t0);
  snapshot_ns_.rows += n;
  uint64_t layers = t1 - t0;
  t0 = NowNs();
  for (size_t i = 0; i < n; ++i) {
    model_.extractor.ExtractIntoStrided(Page(ids[i]), Post(ids[i]), snaps[i],
                                        x->MutableRowBase(i), x->feature_stride());
  }
  t1 = NowNs();
  tracer_.Add(SpanName::kFeaturesExtract, parent, request, t0, t1);
  extract_ns_.ns += static_cast<double>(t1 - t0);
  extract_ns_.rows += n;
  layers += t1 - t0;
  observed->resize(n);
  for (size_t i = 0; i < n; ++i) (*observed)[i] = static_cast<double>(snaps[i].views().total);
  return layers;
}

uint64_t Driver::ShadowPredict(const std::vector<int64_t>& ids, double s,
                               double delta, uint32_t parent, uint64_t request,
                               bool split_forests) {
  uint64_t layers = 0;
  Excluded([&] {
    const size_t n = ids.size();
    gbdt::ExampleBatch x(n, model_.extractor.schema().size());
    std::vector<double> observed;
    layers += ShadowExtract(ids, s, parent, request, &x, &observed);
    uint64_t forests = 0;
    if (split_forests) {
      const auto time_forest = [&](const gbdt::GbdtRegressor& forest) {
        const uint64_t f0 = NowNs();
        const std::vector<double> out = forest.PredictBatch(x);
        const uint64_t f1 = NowNs();
        tracer_.Add(SpanName::kGbdtPredictBatch, parent, request, f0, f1);
        forests += f1 - f0;
      };
      for (size_t m = 0; m < model_.predictor.num_reference_horizons(); ++m) {
        time_forest(model_.predictor.count_model(m));
      }
      time_forest(model_.predictor.alpha_model());
    }
    const std::vector<double> deltas(n, delta);
    std::vector<double> alphas;
    const uint64_t t0 = NowNs();
    const std::vector<double> counts =
        model_.predictor.PredictCountBatch(x, observed, deltas, &alphas);
    const uint64_t t1 = NowNs();
    tracer_.Add(SpanName::kCorePredictCountBatch, parent, request, t0, t1);
    layers += t1 - t0;
    if (split_forests && n > 0) {
      forest_ns_per_row_.Add(static_cast<double>(forests) / static_cast<double>(n));
      transfer_ns_per_row_.Add((static_cast<double>(t1 - t0) - static_cast<double>(forests)) /
                               static_cast<double>(n));
    }
  });
  return layers;
}

void Driver::Batch(const std::vector<int64_t>& ids, double s, double delta) {
  if (ids.empty()) return;
  const bool sampled = traced_;
  const uint32_t parent =
      sampled ? tracer_.Open(SpanName::kReqBatch, Tracer::kNoParent, ++request_)
              : Tracer::kNoParent;
  serving::QueryRequest request;
  request.ids = ids;
  request.s = s;
  request.delta = delta;
  const uint64_t t0 = NowNs();
  const StatusOr<serving::QueryResponse> r = service_->BatchQuery(request);
  const uint64_t t1 = NowNs();
  Account(ops_.batch, t0, t1);
  if (!r.ok()) {
    tracer_.Close(parent);
    return Fail(ops_.batch, "BatchQuery", r.status());
  }
  ops_.batch.items += r->results.size();
  if (traced_) answered_items_traced_ += r->results.size();
  for (const serving::ItemError& e : r->errors) {
    Fail(ops_.batch, "BatchQuery item", e.status);
  }
  if (sampled) {
    tracer_.Add(SpanName::kServingBatchQuery, parent, request_, t0, t1);
    ShadowPredict(ids, s, delta, parent, request_, true);
    tracer_.Close(parent);
  }
  for (const serving::ItemPrediction& p : r->results) {
    const Answer a{p.item_id, s, delta, p.prediction.observed_views,
                   p.prediction.predicted_views, p.prediction.alpha};
    CheckAnswerInline(a, p.item_id);
    MaybeRecord(a);
  }
}

void Driver::Scan(double s, double delta, size_t k, bool verify) {
  const bool sampled = traced_ && scan_tick_++ % kTraceScanEvery == 0;
  const uint32_t parent =
      sampled ? tracer_.Open(SpanName::kReqScan, Tracer::kNoParent, ++request_)
              : Tracer::kNoParent;
  serving::QueryRequest request;
  request.s = s;
  request.delta = delta;
  request.top_k = k;
  const uint64_t t0 = NowNs();
  const StatusOr<serving::QueryResponse> r = service_->BatchQuery(request);
  const uint64_t t1 = NowNs();
  Account(ops_.scan, t0, t1);
  if (!r.ok()) {
    tracer_.Close(parent);
    return Fail(ops_.scan, "BatchQuery[scan]", r.status());
  }
  ops_.scan.items += r->results.size();
  if (traced_) answered_items_traced_ += r->results.size();
  std::vector<int64_t> live;
  for (size_t i = 0; i < book_.size(); ++i) {
    if (book_[i].registered && !book_[i].retired) live.push_back(static_cast<int64_t>(i));
  }
  if (sampled) {
    tracer_.Add(SpanName::kServingScan, parent, request_, t0, t1);
    // The shadow scores every live item, as the service's scan does, then
    // walks the alpha forest for the k winners only.
    uint64_t layers = 0;
    Excluded([&] {
      gbdt::ExampleBatch x(live.size(), model_.extractor.schema().size());
      std::vector<double> observed;
      layers += ShadowExtract(live, s, parent, request_, &x, &observed);
      const uint64_t a0 = NowNs();
      const std::vector<double> inc = model_.predictor.PredictIncrementBatch(x, delta);
      const uint64_t a1 = NowNs();
      tracer_.Add(SpanName::kCorePredictIncrementBatch, parent, request_, a0, a1);
      layers += a1 - a0;
    });
    std::vector<int64_t> winners;
    for (const auto& p : r->results) winners.push_back(p.item_id);
    layers += ShadowPredict(winners, s, delta, parent, request_, false);
    scan_residual_ms_.Add((static_cast<double>(t1 - t0) - static_cast<double>(layers)) * 1e-6);
    tracer_.Close(parent);
  }
  for (const serving::ItemPrediction& p : r->results) {
    CheckAnswerInline({p.item_id, s, delta, p.prediction.observed_views,
                       p.prediction.predicted_views, p.prediction.alpha},
                      p.item_id);
  }
  if (!verify) return;
  serving::QueryRequest all;
  all.ids = live;
  all.s = s;
  all.delta = delta;
  std::optional<StatusOr<serving::QueryResponse>> result;
  Excluded([&] { result.emplace(service_->BatchQuery(all)); });
  const StatusOr<serving::QueryResponse>& everything = *result;
  if (!everything.ok() || !everything->errors.empty()) {
    checks_.scan.Fail("BatchQuery over all live ids failed");
    return;
  }
  serving::QueryResponse scanned = *r;
  if (Inject(Fault::kScan) && !scanned.results.empty()) {
    scanned.results[0].prediction.predicted_views =
        std::nextafter(scanned.results[0].prediction.predicted_views, 0.0);
  }
  CheckScan(scanned, *everything, k, &checks_);
}

void Driver::Barrier() {
  const uint32_t parent =
      traced_ ? tracer_.Open(SpanName::kReqFlush, Tracer::kNoParent, ++request_)
              : Tracer::kNoParent;
  const uint64_t t0 = NowNs();
  const Status st = service_->Flush();
  const uint64_t t1 = NowNs();
  Account(ops_.flush, t0, t1);
  tracer_.Add(SpanName::kServingFlush, parent, request_, t0, t1);
  tracer_.Close(parent);
  if (!st.ok()) return Fail(ops_.flush, "Flush", st);
  ++epoch_;
}

size_t Driver::SyncRetired() {
  size_t newly = 0;
  Excluded([&] {
    for (size_t i = 0; i < book_.size(); ++i) {
      ItemBook& b = book_[i];
      if (b.registered && !b.retired && !service_->HasItem(static_cast<int64_t>(i))) {
        b.retired = true;
        ++newly;
        if (!shadow_.empty()) shadow_[i].reset();
      }
    }
  });
  return newly;
}

void Driver::RebuildLive() {
  live_.clear();
  for (size_t i = 0; i < book_.size(); ++i) {
    if (book_[i].registered && !book_[i].retired) live_.push_back(static_cast<int64_t>(i));
  }
}

void Driver::Retire(double now) {
  const uint32_t parent =
      traced_ ? tracer_.Open(SpanName::kReqRetire, Tracer::kNoParent, ++request_)
              : Tracer::kNoParent;
  const uint64_t t0 = NowNs();
  const size_t retired = service_->RetireDeadItems(now);
  const uint64_t t1 = NowNs();
  Account(ops_.retire, t0, t1);
  tracer_.Add(SpanName::kServingRetire, parent, request_, t0, t1);
  tracer_.Close(parent);
  ops_.retire.items += retired;
  const size_t seen = SyncRetired();
  if (seen != retired) {
    Fail(ops_.retire, "RetireDeadItems",
         Status::Internal("reported " + std::to_string(retired) +
                          " retired, " + std::to_string(seen) + " gone"));
  }
}

void Driver::Scrape() {
  const uint32_t parent = tracer_.Open(SpanName::kReqScrape, Tracer::kNoParent, ++request_);
  const uint64_t t0 = NowNs();
  const std::string text = registry_.DumpPrometheus();
  const uint64_t t1 = NowNs();
  ++ops_.scrape.attempted;
  ops_.scrape.busy_ns += t1 - t0;
  if (text.empty()) Fail(ops_.scrape, "DumpPrometheus", Status::Internal("empty"));
  tracer_.Add(SpanName::kObsScrape, parent, request_, t0, t1);
  tracer_.Close(parent);
}

void Driver::CheckpointCycle(double s) {
  const uint32_t parent =
      traced_ ? tracer_.Open(SpanName::kReqCheckpoint, Tracer::kNoParent, ++request_)
              : Tracer::kNoParent;
  uint64_t t0 = NowNs();
  Status st = service_->Checkpoint(ckpt_dir_);
  uint64_t t1 = NowNs();
  Account(ops_.checkpoint, t0, t1);
  if (!st.ok()) {
    tracer_.Close(parent);
    return Fail(ops_.checkpoint, "Checkpoint", st);
  }
  if (traced_) {
    // What the checkpoint serializes, timed through the layers' own APIs.
    tracer_.Add(SpanName::kServingCheckpoint, parent, request_, t0, t1);
    const uint64_t a0 = NowNs();
    size_t bytes = 0;
    for (const auto& tracker : shadow_) {
      if (tracker != nullptr) bytes += tracker->Serialize().size();
    }
    const uint64_t a1 = NowNs();
    bytes += model_.predictor.Serialize().size() + model_.predictor.SerializeQuantized().size();
    const uint64_t a2 = NowNs();
    tracer_.Add(SpanName::kStreamSerialize, parent, request_, a0, a1);
    tracer_.Add(SpanName::kCoreSerialize, parent, request_, a1, a2);
    serialize_ms_.Add(static_cast<double>(a1 - a0) * 1e-6);
    model_serialize_ms_.Add(static_cast<double>(a2 - a1) * 1e-6);
    checkpoint_residual_ms_.Add(
        (static_cast<double>(t1 - t0) - static_cast<double>(a2 - a0)) * 1e-6);
    tracer_.Close(parent);
  }
  std::string current;
  std::getline(std::ifstream(ckpt_dir_ + "/CURRENT"), current);
  const fs::path written = fs::path(ckpt_dir_) / current;
  ops_.checkpoint.items += DirBytes(written);
  if (Inject(Fault::kCheckpointByte)) {
    const fs::path shard = written / "shard-0000";
    std::fstream f(shard, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(fs::file_size(shard) / 2));
    char c = 0;
    f.get(c);
    f.seekp(static_cast<std::streamoff>(fs::file_size(shard) / 2));
    f.put(static_cast<char>(c ^ 0x20));
  }

  // Answers of the writing service to sampled queries, outside timing;
  // it is then dropped, so only one copy of the state is ever resident.
  std::vector<int64_t> sample;
  for (size_t i = 0; i < book_.size() && sample.size() < kRestoreSampleIds; ++i) {
    const size_t id = (i * 7919 + 13) % book_.size();
    if (book_[id].registered && !book_[id].retired) sample.push_back(static_cast<int64_t>(id));
  }
  const auto answers = [&](const serving::PredictionService& svc) {
    std::vector<Answer> out;
    Excluded([&] {
      for (const int64_t id : sample) {
        const auto r = svc.Query(id, s, kDay);
        if (r.ok()) out.push_back({id, s, kDay, r->observed_views, r->predicted_views, r->alpha});
      }
    });
    return out;
  };
  const std::vector<Answer> before = answers(*service_);
  service_.reset();
  service_ = NewService(config_);
  const uint32_t rparent =
      traced_ ? tracer_.Open(SpanName::kReqRestore, Tracer::kNoParent, ++request_)
              : Tracer::kNoParent;
  t0 = NowNs();
  st = service_->Restore(ckpt_dir_);
  t1 = NowNs();
  Account(ops_.restore, t0, t1);
  tracer_.Add(SpanName::kServingRestore, rparent, request_, t0, t1);
  tracer_.Close(rparent);
  if (!st.ok()) {
    // The state is gone with the writing service: end the run here.
    checks_.restore.Fail("Restore: " + st.ToString());
    stopped_ = true;
    return Fail(ops_.restore, "Restore", st);
  }
  std::vector<Answer> after = answers(*service_);
  if (Inject(Fault::kRestoreAnswer) && !after.empty()) {
    after[0].predicted = std::nextafter(after[0].predicted, 0.0);
  }
  CheckRestore(before, after, &checks_);
}

// ---------------------------------------------------------------------------
// Workloads

void Driver::RunReplay(uint64_t start_ns, RunResult* result) {
  const size_t n = in_.data.cascades.size();
  main_is_ingest_ = true;
  if (!options_.trace) resident_.emplace();
  if (options_.trace) {
    // Heap growth per item of a fresh service holding the whole stream.
    obs::MetricsRegistry scratch_registry;
    serving::ServiceConfig config = config_;
    config.metrics = &scratch_registry;
    const double h0 = HeapBytes();
    {
      auto svc = NewService(config);
      for (size_t i = 0; i < n; ++i) {
        const int64_t id = static_cast<int64_t>(i);
        (void)svc->RegisterItem(id, Post(id).creation_time, Page(id), Post(id));
      }
      std::vector<serving::IngestEvent> events;
      events.reserve(in_.stream.size());
      for (const auto& e : in_.stream) events.push_back({e.post_id, e.type, e.time});
      (void)svc->IngestBatch(events);
      (void)svc->Flush();
      bytes_per_item_ = (HeapBytes() - h0) / static_cast<double>(n);
    }
  }
  const uint64_t setup_end = NowNs();
  registry_.Reset();
  deadline_ns_ = setup_end + static_cast<uint64_t>(options_.seconds * 1e9);
  // Whole rounds only: every run replays the same schedule from the
  // start, so the operation mix does not depend on where the clock ran out.
  for (int round = 0; !TimeUp() && !RoundsDone(round); ++round) {
    BeginRound(options_.trace && round % 2 == 0);
    service_.reset();
    service_ = NewService(config_);
    book_.assign(n, ItemBook{});
    shadow_.clear();
    if (traced_) shadow_.resize(n);
    size_t next_reg = 0;
    double next_hour = kHour;
    int hour = 0;
    size_t since_probe = 0;
    int64_t last_engaged = -1;
    std::vector<int64_t> recent;
    const auto register_until = [&](double t) {
      while (next_reg < n && Post(in_.by_creation[next_reg]).creation_time <= t) {
        Register(in_.by_creation[next_reg++], /*make_shadow=*/true);
      }
    };
    bool stop = false;
    for (const datagen::PlatformEvent& e : in_.stream) {
      while (e.time >= next_hour && !stop) {
        ++hour;
        const double s = next_hour;
        next_hour += kHour;
        register_until(s);
        Barrier();
        if (last_engaged >= 0 && !book_[last_engaged].retired) Triple(last_engaged, s);
        const size_t take = std::min(recent.size(), kRecentBatchCap);
        std::vector<int64_t> ids(recent.end() - static_cast<ptrdiff_t>(take), recent.end());
        ids.erase(std::remove_if(ids.begin(), ids.end(),
                                 [&](int64_t id) { return book_[id].retired; }),
                  ids.end());
        Batch(ids, s, kHorizons[rng_.Below(std::size(kHorizons))]);
        recent.clear();
        if (hour % kScanEveryHours == 0) {
          Scan(s, kDay, kReplayScanK, hour % (4 * kScanEveryHours) == 0);
        }
        if (hour % kRetireEveryHours == 0) Retire(s);
        if (hour % kCheckpointEveryHours == 0) CheckpointCycle(s);
        if (traced_) Scrape();
        stop = stopped_;
      }
      if (stop) break;
      register_until(e.time);
      const int64_t id = e.post_id;
      if (!Ingest(id, e.type, e.time)) continue;
      last_engaged = id;
      ItemBook& b = book_[static_cast<size_t>(id)];
      if (b.recent_hour != hour) {
        b.recent_hour = hour;
        recent.push_back(id);
      }
      if (++since_probe >= kProbeEveryEvents) {
        since_probe = 0;
        PointQuery(id, e.time, kHorizons[rng_.Below(std::size(kHorizons))], nullptr);
      }
    }
    EndRound();
    if (round == 0 && resident_) service_peak_mb_ = resident_->Stop();
  }
  service_.reset();
  Finish(async_ ? "replay_async" : "replay_sync", setup_end - start_ns, result);
}

void Driver::RunQueries(uint64_t start_ns, RunResult* result) {
  const size_t n = in_.data.cascades.size();
  // Frozen stream time: the end of the posting period, so items sit at
  // staggered ages between zero and the whole period.
  const double t_now = in_.data.config.posting_period;
  book_.assign(n, ItemBook{});
  if (!options_.trace) resident_.emplace();
  const double h0 = HeapBytes();
  service_ = NewService(config_);
  // Registration is part of set-up here; a traced run traces it.
  traced_ = options_.trace;
  tracer_.set_recording(traced_);
  for (size_t i = 0; i < n; ++i) Register(static_cast<int64_t>(i), /*make_shadow=*/false);
  // Pre-load every item's events up to t_now, in chunks of whole items
  // (per-item order is all IngestBatch needs).
  size_t preloaded = 0;
  std::vector<serving::IngestEvent> chunk;
  for (size_t i = 0; i < n;) {
    chunk.clear();
    for (; i < n && chunk.size() < (1 << 16); ++i) {
      ItemBook& b = book_[i];
      for (const LoggedEvent& e : in_.logs[i]) {
        chunk.push_back({static_cast<int64_t>(i), e.type, e.time});
        ++b.sent_events;
        b.sent_views += e.type == EngagementType::kView;
      }
    }
    if (service_->IngestBatch(chunk) != chunk.size()) {
      std::fprintf(stderr, "pre-load ingest dropped events\n");
      std::exit(2);
    }
    preloaded += chunk.size();
  }
  chunk = {};
  // The live set is what survives one retirement sweep at t_now.
  (void)service_->RetireDeadItems(t_now);
  SyncRetired();
  RebuildLive();
  traced_ = false;
  bytes_per_item_ = (HeapBytes() - h0) / static_cast<double>(live_.size());
  if (options_.trace) {
    shadow_.resize(n);
    for (const int64_t id : live_) {
      auto tracker = std::make_unique<stream::CascadeTracker>(Post(id).creation_time,
                                                              model_.tracker);
      for (const LoggedEvent& e : in_.logs[static_cast<size_t>(id)]) {
        tracker->Observe(e.type, e.time);
      }
      shadow_[static_cast<size_t>(id)] = std::move(tracker);
    }
  }
  std::fprintf(stderr, "horizon_queries: %zu live items of %zu, %zu events pre-loaded\n",
               live_.size(), n, preloaded);

  const uint64_t setup_end = NowNs();
  registry_.Reset();
  deadline_ns_ = setup_end + static_cast<uint64_t>(options_.seconds * 1e9);
  // Whole blocks of kCheckpointEveryRounds rounds only, so the operation
  // mix does not depend on where the clock ran out.
  for (int round = 0;
       !stopped_ && (round % kCheckpointEveryRounds != 0 || (!TimeUp() && !RoundsDone(round)));
       ++round) {
    // Traced and untraced blocks alternate; each block ends with the
    // checkpoint cycle, so both kinds see the same mix of operations.
    BeginRound(options_.trace && (round / kCheckpointEveryRounds) % 2 == 0);
    for (size_t i = 0; i < kTricklePerRound; ++i) {
      const int64_t id = live_[rng_.Below(live_.size())];
      if (Ingest(id, EngagementType::kView, t_now)) {
        in_.logs[static_cast<size_t>(id)].push_back({t_now, EngagementType::kView});
        if (!traced_ && options_.trace) {
          shadow_[static_cast<size_t>(id)]->Observe(EngagementType::kView, t_now);
        }
      }
    }
    for (size_t i = 0; i < kProbeItemsPerRound; ++i) {
      Triple(live_[rng_.Below(live_.size())], t_now);
    }
    for (size_t b = 0; b < kBatchesPerRound; ++b) {
      std::vector<int64_t> ids(kBatchIds);
      for (int64_t& id : ids) id = live_[rng_.Below(live_.size())];
      Batch(ids, t_now, kHorizons[rng_.Below(std::size(kHorizons))]);
    }
    Scan(t_now, kDay, kQueriesScanK, round % kVerifyScanEveryRounds == 0);
    if (round % kRetireEveryRounds == kRetireEveryRounds - 1) {
      Retire(t_now);
      RebuildLive();
    }
    if (round % kCheckpointEveryRounds == kCheckpointEveryRounds - 1) {
      CheckpointCycle(t_now);
    }
    if (traced_) Scrape();
    EndRound();
    if (round == kCheckpointEveryRounds - 1 && resident_) service_peak_mb_ = resident_->Stop();
  }
  service_.reset();
  Finish("horizon_queries", setup_end - start_ns, result);
}

void Driver::AfterPhaseChecks() {
  // Bit-exact replays of a spread of recorded answers.
  const size_t step = std::max<size_t>(1, records_.size() / kMaxReplayChecks);
  if (Inject(Fault::kReplayBit) && !records_.empty()) {
    records_[0].answer.predicted = std::nextafter(records_[0].answer.predicted, 0.0);
  }
  for (size_t i = 0; i < records_.size(); i += step) {
    const Record& r = records_[i];
    CheckReplay(model_, Page(r.answer.id), Post(r.answer.id),
                in_.logs[static_cast<size_t>(r.answer.id)], r, &checks_);
  }
  // Kendall tau against the generator's ground truth.
  std::vector<double> predicted, truth;
  const size_t tau_step = std::max<size_t>(1, records_.size() / kMaxTauAnswers);
  for (size_t i = 0; i < records_.size(); i += tau_step) {
    const Answer& a = records_[i].answer;
    predicted.push_back(a.predicted - a.observed);
    truth.push_back(TrueIncrement(in_.data.cascades[static_cast<size_t>(a.id)], a.s, a.delta));
  }
  if (Inject(Fault::kTau)) {
    for (size_t i = predicted.size(); i > 1; --i) {
      std::swap(predicted[i - 1], predicted[rng_.Below(i)]);
    }
  }
  CheckTau(predicted, truth, kTauFloor, &checks_);
}

void Driver::Finish(const char* workload, uint64_t setup_ns, RunResult* result) {
  AfterPhaseChecks();
  checks_.Print();
  const std::pair<const char*, const OpStats*> all_ops[] = {
      {"register", &ops_.reg},     {"ingest", &ops_.ingest},
      {"flush", &ops_.flush},      {"point_query", &ops_.point},
      {"batch_query", &ops_.batch}, {"scan", &ops_.scan},
      {"retire", &ops_.retire},    {"checkpoint", &ops_.checkpoint},
      {"restore", &ops_.restore},  {"scrape", &ops_.scrape}};
  for (const auto& [name, op] : all_ops) {
    result->attempted += op->attempted;
    result->failed += op->failed;
    std::fprintf(stderr, "op %-12s attempted %10llu failed %4llu busy %9.3f s\n", name,
                 static_cast<unsigned long long>(op->attempted),
                 static_cast<unsigned long long>(op->failed),
                 static_cast<double>(op->busy_ns) * 1e-9);
  }
  std::fprintf(stderr, "straggler drops %llu\n",
               static_cast<unsigned long long>(straggler_drops_));
  result->correct = checks_.AllPassed() && result->failed == 0;
  result->failed_checks = checks_.Failed();

  const auto per = [](double num, uint64_t den) {
    return den ? num / static_cast<double>(den) : 0.0;
  };
  if (!options_.trace) {
    const OpStats& ing = ops_.ingest;
    result->Add("setup_s", static_cast<double>(setup_ns) * 1e-9, "s");
    result->Add("events_per_s",
                per(static_cast<double>(ing.items) * 1e9, ing.busy_ns + ops_.flush.busy_ns),
                "events/s");
    result->Add("point_queries_per_s",
                per(static_cast<double>(ops_.point.attempted) * 1e9, ops_.point.busy_ns),
                "queries/s");
    result->Add("point_query_p99_us", Percentile(point_latency_ns_, 0.99) * 1e-3, "us");
    result->Add("batch_items_per_s",
                per(static_cast<double>(ops_.batch.items) * 1e9, ops_.batch.busy_ns),
                "items/s");
    result->Add("scan_ms", per(static_cast<double>(ops_.scan.busy_ns) * 1e-6,
                               ops_.scan.attempted), "ms");
    result->Add("checkpoint_ms", per(static_cast<double>(ops_.checkpoint.busy_ns) * 1e-6,
                                     ops_.checkpoint.attempted), "ms");
    result->Add("restore_ms", per(static_cast<double>(ops_.restore.busy_ns) * 1e-6,
                                  ops_.restore.attempted), "ms");
    result->Add("checkpoint_mb", per(static_cast<double>(ops_.checkpoint.items) * 1e-6,
                                     ops_.checkpoint.attempted), "MB");
    result->Add("peak_rss_mb", service_peak_mb_, "MB");
    return;
  }

  // Per-layer metrics, from the traced rounds' spans and the counters.
  const std::vector<Tracer::Summary> spans = tracer_.Summarize();
  const auto mean = [&](SpanName name, double scale) {
    const Tracer::Summary& s = spans[static_cast<size_t>(name)];
    return s.count ? s.total_ns / static_cast<double>(s.count) * scale : 0.0;
  };
  const auto counter = [&](const char* name) {
    return static_cast<double>(registry_.GetCounter(name)->Value());
  };
  const double applied = counter("horizon_serving_events_ingested_total");
  const double commits = counter("horizon_serving_ingest_commits_total");
  const double answered = static_cast<double>(answered_items_traced_);
  result->Add("datagen.generate_s", model_.generate_s + in_.generate_s, "s");
  result->Add("core.train_s", model_.train_s, "s");
  result->Add("serving.register_us", mean(SpanName::kServingRegister, 1e-3), "us");
  result->Add("stream.observe_ns", mean(SpanName::kStreamObserve, 1), "ns");
  result->Add("serving.ingest_ns", mean(SpanName::kServingIngest, 1), "ns");
  result->Add("serving.ingest_residual_ns",
              mean(SpanName::kServingIngest, 1) - mean(SpanName::kStreamObserve, 1), "ns");
  result->Add("serving.flush_ms", mean(SpanName::kServingFlush, 1e-6), "ms");
  result->Add("serving.commits", applied > 0 ? commits / applied * 1e3 : 0.0, "1/kevent");
  result->Add("serving.events_per_commit", commits > 0 ? applied / commits : 0.0,
              "events");
  result->Add("serving.backpressure_stalls",
              applied > 0 ? counter("horizon_serving_ingest_backpressure_total") / applied * 1e6
                          : 0.0,
              "1/Mevent");
  result->Add("serving.apply_lag_p50_ms",
              registry_.GetHistogram("horizon_serving_apply_lag_seconds")->Quantile(0.5) * 1e3,
              "ms");
  result->Add("serving.straggler_drops",
              per(static_cast<double>(straggler_drops_) * 1e6,
                  ops_.ingest.items + straggler_drops_),
              "1/Mevent");
  result->Add("stream.snapshot_ns", snapshot_ns_.PerRow(), "ns");
  result->Add("features.extract_ns", extract_ns_.PerRow(), "ns");
  result->Add("serving.query_residual_ns", query_residual_ns_.Mean(), "ns");
  result->Add("gbdt.forest_ns_per_row", forest_ns_per_row_.Mean(), "ns");
  result->Add("core.transfer_ns_per_row", transfer_ns_per_row_.Mean(), "ns");
  result->Add("features.rows",
              answered > 0 ? static_cast<double>(service_features_rows_) / answered
                           : 0.0,
              "rows/item");
  result->Add("gbdt.rows",
              answered > 0 ? static_cast<double>(service_gbdt_rows_) / answered
                           : 0.0,
              "rows/item");
  result->Add("serving.scan_residual_ms", scan_residual_ms_.Mean(), "ms");
  result->Add("stream.serialize_ms", serialize_ms_.Mean(), "ms");
  result->Add("core.model_serialize_ms", model_serialize_ms_.Mean(), "ms");
  result->Add("serving.checkpoint_residual_ms", checkpoint_residual_ms_.Mean(), "ms");
  result->Add("serving.bytes_per_item", bytes_per_item_, "B");
  result->Add("serving.retire_ms", mean(SpanName::kServingRetire, 1e-6), "ms");
  result->Add("obs.scrape_us", mean(SpanName::kObsScrape, 1e-3), "us");
  const double traced_unit = per(static_cast<double>(main_busy_ns_[1]), main_ops_[1]);
  const double plain_unit = per(static_cast<double>(main_busy_ns_[0]), main_ops_[0]);
  result->Add("trace.overhead_pct",
              plain_unit > 0 ? (traced_unit / plain_unit - 1.0) * 100.0 : 0.0, "%");

  // Self time per span name, and the spans themselves.
  std::fprintf(stderr, "%-30s %10s %14s %14s\n", "span", "count", "mean_ns", "self_mean_ns");
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].count == 0) continue;
    std::fprintf(stderr, "%-30s %10llu %14.0f %14.0f\n",
                 SpanNameString(static_cast<SpanName>(i)),
                 static_cast<unsigned long long>(spans[i].count),
                 spans[i].total_ns / static_cast<double>(spans[i].count),
                 spans[i].self_ns / static_cast<double>(spans[i].count));
  }
  const std::string dir = options_.work_dir + "/traces";
  std::error_code ec;
  fs::create_directories(dir, ec);
  const std::string path =
      dir + "/" + workload + "-seed" + std::to_string(options_.seed) + ".spans";
  if (tracer_.Write(path)) {
    std::fprintf(stderr, "wrote %zu spans (%llu dropped) to %s\n", tracer_.size(),
                 static_cast<unsigned long long>(tracer_.dropped()), path.c_str());
  } else {
    std::fprintf(stderr, "could not write %s\n", path.c_str());
    result->correct = false;
  }
}

}  // namespace

const char* FaultName(Fault fault) {
  switch (fault) {
    case Fault::kNone: return "none";
    case Fault::kAnswerViews: return "answer_views";
    case Fault::kSentCount: return "sent_count";
    case Fault::kPredictedBelow: return "predicted_below_observed";
    case Fault::kAlphaRange: return "alpha_out_of_range";
    case Fault::kMonotone: return "horizons_swapped";
    case Fault::kRatio: return "increment_scaled";
    case Fault::kReplayBit: return "prediction_bit_flip";
    case Fault::kScan: return "scan_result_perturbed";
    case Fault::kCheckpointByte: return "checkpoint_byte_flip";
    case Fault::kRestoreAnswer: return "restored_answer_perturbed";
    case Fault::kTau: return "predictions_shuffled";
    case Fault::kCount: break;
  }
  return "?";
}

const char* FaultCheck(Fault fault) {
  Checks names;
  switch (fault) {
    case Fault::kAnswerViews:
    case Fault::kSentCount: return names.views.name;
    case Fault::kPredictedBelow: return names.bounds.name;
    case Fault::kAlphaRange: return names.alpha.name;
    case Fault::kMonotone: return names.monotone.name;
    case Fault::kRatio: return names.ratio.name;
    case Fault::kReplayBit: return names.replay.name;
    case Fault::kScan: return names.scan.name;
    case Fault::kCheckpointByte:
    case Fault::kRestoreAnswer: return names.restore.name;
    case Fault::kTau: return names.tau.name;
    case Fault::kNone:
    case Fault::kCount: break;
  }
  return "?";
}

void TrainModel(uint64_t seed, bool small, Model* model) {
  uint64_t t0 = NowNs();
  datagen::GeneratorConfig config;
  config.num_pages = 100;
  config.num_posts = small ? 300 : 800;
  config.base_mean_size = 120.0;
  config.seed = seed * 1000003 + 1;
  const datagen::SyntheticDataset history = datagen::Generator(config).Generate();
  uint64_t t1 = NowNs();
  model->generate_s = static_cast<double>(t1 - t0) * 1e-9;
  std::vector<size_t> all(history.cascades.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  core::ExampleSetOptions options;
  options.reference_horizons = {6 * kHour, 1 * kDay};
  options.seed = seed + 7;
  const core::ExampleSet examples =
      core::BuildExampleSet(history, all, model->extractor, options);
  core::HawkesPredictorParams params;
  params.reference_horizons = options.reference_horizons;
  model->predictor = core::HawkesPredictor(params);
  model->predictor.Fit(examples.x, examples.log1p_increments, examples.alpha_targets);
  model->train_s = static_cast<double>(NowNs() - t1) * 1e-9;
}

bool RunWorkload(const Options& options, const Model& model, uint64_t start_ns,
                 RunResult* result) {
  g_fault = options.fault;
  datagen::GeneratorConfig config;
  config.num_pages = 400;
  config.seed = options.seed * 7919 + 3;
  const bool replay =
      options.workload == "replay_sync" || options.workload == "replay_async";
  if (!replay && options.workload != "horizon_queries") return false;
  Inputs inputs;
  if (replay) {
    // Two weeks of platform time: a week of posting, each item followed
    // for a week after creation.
    config.num_posts = options.small ? 300 : 2500;
    config.base_mean_size = 150.0;
    config.posting_period = 7 * kDay;
    inputs = Generate(config, 7 * kDay, 1e300, /*keep_stream=*/true);
  } else {
    // Items created over two days, followed for ten: enough ground truth
    // for a 7-day horizon from the end of the posting period.
    config.num_posts = options.small ? 1500 : 20000;
    config.base_mean_size = 40.0;
    config.posting_period = 2 * kDay;
    config.tracking_window = 10 * kDay;
    inputs = Generate(config, 1e300, config.posting_period, /*keep_stream=*/false);
  }
  size_t events = 0;
  for (const auto& log : inputs.logs) events += log.size();
  std::fprintf(stderr, "%s: %zu items, %zu events\n", options.workload.c_str(),
               inputs.data.cascades.size(), events);
  Driver driver(options, model, std::move(inputs), options.workload == "replay_async");
  if (replay) {
    driver.RunReplay(start_ns, result);
  } else {
    driver.RunQueries(start_ns, result);
  }
  return true;
}

}  // namespace perfbench
