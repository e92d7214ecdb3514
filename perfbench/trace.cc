#include "trace.h"

#include <cstdio>

#include "bench.h"

namespace perfbench {

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kReqEvent: return "req.event";
    case SpanName::kReqPointQuery: return "req.point_query";
    case SpanName::kReqBatch: return "req.batch_query";
    case SpanName::kReqScan: return "req.scan";
    case SpanName::kReqCheckpoint: return "req.checkpoint";
    case SpanName::kReqRestore: return "req.restore";
    case SpanName::kReqRetire: return "req.retire";
    case SpanName::kReqFlush: return "req.flush";
    case SpanName::kReqRegister: return "req.register";
    case SpanName::kReqScrape: return "req.scrape";
    case SpanName::kServingIngest: return "serving.Ingest";
    case SpanName::kServingQuery: return "serving.Query";
    case SpanName::kServingBatchQuery: return "serving.BatchQuery";
    case SpanName::kServingScan: return "serving.BatchQuery[scan]";
    case SpanName::kServingCheckpoint: return "serving.Checkpoint";
    case SpanName::kServingRestore: return "serving.Restore";
    case SpanName::kServingRetire: return "serving.RetireDeadItems";
    case SpanName::kServingFlush: return "serving.Flush";
    case SpanName::kServingRegister: return "serving.RegisterItem";
    case SpanName::kObsScrape: return "obs.DumpPrometheus";
    case SpanName::kStreamObserve: return "stream.Observe";
    case SpanName::kStreamSnapshot: return "stream.Snapshot";
    case SpanName::kStreamSerialize: return "stream.Serialize";
    case SpanName::kFeaturesExtract: return "features.ExtractIntoStrided";
    case SpanName::kGbdtPredictBatch: return "gbdt.PredictBatch";
    case SpanName::kCorePredictCountBatch: return "core.PredictCountBatch";
    case SpanName::kCorePredictIncrementBatch: return "core.PredictIncrementBatch";
    case SpanName::kCoreSerialize: return "core.Serialize";
    case SpanName::kCount: break;
  }
  return "?";
}

Tracer::Tracer(bool enabled, size_t capacity)
    : enabled_(enabled), capacity_(capacity) {
  if (enabled_) spans_.reserve(capacity_);
}

uint32_t Tracer::Open(SpanName name, uint32_t parent, uint64_t request) {
  if (!enabled_ || !recording_) return kNoParent;
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return kNoParent;
  }
  spans_.push_back({NowNs(), 0, request, parent, name});
  return static_cast<uint32_t>(spans_.size() - 1);
}

void Tracer::Close(uint32_t id) {
  if (id != kNoParent) spans_[id].end_ns = NowNs();
}

void Tracer::Add(SpanName name, uint32_t parent, uint64_t request,
                 uint64_t start_ns, uint64_t end_ns) {
  if (!enabled_ || !recording_) return;
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  spans_.push_back({start_ns, end_ns, request, parent, name});
}

std::vector<Tracer::Summary> Tracer::Summarize() const {
  std::vector<Summary> out(static_cast<size_t>(SpanName::kCount));
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) {
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Summary& sum = out[static_cast<size_t>(s.name)];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    ++sum.count;
    sum.total_ns += dur;
    sum.self_ns += dur - child_ns[i];
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# id parent request name start_ns end_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu %lld %llu %s %llu %llu\n", i,
                 s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 SpanNameString(s.name),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
