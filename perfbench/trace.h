// In-memory span recorder for the traced run.  A span is a name, a start,
// an end, a parent span and a request id; spans are kept in a preallocated
// buffer and written out once, when the run ends.  A layer's self time is
// its span's duration minus the time its child spans cover.
#ifndef HORIZON_PERFBENCH_TRACE_H_
#define HORIZON_PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Span names.  req.* spans wrap one load-generator request; the others
/// wrap one call into a module's public API, named module.Function.
enum class SpanName : uint16_t {
  kReqEvent,
  kReqPointQuery,
  kReqBatch,
  kReqScan,
  kReqCheckpoint,
  kReqRestore,
  kReqRetire,
  kReqFlush,
  kReqRegister,
  kReqScrape,
  kServingIngest,
  kServingQuery,
  kServingBatchQuery,
  kServingScan,
  kServingCheckpoint,
  kServingRestore,
  kServingRetire,
  kServingFlush,
  kServingRegister,
  kObsScrape,
  kStreamObserve,
  kStreamSnapshot,
  kStreamSerialize,
  kFeaturesExtract,
  kGbdtPredictBatch,
  kCorePredictCountBatch,
  kCorePredictIncrementBatch,
  kCoreSerialize,
  kCount,
};
const char* SpanNameString(SpanName name);

class Tracer {
 public:
  static constexpr uint32_t kNoParent = UINT32_MAX;

  /// A disabled tracer records nothing and costs one branch per call.
  Tracer(bool enabled, size_t capacity);

  /// Spans are kept only while recording; a traced run records in its
  /// traced rounds and not in the rounds it compares them against.
  void set_recording(bool recording) { recording_ = recording; }

  /// Opens a span now; returns its id (kNoParent when not recorded).
  uint32_t Open(SpanName name, uint32_t parent, uint64_t request);
  void Close(uint32_t id);
  /// Records an already-timed span.
  void Add(SpanName name, uint32_t parent, uint64_t request, uint64_t start_ns,
           uint64_t end_ns);

  /// Per-name count, total duration and self time, from the spans alone.
  struct Summary {
    uint64_t count = 0;
    double total_ns = 0;
    double self_ns = 0;
  };
  std::vector<Summary> Summarize() const;

  /// Writes one span per line: id parent request name start_ns end_ns.
  bool Write(const std::string& path) const;

  size_t size() const { return spans_.size(); }
  uint64_t dropped() const { return dropped_; }

 private:
  struct Span {
    uint64_t start_ns;
    uint64_t end_ns;
    uint64_t request;
    uint32_t parent;
    SpanName name;
  };
  bool enabled_;
  bool recording_ = true;
  size_t capacity_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

}  // namespace perfbench

#endif  // HORIZON_PERFBENCH_TRACE_H_
