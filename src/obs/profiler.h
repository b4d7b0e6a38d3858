// Hierarchical span profiler: RAII ScopedSpan timers that nest, aggregate
// per-label, and export an aggregate JSON report plus a
// chrome://tracing-compatible event file.
//
// Usage:
//
//   void MatMulKernel(...) {
//     MSD_SPAN("tensor/matmul");
//     ...
//   }
//
// Semantics:
//  * Spans nest per-thread: a span opened while another is active becomes its
//    child. Per-label aggregates track count, total (inclusive) time,
//    self time (total minus direct children), min and max.
//  * Self-time accounting is exact: each closing span adds its inclusive
//    duration to its parent's child-time accumulator.
//  * Recording is also runtime-toggleable (Profiler::SetEnabled); a disabled
//    profiler costs one relaxed atomic load per span.
//  * The trace-event buffer is capped (SetTraceCapacity); once full, further
//    events only update aggregates and `dropped_events` counts them.
//  * Aggregation is per-thread: each recording thread owns its own
//    label->stats map behind an uncontended mutex, so pool workers
//    (src/runtime/) never serialize on a global lock. Readers merge the
//    per-thread maps label-by-label with commutative combines (sum/min/max),
//    so the merged aggregates are deterministic regardless of which worker
//    executed which span. Trace events stay in one global capped buffer;
//    their order reflects actual execution and is not deterministic across
//    runs with MSD_THREADS > 1.
//
// Label taxonomy ("subsystem/operation", e.g. "tensor/matmul",
// "train/epoch") is documented in docs/OBSERVABILITY.md.
#ifndef MSDMIXER_OBS_PROFILER_H_
#define MSDMIXER_OBS_PROFILER_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace msd {
namespace obs {

// Monotonic clock in nanoseconds (steady across the process).
int64_t MonotonicNowNs();

struct SpanStats {
  int64_t count = 0;
  int64_t total_ns = 0;  // inclusive (span + children)
  int64_t self_ns = 0;   // exclusive (span minus direct children)
  int64_t min_ns = std::numeric_limits<int64_t>::max();
  int64_t max_ns = 0;
};

class Profiler {
 public:
  static Profiler& Global();

  Profiler() = default;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  // Max buffered trace events (default 65536). 0 keeps aggregates only.
  void SetTraceCapacity(int64_t max_events);

  // Clears aggregates and the trace buffer; keeps enabled/capacity settings.
  // Per-thread maps are invalidated lazily via an epoch bump — safe to call
  // while worker threads exist, as long as no span is concurrently open.
  void Reset();

  // Deterministic merge of every thread's aggregates (see header comment).
  std::map<std::string, SpanStats> Aggregates() const;
  int64_t dropped_events() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  // {"label": {"count": n, "total_ms": t, "self_ms": s,
  //            "min_ms": lo, "max_ms": hi}, ...} sorted by label.
  std::string AggregateReportJson() const;

  // chrome://tracing / Perfetto "traceEvents" JSON ("X" complete events).
  std::string ChromeTraceJson() const;
  bool WriteChromeTrace(const std::string& path) const;

  // Internal API used by ScopedSpan; `start/end` from MonotonicNowNs.
  void RecordSpan(const char* label, int64_t start_ns, int64_t end_ns,
                  int64_t child_ns, int32_t tid);

 private:
  struct TraceEvent {
    const char* label;  // string literals from call sites; never freed
    int32_t tid;
    int64_t start_ns;
    int64_t dur_ns;
  };

  // One recording thread's aggregates. Owned jointly by that thread's
  // thread_local slot and the profiler's registry, so stats survive thread
  // exit. `epoch` lags the profiler's reset epoch; a stale map is cleared on
  // the owner's next record and skipped by readers.
  struct ThreadAgg {
    std::mutex mu;  // owner writes, readers merge: rarely contended
    std::map<std::string, SpanStats> aggregates;
    int64_t epoch = 0;
  };

  // The calling thread's aggregation slot, registered on first use.
  ThreadAgg& LocalAgg();

  std::atomic<bool> enabled_{true};
  std::atomic<int64_t> dropped_{0};
  std::atomic<int64_t> epoch_{0};
  // Fast-path hint that the event buffer has room, so spans recorded after
  // the buffer fills (or with capacity 0) skip the global lock entirely.
  std::atomic<bool> events_space_{true};
  mutable std::mutex mu_;  // guards threads_, events_, capacity_
  std::vector<std::shared_ptr<ThreadAgg>> threads_;
  std::vector<TraceEvent> events_;
  int64_t capacity_ = 65536;
};

class ScopedSpan {
 public:
  // `label` must outlive the profiler (use string literals).
  explicit ScopedSpan(const char* label);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* label_;
  ScopedSpan* parent_;
  int64_t start_ns_;
  int64_t child_ns_ = 0;
  bool active_;
};

#define MSD_SPAN_CONCAT_INNER(a, b) a##b
#define MSD_SPAN_CONCAT(a, b) MSD_SPAN_CONCAT_INNER(a, b)
#define MSD_SPAN(label) \
  ::msd::obs::ScopedSpan MSD_SPAN_CONCAT(msd_span_, __COUNTER__)(label)

}  // namespace obs
}  // namespace msd

#endif  // MSDMIXER_OBS_PROFILER_H_
