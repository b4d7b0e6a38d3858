#include "obs/profiler.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>

namespace msd {
namespace obs {

namespace {

// Stack top of the calling thread's open spans (for nesting / self-time).
thread_local ScopedSpan* g_span_top = nullptr;

// Small sequential ids instead of std::thread::id: stable, compact, and what
// chrome://tracing expects in the "tid" field.
int32_t ThisThreadId() {
  static std::atomic<int32_t> next{0};
  thread_local int32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

std::string MsToJson(int64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6f", static_cast<double>(ns) / 1e6);
  return buf;
}

}  // namespace

int64_t MonotonicNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// msd-hot-path-safe: once-only lazy init; steady state is a pointer read.
Profiler& Profiler::Global() {
  static Profiler* profiler = new Profiler();  // never destroyed
  return *profiler;
}

void Profiler::SetTraceCapacity(int64_t max_events) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = std::max<int64_t>(0, max_events);
  if (static_cast<int64_t>(events_.size()) > capacity_) {
    events_.resize(static_cast<size_t>(capacity_));
  }
  events_space_.store(static_cast<int64_t>(events_.size()) < capacity_,
                      std::memory_order_relaxed);
}

void Profiler::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  // Per-thread maps are cleared lazily: bumping the epoch marks them stale,
  // the owning thread clears on its next record, and readers skip them.
  epoch_.fetch_add(1, std::memory_order_relaxed);
  events_.clear();
  dropped_.store(0, std::memory_order_relaxed);
  events_space_.store(capacity_ > 0, std::memory_order_relaxed);
}

Profiler::ThreadAgg& Profiler::LocalAgg() {
  // Per-(thread, profiler) slots. The registry holds a shared_ptr too, so a
  // thread's stats outlive the thread. Instances are effectively the leaked
  // Global() in production; a destroyed local Profiler leaves a dead slot
  // behind, which only costs a pointer compare.
  thread_local std::vector<std::pair<Profiler*, std::shared_ptr<ThreadAgg>>>
      slots;
  for (auto& [profiler, agg] : slots) {
    if (profiler == this) return *agg;
  }
  auto agg = std::make_shared<ThreadAgg>();
  agg->epoch = epoch_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.push_back(agg);
  }
  slots.emplace_back(this, agg);
  return *agg;
}

void Profiler::RecordSpan(const char* label, int64_t start_ns, int64_t end_ns,
                          int64_t child_ns, int32_t tid) {
  const int64_t dur = end_ns - start_ns;
  ThreadAgg& agg = LocalAgg();
  {
    // Uncontended in steady state: only merges from reader threads compete.
    std::lock_guard<std::mutex> lock(agg.mu);
    const int64_t epoch = epoch_.load(std::memory_order_relaxed);
    if (agg.epoch != epoch) {
      agg.aggregates.clear();
      agg.epoch = epoch;
    }
    SpanStats& s = agg.aggregates[label];
    s.count += 1;
    s.total_ns += dur;
    s.self_ns += dur - child_ns;
    s.min_ns = std::min(s.min_ns, dur);
    s.max_ns = std::max(s.max_ns, dur);
  }
  if (!events_space_.load(std::memory_order_relaxed)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (static_cast<int64_t>(events_.size()) < capacity_) {
    events_.push_back(TraceEvent{label, tid, start_ns, dur});
    if (static_cast<int64_t>(events_.size()) >= capacity_) {
      events_space_.store(false, std::memory_order_relaxed);
    }
  } else {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::map<std::string, SpanStats> Profiler::Aggregates() const {
  // Deterministic merge: per-label sums, min, and max all commute, so the
  // result does not depend on thread registration order or which worker ran
  // which span.
  const int64_t epoch = epoch_.load(std::memory_order_relaxed);
  std::vector<std::shared_ptr<ThreadAgg>> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    threads = threads_;
  }
  std::map<std::string, SpanStats> merged;
  for (const auto& agg : threads) {
    std::lock_guard<std::mutex> lock(agg->mu);
    if (agg->epoch != epoch) continue;  // stale: predates the last Reset
    for (const auto& [label, s] : agg->aggregates) {
      SpanStats& m = merged[label];
      m.count += s.count;
      m.total_ns += s.total_ns;
      m.self_ns += s.self_ns;
      m.min_ns = std::min(m.min_ns, s.min_ns);
      m.max_ns = std::max(m.max_ns, s.max_ns);
    }
  }
  return merged;
}

std::string Profiler::AggregateReportJson() const {
  const std::map<std::string, SpanStats> aggregates = Aggregates();
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [label, s] : aggregates) {
    if (!first) out << ",";
    first = false;
    out << "\"" << label << "\":{\"count\":" << s.count
        << ",\"total_ms\":" << MsToJson(s.total_ns)
        << ",\"self_ms\":" << MsToJson(s.self_ns)
        << ",\"min_ms\":" << MsToJson(s.count > 0 ? s.min_ns : 0)
        << ",\"max_ms\":" << MsToJson(s.max_ns) << "}";
  }
  out << "}";
  return out.str();
}

std::string Profiler::ChromeTraceJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  // "X" (complete) events: viewers infer nesting from ts/dur per tid, so the
  // exact self-time structure shows up as stacked slices.
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < events_.size(); ++i) {
    const TraceEvent& e = events_[i];
    if (i > 0) out << ",";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(e.start_ns) / 1e3);
    out << "{\"name\":\"" << e.label << "\",\"ph\":\"X\",\"ts\":" << buf;
    std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(e.dur_ns) / 1e3);
    out << ",\"dur\":" << buf << ",\"pid\":1,\"tid\":" << e.tid << "}";
  }
  out << "],\"displayTimeUnit\":\"ms\"}";
  return out.str();
}

bool Profiler::WriteChromeTrace(const std::string& path) const {
  const std::string json = ChromeTraceJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  return std::fclose(f) == 0 && written == json.size();
}

ScopedSpan::ScopedSpan(const char* label)
    : label_(label),
      parent_(nullptr),
      start_ns_(0),
      active_(Profiler::Global().enabled()) {
  if (!active_) return;
  parent_ = g_span_top;
  g_span_top = this;
  start_ns_ = MonotonicNowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  const int64_t end_ns = MonotonicNowNs();
  g_span_top = parent_;
  if (parent_ != nullptr) parent_->child_ns_ += end_ns - start_ns_;
  Profiler::Global().RecordSpan(label_, start_ns_, end_ns, child_ns_,
                                ThisThreadId());
}

}  // namespace obs
}  // namespace msd
