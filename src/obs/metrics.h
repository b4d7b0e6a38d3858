// Process-wide metrics registry: named counters, gauges, and fixed-bucket
// histograms with a JSON snapshot export.
//
// Design:
//  * Instruments are created once (under a registry mutex) and then updated
//    with relaxed atomics only — call sites cache the returned reference in a
//    function-local static so the hot path is a single atomic add:
//
//      static obs::Counter& calls =
//          obs::MetricsRegistry::Global().GetCounter("tensor/matmul_calls");
//      calls.Add(1);
//
//  * Instrument references remain valid for the life of the process;
//    ResetAll() zeroes values but never invalidates handles.
//  * Names follow the slash taxonomy documented in docs/OBSERVABILITY.md
//    (e.g. "tensor/alloc_bytes", "train/epochs").
#ifndef MSDMIXER_OBS_METRICS_H_
#define MSDMIXER_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace msd {
namespace obs {

// Monotonically increasing integer (events, bytes, flops).
class Counter {
 public:
  void Add(int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Last-write-wins floating-point level (current LR, tape depth, ...).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  // Keeps the maximum of the current value and `v`. Race-free under
  // concurrent callers: a CAS loop re-reads the current value on every
  // failed exchange, so no writer can overwrite a larger concurrent value
  // (tests/obs_test.cc hammers this from 8 threads).
  void SetMax(double v);
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Fixed-bucket histogram. Bucket i counts observations <= upper_bounds[i];
// one implicit overflow bucket counts the rest. Not movable: lives in the
// registry behind a unique_ptr.
class Histogram {
 public:
  // `upper_bounds` must be strictly increasing and non-empty.
  explicit Histogram(std::vector<double> upper_bounds);

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double v);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& upper_bounds() const { return bounds_; }
  // bounds_.size() + 1 entries; last is the overflow bucket.
  std::vector<int64_t> BucketCounts() const;

  // Estimated value at quantile q in [0, 1] from the bucket counts
  // (Prometheus-style linear interpolation inside the covering bucket).
  // Returns 0 on an empty histogram; quantiles that land in the overflow
  // bucket clamp to the largest finite bound. Accuracy is one bucket width,
  // so latency histograms use log-spaced bounds (LogSpacedBounds) fine
  // enough for <10% quantile error.
  double ValueAtQuantile(double q) const;

  void Reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<int64_t>[]> buckets_;
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// Quantile estimate shared by Histogram::ValueAtQuantile and anything that
// holds bucket counts of its own (snapshot JSON, a bucket-count delta):
// `counts` has one entry per bound plus the trailing overflow bucket,
// exactly as BucketCounts() and the snapshot "buckets" array lay them out.
double QuantileFromBuckets(const std::vector<double>& bounds,
                           const std::vector<int64_t>& counts, double q);

// Log-spaced bucket bounds for latency histograms: `per_decade` bounds per
// power of ten, from `lo` up to and including the first bound >= `hi`.
// With per_decade=32 adjacent bounds differ by ~7.5%, keeping interpolated
// p50/p95/p99 within a few percent of the exact order statistics.
std::vector<double> LogSpacedBounds(double lo, double hi, int per_decade);

class MetricsRegistry {
 public:
  // The process-wide instance every instrumented call site uses.
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Find-or-create; the returned reference is stable forever.
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  // Fatal if `name` already exists with different bounds.
  Histogram& GetHistogram(const std::string& name,
                          std::vector<double> upper_bounds);

  // Zeroes every instrument (handles stay valid). For bench/test isolation.
  void ResetAll();

  // Snapshot of all instruments as a JSON object:
  //   {"counters": {name: int, ...},
  //    "gauges": {name: double, ...},
  //    "histograms": {name: {"count": n, "sum": s,
  //                          "buckets": [{"le": bound, "count": n}, ...]}}}
  // The overflow bucket is emitted with "le": "inf".
  std::string ToJson() const;

  // Writes ToJson() to `path`; returns false on I/O failure.
  bool WriteJsonFile(const std::string& path) const;

 private:
  mutable std::mutex mu_;  // guards the maps, not the instrument values
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace obs
}  // namespace msd

#endif  // MSDMIXER_OBS_METRICS_H_
