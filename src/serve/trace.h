// Request-level trace propagation for the serving stack (docs/SERVING.md,
// docs/OBSERVABILITY.md).
//
// A TraceContext is minted once per request at an admission point —
// MicroBatcher::SubmitAsync (the ModelService path) or a direct
// InferenceSession::PredictBatch call — and carried with the request through
// the batching pipeline, so every reply decomposes into
//
//   queue-wait       enqueue  -> dequeue        (serve/queue_us)
//   batch assembly   dequeue  -> compute_start  (serve/batch_assembly_us)
//   compute          compute_start -> compute_end (serve/compute_us)
//   end-to-end       enqueue  -> reply resolved (serve/e2e_us)
//
// recorded into log-spaced microsecond histograms the server reads back as
// p50/p95/p99 via Histogram::ValueAtQuantile (the `STATS` admin command and
// the telemetry snapshots).
//
// Sampled requests (1-in-N, obs::TraceRing::Sampled) additionally push one
// obs::TraceSpan per phase into the global trace ring, dumped on demand as
// chrome://tracing JSON by the `TRACE <path>` admin command.
//
// Everything here is hot-path instrumentation: minting is one relaxed
// fetch_add, instrument handles are created once and cached (function-local
// static), and all updates are relaxed atomics — no locks are added to
// SubmitAsync/PredictBatch beyond the ones they already hold.
#ifndef MSDMIXER_SERVE_TRACE_H_
#define MSDMIXER_SERVE_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "obs/ring.h"

namespace msd {
namespace serve {

using ServeClock = std::chrono::steady_clock;

// Per-request trace state. Timestamps are filled in as the request moves
// through the pipeline; a default-constructed time_point means "not reached".
struct TraceContext {
  int64_t request_id = 0;
  // Decided once at admission from TraceRing's 1-in-N rate.
  bool sampled = false;
  ServeClock::time_point enqueue{};
  ServeClock::time_point dequeue{};        // taken off the queue by a worker
  ServeClock::time_point compute_start{};  // model forward entered
  ServeClock::time_point compute_end{};    // model forward returned
};

// Process-wide monotonic request id (0, 1, 2, ...).
inline int64_t NextRequestId() {
  static std::atomic<int64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

// Mints the context for a request admitted now.
inline TraceContext MintTraceContext() {
  TraceContext ctx;
  ctx.request_id = NextRequestId();
  ctx.sampled = obs::TraceRing::Global().Sampled(ctx.request_id);
  ctx.enqueue = ServeClock::now();
  return ctx;
}

inline int64_t ToMicros(ServeClock::duration d) {
  return std::chrono::duration_cast<std::chrono::microseconds>(d).count();
}

// Microseconds since the steady-clock epoch: the shared time base of every
// span in the trace ring's chrome://tracing dump.
inline int64_t TimePointUs(ServeClock::time_point t) {
  return ToMicros(t.time_since_epoch());
}

// Log-spaced microsecond buckets for the serve latency histograms: 48 per
// decade over [1us, 10s] keeps adjacent bounds ~4.9% apart, so an
// interpolated quantile is within ~5% of the exact order statistic.
inline std::vector<double> LatencyBoundsUs() {
  return obs::LogSpacedBounds(1.0, 1e7, 48);
}

// Shared serve/* instrument handles: find-or-create once, relaxed atomic
// updates afterwards (docs/OBSERVABILITY.md taxonomy).
struct ServeInstruments {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter& requests = registry.GetCounter("serve/requests_total");
  obs::Counter& rejected = registry.GetCounter("serve/rejected_total");
  obs::Counter& batches = registry.GetCounter("serve/batches_total");
  obs::Gauge& queue_depth = registry.GetGauge("serve/queue_depth");
  obs::Gauge& queue_depth_peak = registry.GetGauge("serve/queue_depth_peak");
  obs::Histogram& batch_size = registry.GetHistogram(
      "serve/batch_size", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
  obs::Histogram& queue_us =
      registry.GetHistogram("serve/queue_us", LatencyBoundsUs());
  obs::Histogram& batch_assembly_us =
      registry.GetHistogram("serve/batch_assembly_us", LatencyBoundsUs());
  obs::Histogram& compute_us =
      registry.GetHistogram("serve/compute_us", LatencyBoundsUs());
  obs::Histogram& e2e_us =
      registry.GetHistogram("serve/e2e_us", LatencyBoundsUs());
};

// msd-hot-path-safe: once-only registration; the leaked singleton caches
// every counter reference so steady-state use is a static pointer read.
inline ServeInstruments& Instruments() {
  static ServeInstruments* instruments = new ServeInstruments();
  return *instruments;
}

// Pushes the queue / batch_assembly / compute spans of one completed sampled
// request into the global trace ring.
inline void PushRequestSpans(const TraceContext& ctx) {
  obs::TraceRing& ring = obs::TraceRing::Global();
  ring.Push({ctx.request_id, "queue", TimePointUs(ctx.enqueue),
             ToMicros(ctx.dequeue - ctx.enqueue)});
  ring.Push({ctx.request_id, "batch_assembly", TimePointUs(ctx.dequeue),
             ToMicros(ctx.compute_start - ctx.dequeue)});
  ring.Push({ctx.request_id, "compute", TimePointUs(ctx.compute_start),
             ToMicros(ctx.compute_end - ctx.compute_start)});
}

}  // namespace serve
}  // namespace msd

#endif  // MSDMIXER_SERVE_TRACE_H_
