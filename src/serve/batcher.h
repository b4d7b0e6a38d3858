// Dynamic micro-batching request engine (docs/SERVING.md).
//
// Requests enter a bounded MPMC queue; dedicated worker threads
// (runtime::WorkerGroup) coalesce pending requests into a batch when either
// `max_batch` requests are waiting or the oldest request has waited
// `max_delay_us`, then run one InferenceSession::PredictBatch and resolve
// each request's completion callback with its own row. SubmitAsync is the
// only way in, so no thread is parked per in-flight request (the epoll
// front-end in serve/netio.h); a caller that wants to wait blocks on a
// promise its callback fulfils.
//
// Policies:
//  * Admission control: SubmitAsync() on a full queue fails fast with
//    kResourceExhausted — callers get backpressure, requests are never
//    dropped on the floor.
//  * Timeout: a request that is still queued past its deadline resolves
//    with kDeadlineExceeded at dequeue time (it never occupies batch space).
//  * Cancellation: Stop() drains the queue and resolves every pending
//    request with kCancelled before joining the workers; no callback is
//    ever left unfired.
//
// This file is serving hot-path code: the repo lint rule
// no-blocking-io-in-serve-hot-path forbids file/stdio calls anywhere in
// src/serve so a batch cycle stays compute-only.
//
// Telemetry (docs/OBSERVABILITY.md taxonomy, serve/trace.h handles): every
// request carries a TraceContext minted at SubmitAsync(), so each reply is
// decomposed into the serve/queue_us, serve/batch_assembly_us,
// serve/compute_us and serve/e2e_us histograms; counters
// serve/requests_total, serve/rejected_total, serve/timeouts_total,
// serve/deadline_miss, serve/batches_total; gauges serve/queue_depth,
// serve/queue_depth_peak, serve/inflight; histogram serve/batch_size.
// Sampled requests push per-phase spans into obs::TraceRing.
#ifndef MSDMIXER_SERVE_BATCHER_H_
#define MSDMIXER_SERVE_BATCHER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>

#include "common/status.h"
#include "runtime/worker.h"
#include "serve/session.h"
#include "serve/trace.h"

namespace msd {
namespace serve {

struct MicroBatcherConfig {
  // Coalescing window: a batch closes at `max_batch` requests or when the
  // oldest member has waited `max_delay_us`, whichever comes first.
  // (Clamped to the session's max_batch.)
  int64_t max_batch = 8;
  int64_t max_delay_us = 2000;
  // Bounded queue; SubmitAsync() beyond this rejects with
  // kResourceExhausted.
  int64_t queue_capacity = 64;
  // Dedicated batch-assembly threads. One is enough to saturate the GEMM
  // engine (PredictBatch fans out over the MSD_THREADS pool); a second
  // overlaps batch assembly with compute.
  int64_t num_workers = 1;
};

// Completion for SubmitAsync: invoked exactly once per admitted request,
// on a batcher worker thread (success, inference error, deadline) or on the
// Stop()ing thread (kCancelled). Must not block — the epoll front-end's
// completions only move the formatted reply onto a wake queue.
using ResultCallback = std::function<void(StatusOr<Tensor>)>;

class MicroBatcher {
 public:
  // `session` must outlive the batcher.
  MicroBatcher(InferenceSession* session, const MicroBatcherConfig& config);
  ~MicroBatcher();  // Stop()s if still running.

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  // Spawns the worker threads. SubmitAsync() before Start() is allowed —
  // requests queue up (subject to capacity) and are served once workers
  // exist.
  void Start();

  // Drains the queue (pending requests resolve with kCancelled), joins the
  // workers. Idempotent.
  void Stop();

  // Enqueues one window ([channels, length]). On OK, `done` fires exactly
  // once with the per-request output or an error produced later in the
  // cycle. A non-OK return means the request was NOT admitted and `done`
  // will never fire: kResourceExhausted when the queue is full, kCancelled
  // after Stop(), kInvalidArgument on bad shape. A request still queued
  // `timeout_us` after admission resolves kDeadlineExceeded; timeout_us <= 0
  // means no deadline.
  Status SubmitAsync(Tensor window, ResultCallback done,
                     int64_t timeout_us = 0);

  int64_t queue_depth() const;
  const MicroBatcherConfig& config() const { return config_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Request {
    Tensor input;
    // Fired exactly once with the request's outcome.
    ResultCallback done;
    // Carries request id, sampling bit and the enqueue/dequeue/compute
    // timestamps; trace.enqueue doubles as the admission time the deadline
    // and coalescing window are derived from.
    TraceContext trace;
    // time_point::max() when the request has no deadline.
    Clock::time_point deadline;
  };

  void WorkerLoop();
  // Resolves every member of `batch`: expired requests with
  // kDeadlineExceeded, the rest with rows of one PredictBatch call.
  void ProcessBatch(std::vector<Request> batch);
  // One request left the pipeline (resolved, any status).
  void DecInflight();

  InferenceSession* session_;
  MicroBatcherConfig config_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Request> queue_;
  bool started_ = false;
  bool stopped_ = false;
  // Admitted-but-unresolved requests, mirrored to the serve/inflight gauge.
  std::atomic<int64_t> inflight_{0};
  runtime::WorkerGroup workers_;
};

}  // namespace serve
}  // namespace msd

#endif  // MSDMIXER_SERVE_BATCHER_H_
