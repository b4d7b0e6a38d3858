// Dynamic micro-batching request engine (docs/SERVING.md).
//
// Requests enter a bounded MPMC queue; one dedicated worker thread
// (runtime::WorkerGroup) coalesces pending requests into a batch when either
// `max_batch` requests are waiting or the oldest request has waited
// `max_delay_us`, then runs one InferenceSession::PredictBatch and resolves
// each request's completion callback with its own row. SubmitAsync is the
// only way in, so no thread is parked per in-flight request (the epoll
// front-end in serve/netio.h); a caller that wants to wait blocks on a
// promise its callback fulfils.
//
// Policies:
//  * Admission control: the bounded queue is the only admission rule.
//    SubmitAsync() on a full queue fails fast with kResourceExhausted —
//    callers get backpressure, requests are never dropped on the floor.
//  * Cancellation: Stop() drains the queue and resolves every pending
//    request with kCancelled before joining the worker; no callback is
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
// serve/requests_total, serve/rejected_total, serve/batches_total; gauges
// serve/queue_depth, serve/queue_depth_peak; histogram serve/batch_size.
// Sampled requests push per-phase spans into obs::TraceRing.
#ifndef MSDMIXER_SERVE_BATCHER_H_
#define MSDMIXER_SERVE_BATCHER_H_

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
};

// Completion for SubmitAsync: invoked exactly once per admitted request,
// on the batcher's worker thread (success, inference error) or on the
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

  // Spawns the worker thread. One is all a session can use: PredictBatch
  // serializes on the session mutex and fans out over the MSD_THREADS
  // pool. SubmitAsync() before Start() is allowed — requests queue up
  // (subject to capacity) and are served once the worker exists.
  void Start();

  // Drains the queue (pending requests resolve with kCancelled), joins the
  // worker. Idempotent.
  void Stop();

  // Enqueues one window ([channels, length]). On OK, `done` fires exactly
  // once with the per-request output or an error produced later in the
  // cycle. A non-OK return means the request was NOT admitted and `done`
  // will never fire: kResourceExhausted when the queue is full, kCancelled
  // after Stop(), kInvalidArgument on bad shape.
  Status SubmitAsync(Tensor window, ResultCallback done);

 private:
  using Clock = std::chrono::steady_clock;

  struct Request {
    Tensor input;
    // Fired exactly once with the request's outcome.
    ResultCallback done;
    // Carries request id, sampling bit and the enqueue/dequeue/compute
    // timestamps; trace.enqueue doubles as the admission time the
    // coalescing window is derived from.
    TraceContext trace;
  };

  void WorkerLoop();
  // Resolves every member of `batch` with its row of one PredictBatch call.
  void ProcessBatch(std::vector<Request> batch);

  InferenceSession* session_;
  MicroBatcherConfig config_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Request> queue_;
  bool started_ = false;
  bool stopped_ = false;
  runtime::WorkerGroup worker_;
};

}  // namespace serve
}  // namespace msd

#endif  // MSDMIXER_SERVE_BATCHER_H_
