#include "serve/batcher.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "tensor/tensor_ops.h"

namespace msd {
namespace serve {

MicroBatcher::MicroBatcher(InferenceSession* session,
                           const MicroBatcherConfig& config)
    : session_(session), config_(config) {
  MSD_CHECK(session != nullptr);
  MSD_CHECK_GE(config_.max_batch, 1);
  MSD_CHECK_GE(config_.queue_capacity, 1);
  MSD_CHECK_GE(config_.max_delay_us, 0);
  // A batch can never exceed what one PredictBatch call accepts.
  config_.max_batch = std::min(config_.max_batch, session->max_batch());
  // Register the serve/* instruments now, so telemetry snapshots carry them
  // from the moment a server exists, not from its first request.
  Instruments();
}

MicroBatcher::~MicroBatcher() { Stop(); }

void MicroBatcher::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    MSD_CHECK(!stopped_) << "MicroBatcher cannot restart after Stop()";
    if (started_) return;
    started_ = true;
  }
  worker_.Start(1, [this](int64_t) { WorkerLoop(); });
}

void MicroBatcher::Stop() {
  std::deque<Request> drained;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopped_ = true;
    drained.swap(queue_);
    Instruments().queue_depth.Set(0.0);
  }
  cv_.notify_all();
  worker_.Join();
  for (Request& request : drained) {
    request.done(
        Status::Cancelled("micro-batcher stopped before the request ran"));
  }
}

Status MicroBatcher::SubmitAsync(Tensor window, ResultCallback done) {
  MSD_CHECK(done != nullptr);
  if (!window.defined() || window.rank() != 2 ||
      window.dim(0) != session_->model_config().channels ||
      window.dim(1) != session_->model_config().input_length) {
    return Status::InvalidArgument(
        "window must be [" +
        std::to_string(session_->model_config().channels) + ", " +
        std::to_string(session_->model_config().input_length) + "]");
  }
  Request request;
  request.input = std::move(window);
  request.done = std::move(done);
  // Minting assigns the monotonic request id, the 1-in-N sampling bit and
  // the enqueue timestamp every downstream phase is measured against.
  request.trace = MintTraceContext();

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) {
      return Status::Cancelled("micro-batcher is stopped");
    }
    if (static_cast<int64_t>(queue_.size()) >= config_.queue_capacity) {
      Instruments().rejected.Add(1);
      return Status::ResourceExhausted(
          "request queue full (" + std::to_string(config_.queue_capacity) +
          " pending); retry with backoff");
    }
    queue_.push_back(std::move(request));
    const double depth = static_cast<double>(queue_.size());
    Instruments().queue_depth.Set(depth);
    Instruments().queue_depth_peak.SetMax(depth);
    Instruments().requests.Add(1);
  }
  cv_.notify_one();
  return Status::OK();
}

// msd-hot-path: per-batch worker cycle; every request's latency includes it.
void MicroBatcher::WorkerLoop() {
  const auto max_delay = std::chrono::microseconds(config_.max_delay_us);
  for (;;) {
    std::vector<Request> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopped_ || !queue_.empty(); });
      if (stopped_) return;
      // Coalesce: wait for more requests until the batch is full or the
      // oldest pending request has aged out. This worker is the queue's only
      // consumer, so the front stays put while it waits.
      cv_.wait_until(lock, queue_.front().trace.enqueue + max_delay, [this] {
        return stopped_ ||
               static_cast<int64_t>(queue_.size()) >= config_.max_batch;
      });
      if (stopped_) return;
      const int64_t take =
          std::min<int64_t>(static_cast<int64_t>(queue_.size()),
                            config_.max_batch);
      batch.reserve(static_cast<size_t>(take));
      for (int64_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      Instruments().queue_depth.Set(static_cast<double>(queue_.size()));
    }
    ProcessBatch(std::move(batch));
  }
}

void MicroBatcher::ProcessBatch(std::vector<Request> batch) {
  // The queue-wait phase ends here for every member: the batch is off the
  // queue and owned by this worker.
  const auto dequeue = Clock::now();
  std::vector<Tensor> inputs;
  inputs.reserve(batch.size());
  for (Request& request : batch) {
    request.trace.dequeue = dequeue;
    inputs.push_back(request.input);
  }
  // The session fills compute_start/compute_end into `compute_trace` and
  // skips its own direct-call observation: the batcher attributes the shared
  // compute interval to every member of the batch below.
  TraceContext compute_trace;
  StatusOr<Tensor> outputs =
      session_->PredictBatch(Stack(inputs), &compute_trace);

  Instruments().batches.Add(1);
  Instruments().batch_size.Observe(static_cast<double>(batch.size()));

  if (!outputs.ok()) {
    for (Request& request : batch) request.done(outputs.status());
    return;
  }
  const Tensor& stacked = outputs.value();
  const auto done = Clock::now();
  for (size_t i = 0; i < batch.size(); ++i) {
    TraceContext& trace = batch[i].trace;
    trace.compute_start = compute_trace.compute_start;
    trace.compute_end = compute_trace.compute_end;
    // Row i of the stacked output, with the batch axis dropped.
    Tensor row = Slice(stacked, 0, static_cast<int64_t>(i), 1);
    Shape squeezed(row.shape().begin() + 1, row.shape().end());
    Instruments().queue_us.Observe(
        static_cast<double>(ToMicros(trace.dequeue - trace.enqueue)));
    Instruments().batch_assembly_us.Observe(
        static_cast<double>(ToMicros(trace.compute_start - trace.dequeue)));
    Instruments().compute_us.Observe(static_cast<double>(
        ToMicros(trace.compute_end - trace.compute_start)));
    Instruments().e2e_us.Observe(
        static_cast<double>(ToMicros(done - trace.enqueue)));
    if (trace.sampled) PushRequestSpans(trace);
    // Telemetry must land before the request resolves: a client that reads
    // STATS/TRACE immediately after its reply must see its own request's
    // histograms and spans, not race this thread for them.
    batch[i].done(row.Reshape(std::move(squeezed)));
  }
}

}  // namespace serve
}  // namespace msd
