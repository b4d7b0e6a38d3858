// Serving subsystem tests: frozen-session identity with the training
// pipeline, batch-composition invariance (fp32 and int8), micro-batcher
// contracts (backpressure, cancellation, the serve/e2e_us
// histogram against the clients' own clocks), the no-tape-growth
// regression for inference paths, and the text protocol (parsing, STATS,
// TRACE) through a one-model ModelService. See docs/SERVING.md.
#include "serve/server.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/series_builder.h"
#include "nn/serialize.h"
#include "obs/exporter.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/ring.h"
#include "runtime/parallel.h"
#include "runtime/worker.h"
#include "serve/registry.h"
#include "serve/trace.h"
#include "tasks/pipeline.h"
#include "tensor/tensor_ops.h"

namespace msd {
namespace {

// Parallel ctest runs each test as its own process in a shared temp
// directory, so paths must be pid-unique or concurrent tests truncate each
// other's checkpoints mid-read.
std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "serve_test_" + std::to_string(::getpid()) +
         "_" + name;
}

bool BitIdentical(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

MsdMixerConfig SmallConfig(TaskType task) {
  MsdMixerConfig config;
  config.input_length = 32;
  config.channels = 2;
  config.patch_sizes = {8, 4, 1};
  config.model_dim = 8;
  config.hidden_dim = 16;
  config.drop_path = 0.0f;
  config.task = task;
  config.horizon = 8;
  config.num_classes = 3;
  return config;
}

// Random-init mixer -> checkpoint -> session, no training involved.
// `synthetic_compute_us` pads every forward with a busy-spin so timing tests
// can make compute dominate scheduling noise.
std::unique_ptr<serve::InferenceSession> MakeSession(
    TaskType task, int64_t max_batch = 8, const std::string& tag = "s",
    int64_t synthetic_compute_us = 0, bool quantize = false) {
  MsdMixerConfig config = SmallConfig(task);
  Rng rng(17);
  MsdMixer mixer(config, rng);
  const std::string path = TempPath("serve_" + tag + ".msdckpt");
  EXPECT_TRUE(SaveCheckpoint(mixer, path).ok());
  serve::InferenceSessionConfig sc;
  sc.model = config;
  sc.max_batch = max_batch;
  sc.synthetic_compute_us = synthetic_compute_us;
  sc.quantize = quantize;
  auto session = serve::InferenceSession::Create(sc, path);
  std::remove(path.c_str());
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  return std::move(session).value();
}

Tensor RandomWindow(uint64_t seed, int64_t channels = 2, int64_t length = 32) {
  Rng rng(seed);
  return Tensor::RandNormal({channels, length}, 0.0f, 1.0f, rng);
}

using ResultFuture = std::future<StatusOr<Tensor>>;

// MicroBatcher::SubmitAsync with a future its completion fulfils. *result is
// set only when the request was admitted.
Status Submit(serve::MicroBatcher& batcher, const Tensor& window,
              ResultFuture* result) {
  auto promise = std::make_shared<std::promise<StatusOr<Tensor>>>();
  ResultFuture future = promise->get_future();
  Status admitted = batcher.SubmitAsync(
      Tensor(window),
      [promise](StatusOr<Tensor> r) { promise->set_value(std::move(r)); });
  if (admitted.ok()) *result = std::move(future);
  return admitted;
}

// A one-entry registry serving MakeSession's forecast model as the default:
// the text protocol runs through ModelService exactly as msd_serve serves a
// single checkpoint.
std::unique_ptr<serve::ModelRegistry> OneModelRegistry() {
  serve::MicroBatcherConfig config;
  config.max_delay_us = 200;
  serve::ManifestEntry entry;
  entry.name = "default";
  entry.version = 1;
  entry.checkpoint = "(in-memory)";
  entry.options.lookback = 32;
  entry.options.horizon = 8;
  auto registry = std::make_unique<serve::ModelRegistry>(config);
  EXPECT_TRUE(registry
                  ->Add(std::make_shared<serve::ServedModel>(
                      entry, MakeSession(TaskType::kForecast), config))
                  .ok());
  registry->set_default_model(entry.name);
  return registry;
}

TEST(InferenceSessionTest, BatchRowsMatchSingleRequests) {
  auto session = MakeSession(TaskType::kForecast);
  std::vector<Tensor> windows;
  for (uint64_t s = 0; s < 5; ++s) windows.push_back(RandomWindow(100 + s));
  auto batched = session->PredictBatch(Stack(windows));
  ASSERT_TRUE(batched.ok());
  for (size_t i = 0; i < windows.size(); ++i) {
    auto single = session->Predict(windows[i]);
    ASSERT_TRUE(single.ok());
    Tensor row = Slice(batched.value(), 0, static_cast<int64_t>(i), 1);
    Shape squeezed(row.shape().begin() + 1, row.shape().end());
    EXPECT_TRUE(BitIdentical(row.Reshape(std::move(squeezed)), single.value()))
        << "row " << i;
  }
}

TEST(InferenceSessionTest, RejectsBadShapesAndOversizedBatches) {
  auto session = MakeSession(TaskType::kForecast, /*max_batch=*/4);
  EXPECT_FALSE(session->Predict(Tensor::Zeros({2, 31})).ok());
  EXPECT_FALSE(session->Predict(Tensor::Zeros({3, 32})).ok());
  EXPECT_FALSE(session->PredictBatch(Tensor::Zeros({5, 2, 32})).ok());
  EXPECT_FALSE(session->PredictBatch(Tensor::Zeros({2, 32})).ok());
  EXPECT_TRUE(session->PredictBatch(Tensor::Zeros({4, 2, 32})).ok());
}

TEST(InferenceSessionTest, ClassificationAndReconstructionHeads) {
  auto classifier = MakeSession(TaskType::kClassification, 8, "cls");
  auto logits = classifier->Predict(RandomWindow(7));
  ASSERT_TRUE(logits.ok());
  EXPECT_EQ(logits.value().shape(), (Shape{3}));
  EXPECT_FALSE(classifier->AnomalyScores(Tensor::Zeros({2, 2, 32})).ok());

  auto reconstructor = MakeSession(TaskType::kReconstruction, 8, "rec");
  auto recon = reconstructor->Predict(RandomWindow(8));
  ASSERT_TRUE(recon.ok());
  EXPECT_EQ(recon.value().shape(), (Shape{2, 32}));
  auto scores = reconstructor->AnomalyScores(Tensor::Zeros({3, 2, 32}));
  ASSERT_TRUE(scores.ok());
  EXPECT_EQ(scores.value().shape(), (Shape{3}));
}

TEST(InferenceSessionTest, PredictRecordsNoAutogradTape) {
  // Regression: the serving path must never grow the autograd tape. The
  // nodes_recorded counter counts every recorded op node; it must be flat
  // across any number of Predicts...
  auto session = MakeSession(TaskType::kForecast);
  const Tensor window = RandomWindow(5);
  ASSERT_TRUE(session->Predict(window).ok());  // settle pools/lazy statics
  auto& counter =
      obs::MetricsRegistry::Global().GetCounter("autograd/nodes_recorded");
  const int64_t before = counter.value();
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(session->Predict(window).ok());
  EXPECT_EQ(counter.value(), before);

  // ...and a training-mode forward over the same architecture must move it,
  // proving the counter actually observes tape construction.
  MsdMixerConfig config = SmallConfig(TaskType::kForecast);
  Rng rng(3);
  MsdMixer mixer(config, rng);
  mixer.SetTraining(true);
  (void)mixer.Run(Variable(window.Reshape({1, 2, 32}), /*requires_grad=*/true));
  EXPECT_GT(counter.value(), before);
}

TEST(ServeIdentityTest, SessionMatchesLoadedPipelineAcrossThreadCounts) {
  // Train once, checkpoint, and require the serving path to reproduce the
  // reloaded pipeline bit-for-bit — single-threaded and with the pool.
  SeriesConfig series_config;
  series_config.length = 500;
  series_config.seed = 31;
  for (int c = 0; c < 2; ++c) {
    ChannelSpec channel;
    channel.level = 5.0 + c;
    channel.seasonals = {{12.0, 1.5, 0.3 * c, 1}};
    channel.noise_sigma = 0.1;
    series_config.channels.push_back(channel);
  }
  const Tensor series = GenerateSeries(series_config);

  ForecastPipelineConfig pc;
  pc.lookback = 36;
  pc.horizon = 12;
  pc.model_dim = 8;
  pc.hidden_dim = 16;
  pc.trainer.epochs = 2;
  pc.trainer.batch_size = 16;
  pc.trainer.max_batches_per_epoch = 8;
  pc.trainer.early_stop_patience = 0;
  ForecastPipeline pipeline(pc, /*seed=*/3);
  pipeline.Fit(series);

  const std::string ckpt = TempPath("serve_identity.msdckpt");
  ASSERT_TRUE(pipeline.Save(ckpt).ok());
  ASSERT_TRUE(pipeline.Load(ckpt).ok());  // reference = checkpointed stats

  serve::ForecastSessionOptions options;
  options.lookback = pc.lookback;
  options.horizon = pc.horizon;
  options.model_dim = pc.model_dim;
  options.hidden_dim = pc.hidden_dim;
  auto session = serve::CreateForecastSession(ckpt, options);
  std::remove(ckpt.c_str());
  std::remove((ckpt + ".meta").c_str());
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  for (int64_t threads : {int64_t{1}, int64_t{4}}) {
    runtime::ScopedThreads scoped(threads);
    for (int64_t offset : {int64_t{0}, int64_t{100}, int64_t{300}}) {
      const Tensor window = Slice(series, 1, offset, pc.lookback);
      const Tensor want = pipeline.Predict(window);
      auto got = session.value()->Predict(window);
      ASSERT_TRUE(got.ok());
      EXPECT_TRUE(BitIdentical(got.value(), want))
          << "threads=" << threads << " offset=" << offset;
    }
  }
}

// fp32 and int8 alike: every batched reply is the same session's
// single-request Predict, bit for bit. The int8 plan quantizes activations
// per row, so batch composition must not reach a reply either.
TEST(MicroBatcherTest, BatchedResultsMatchDirectSession) {
  for (const bool quantize : {false, true}) {
    auto session = MakeSession(TaskType::kForecast, /*max_batch=*/8, "s",
                               /*synthetic_compute_us=*/0, quantize);
    if (quantize) {
      ASSERT_GT(session->plan().stats().num_quantized, 0);
    }
    serve::MicroBatcherConfig config;
    config.max_batch = 4;
    config.max_delay_us = 500;
    serve::MicroBatcher batcher(session.get(), config);
    batcher.Start();

    std::vector<Tensor> windows;
    std::vector<ResultFuture> futures(12);
    for (uint64_t s = 0; s < futures.size(); ++s) {
      windows.push_back(RandomWindow(200 + s));
      ASSERT_TRUE(Submit(batcher, windows.back(), &futures[s]).ok());
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      StatusOr<Tensor> got = futures[i].get();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      auto want = session->Predict(windows[i]);
      ASSERT_TRUE(want.ok());
      EXPECT_TRUE(BitIdentical(got.value(), want.value()))
          << "request " << i << " quantize=" << quantize;
    }
    batcher.Stop();
  }
}

TEST(MicroBatcherTest, FullQueueRejectsWithResourceExhaustedThenDrains) {
  auto session = MakeSession(TaskType::kForecast);
  serve::MicroBatcherConfig config;
  config.queue_capacity = 4;
  config.max_batch = 2;
  const Tensor window = RandomWindow(1);

  serve::MicroBatcher batcher(session.get(), config);
  // Not started: the queue can only fill.
  std::vector<ResultFuture> admitted(config.queue_capacity);
  for (auto& f : admitted) {
    ASSERT_TRUE(Submit(batcher, window, &f).ok());
  }
  ResultFuture overflow;
  Status rejected = Submit(batcher, window, &overflow);
  EXPECT_EQ(rejected.code(), StatusCode::kResourceExhausted);

  // Backpressure is not drop: everything admitted completes once workers
  // start, and the queue accepts new work again.
  batcher.Start();
  for (auto& f : admitted) {
    EXPECT_TRUE(f.get().ok());
  }
  ResultFuture after;
  ASSERT_TRUE(Submit(batcher, window, &after).ok());
  EXPECT_TRUE(after.get().ok());
  batcher.Stop();
}

TEST(MicroBatcherTest, StopCancelsPendingAndRejectsNewWork) {
  auto session = MakeSession(TaskType::kForecast);
  serve::MicroBatcherConfig config;
  config.queue_capacity = 8;
  serve::MicroBatcher batcher(session.get(), config);
  const Tensor window = RandomWindow(3);

  // Never Start()ed: a full queue's worth of requests must not be lost.
  std::vector<ResultFuture> pending(config.queue_capacity);
  for (auto& f : pending) ASSERT_TRUE(Submit(batcher, window, &f).ok());
  batcher.Stop();
  for (auto& f : pending) {
    EXPECT_EQ(f.get().status().code(), StatusCode::kCancelled);
  }

  ResultFuture rejected;
  EXPECT_EQ(Submit(batcher, window, &rejected).code(), StatusCode::kCancelled);
  batcher.Stop();  // idempotent
}

TEST(MicroBatcherTest, SubmitValidatesWindowShape) {
  auto session = MakeSession(TaskType::kForecast);
  serve::MicroBatcherConfig config;
  serve::MicroBatcher batcher(session.get(), config);
  ResultFuture future;
  EXPECT_EQ(Submit(batcher, Tensor::Zeros({2, 31}), &future).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Submit(batcher, Tensor::Zeros({1, 2, 32}), &future).code(),
            StatusCode::kInvalidArgument);
  batcher.Stop();
}

TEST(TextProtocolTest, TextProtocolRoundTrip) {
  auto registry = OneModelRegistry();
  serve::ModelService service(registry.get());

  const Tensor window = RandomWindow(11);
  const std::string line = serve::FormatTensorLine(window);
  const std::string reply = service.HandleLine(line);
  ASSERT_NE(reply.rfind("ERROR", 0), 0u) << reply;
  auto parsed = serve::ParseWindowLine(reply, 2, 8);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto want = registry->Get("").value()->session()->Predict(window);
  ASSERT_TRUE(want.ok());
  // %.6g text round-trip, so approximate comparison only.
  EXPECT_TRUE(AllClose(parsed.value(), want.value(), 1e-3f, 1e-3f));

  EXPECT_EQ(service.HandleLine("1,2,bogus").rfind("ERROR", 0), 0u);
  EXPECT_EQ(service.HandleLine("1,2;3").rfind("ERROR", 0), 0u);  // ragged
  EXPECT_EQ(service.HandleLine("").rfind("ERROR", 0), 0u);
  // A well-shaped window carrying a non-finite value never reaches the
  // model.
  const std::string poisoned = "nan" + line.substr(line.find(','));
  const std::string rejected = service.HandleLine(poisoned);
  EXPECT_EQ(rejected.rfind("ERROR InvalidArgument", 0), 0u) << rejected;
}

TEST(TextProtocolTest, ParseAndFormatAreInverses) {
  auto parsed = serve::ParseWindowLine("1,2.5,-3;4,5e-2,6", 0, 0);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().shape(), (Shape{2, 3}));
  EXPECT_FLOAT_EQ(parsed.value().at({1, 1}), 0.05f);
  const std::string rendered = serve::FormatTensorLine(parsed.value());
  auto reparsed = serve::ParseWindowLine(rendered, 2, 3);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_TRUE(BitIdentical(parsed.value(), reparsed.value()));

  // Non-finite values, including a literal that overflows float, are
  // rejected with the offending value's offset.
  for (const char* value : {"nan", "inf", "1e99"}) {
    auto bad = serve::ParseWindowLine(std::string("1,") + value + ",3", 0, 0);
    ASSERT_FALSE(bad.ok()) << value;
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument) << value;
    EXPECT_NE(bad.status().message().find("offset 2"), std::string::npos)
        << bad.status().ToString();
  }
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(MicroBatcherTest, TimingDecompositionSeparatesQueueFromCompute) {
  // A slow model makes the phases unambiguous: with one worker mid-compute
  // (50ms spin), two requests submitted behind it must sit in the queue for
  // at least the remaining compute time — far beyond the 5ms coalescing
  // delay — while their own compute span stays >= the spin length. Sampling
  // every request lets the ring report the per-phase spans directly.
  obs::TraceRing& ring = obs::TraceRing::Global();
  const int64_t old_sample = ring.sample_every();
  ring.SetSampleEvery(1);

  constexpr int64_t kComputeUs = 50000;
  auto session = MakeSession(TaskType::kForecast, /*max_batch=*/8, "slow",
                             /*synthetic_compute_us=*/kComputeUs);
  serve::MicroBatcherConfig config;
  config.max_batch = 2;
  config.max_delay_us = 5000;
  serve::MicroBatcher batcher(session.get(), config);
  batcher.Start();
  // Start from an empty ring so the snapshot below holds exactly our three
  // requests.
  ring.Clear();

  const int64_t queue_before = serve::Instruments().queue_us.count();
  const int64_t compute_before = serve::Instruments().compute_us.count();
  const int64_t e2e_before = serve::Instruments().e2e_us.count();

  ResultFuture first;
  ASSERT_TRUE(Submit(batcher, RandomWindow(400), &first).ok());
  // Let the worker pick up the first request (max_delay 5ms) and enter its
  // 50ms compute before lining up the coalesced pair behind it.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ResultFuture second;
  ResultFuture third;
  ASSERT_TRUE(Submit(batcher, RandomWindow(401), &second).ok());
  ASSERT_TRUE(Submit(batcher, RandomWindow(402), &third).ok());
  ASSERT_TRUE(first.get().ok());
  ASSERT_TRUE(second.get().ok());
  ASSERT_TRUE(third.get().ok());
  batcher.Stop();

  // Every request observes each phase exactly once.
  EXPECT_EQ(serve::Instruments().queue_us.count(), queue_before + 3);
  EXPECT_EQ(serve::Instruments().compute_us.count(), compute_before + 3);
  EXPECT_EQ(serve::Instruments().e2e_us.count(), e2e_before + 3);

  // Group ring spans by request: 3 sampled requests x 3 phases.
  std::map<int64_t, std::map<std::string, int64_t>> spans;
  for (const obs::TraceSpan& span : ring.Snapshot()) {
    spans[span.request_id][span.name] = span.dur_us;
  }
  ring.SetSampleEvery(old_sample);
  ASSERT_EQ(spans.size(), 3u);
  const int64_t first_id = spans.begin()->first;
  for (const auto& [id, phases] : spans) {
    ASSERT_EQ(phases.size(), 3u) << "request " << id;
    // The spin runs inside the forward, so compute >= the configured pad.
    EXPECT_GE(phases.at("compute"), kComputeUs - 1000) << "request " << id;
    if (id == first_id) continue;
    // The coalesced pair waited out the head request's compute: queue-wait
    // must dwarf the coalescing delay, and the decomposition must attribute
    // that wait to the queue phase, not to batch assembly.
    EXPECT_GE(phases.at("queue"), config.max_delay_us) << "request " << id;
    EXPECT_LT(phases.at("batch_assembly"), kComputeUs) << "request " << id;
  }
}

// serve/e2e_us runs from the enqueue stamp SubmitAsync mints to the `done`
// stamp the worker takes before it runs the reply callback, so every
// request's server interval lies inside the client's round trip. With both
// sides bucketed over the same LatencyBoundsUs() and read with the same
// rank rule, no server quantile can exceed the client's; and the busy-spin
// pads every forward, so none can fall more than a bucket below it.
TEST(MicroBatcherTest, ServerLatencyQuantilesSitInsideClientRoundTrips) {
  constexpr int64_t kComputeUs = 1000;
  constexpr int64_t kClients = 4;
  constexpr int64_t kRequests = 200;
  auto session = MakeSession(TaskType::kForecast, /*max_batch=*/8, "e2e",
                             kComputeUs);
  serve::MicroBatcherConfig config;
  config.max_batch = 4;
  config.max_delay_us = 200;
  serve::MicroBatcher batcher(session.get(), config);
  batcher.Start();

  const obs::Histogram& e2e = serve::Instruments().e2e_us;
  const int64_t count_before = e2e.count();
  const std::vector<int64_t> buckets_before = e2e.BucketCounts();
  std::vector<std::vector<int64_t>> client_us(kClients);
  std::atomic<int64_t> issued{0};
  std::atomic<int64_t> failed{0};
  {
    runtime::WorkerGroup clients;
    clients.Start(kClients, [&](int64_t c) {
      const Tensor window = RandomWindow(600 + static_cast<uint64_t>(c));
      while (issued.fetch_add(1) < kRequests) {
        ResultFuture result;
        const auto start = serve::ServeClock::now();
        if (!Submit(batcher, window, &result).ok() || !result.get().ok()) {
          failed.fetch_add(1);
          continue;
        }
        client_us[static_cast<size_t>(c)].push_back(
            serve::ToMicros(serve::ServeClock::now() - start));
      }
    });
    clients.Join();
  }
  batcher.Stop();
  ASSERT_EQ(failed.load(), 0);
  EXPECT_EQ(e2e.count() - count_before, kRequests);

  const std::vector<double> bounds = serve::LatencyBoundsUs();
  std::vector<int64_t> server = e2e.BucketCounts();
  for (size_t i = 0; i < server.size(); ++i) server[i] -= buckets_before[i];
  obs::Histogram client(bounds);
  for (const auto& samples : client_us) {
    for (int64_t us : samples) client.Observe(static_cast<double>(us));
  }
  const auto upper =
      std::lower_bound(bounds.begin(), bounds.end(), double{kComputeUs});
  const double bucket_width = *upper - *(upper - 1);
  for (const double q : {0.50, 0.95, 0.99}) {
    const double server_q = obs::QuantileFromBuckets(bounds, server, q);
    const double client_q =
        obs::QuantileFromBuckets(bounds, client.BucketCounts(), q);
    EXPECT_GE(server_q, kComputeUs - bucket_width) << "q=" << q;
    EXPECT_LE(server_q, client_q) << "q=" << q;
  }
}

TEST(TextProtocolTest, StatsCommandReportsCountersAndQuantiles) {
  auto registry = OneModelRegistry();
  serve::ModelService service(registry.get());
  ASSERT_EQ(service.HandleLine(serve::FormatTensorLine(RandomWindow(12)))
                .rfind("ERROR", 0),
            std::string::npos);

  const std::string reply = service.HandleLine("STATS");
  obs::JsonValue doc;
  ASSERT_TRUE(obs::JsonParse(reply, &doc)) << reply;
  const obs::JsonValue* requests = doc.Find("requests_total");
  ASSERT_NE(requests, nullptr);
  EXPECT_GE(requests->number, 1.0);
  ASSERT_NE(doc.Find("rejected_total"), nullptr);
  // The fleet's in-flight total: the request above has resolved.
  const obs::JsonValue* inflight = doc.Find("inflight");
  ASSERT_NE(inflight, nullptr);
  EXPECT_EQ(inflight->number, 0.0);
  for (const char* name :
       {"queue_us", "batch_assembly_us", "compute_us", "e2e_us"}) {
    const obs::JsonValue* hist = doc.Find(name);
    ASSERT_NE(hist, nullptr) << name;
    ASSERT_NE(hist->Find("count"), nullptr) << name;
    ASSERT_NE(hist->Find("p50"), nullptr) << name;
    ASSERT_NE(hist->Find("p99"), nullptr) << name;
    EXPECT_GE(hist->Find("p99")->number, hist->Find("p50")->number) << name;
  }
  // The command itself is whitespace-tolerant.
  EXPECT_EQ(service.HandleLine("  STATS  ").rfind("ERROR", 0),
            std::string::npos);
}

TEST(TextProtocolTest, TraceCommandRequiresExporterAndWritesChromeJson) {
  obs::TraceRing& ring = obs::TraceRing::Global();
  const int64_t old_sample = ring.sample_every();
  ring.SetSampleEvery(1);
  ring.Clear();

  auto registry = OneModelRegistry();
  serve::ModelService service(registry.get());

  // Without a wired exporter there is no thread allowed to do file I/O.
  EXPECT_EQ(
      service.HandleLine("TRACE /tmp/never_written.json").rfind("ERROR", 0),
      0u);

  obs::TelemetryExporter exporter(obs::TelemetryExporterOptions{});
  ASSERT_TRUE(exporter.Start());
  service.SetExporter(&exporter);
  EXPECT_EQ(service.HandleLine("TRACE").rfind("ERROR", 0), 0u);  // no path

  ASSERT_EQ(service.HandleLine(serve::FormatTensorLine(RandomWindow(13)))
                .rfind("ERROR", 0),
            std::string::npos);
  const std::string dump = TempPath("trace_dump.json");
  EXPECT_EQ(service.HandleLine("TRACE " + dump).rfind("OK", 0), 0u);
  exporter.Stop();
  ring.SetSampleEvery(old_sample);

  obs::JsonValue doc;
  ASSERT_TRUE(obs::JsonParse(ReadWholeFile(dump), &doc));
  const obs::JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::vector<std::string> names;
  for (const obs::JsonValue& event : events->array) {
    ASSERT_NE(event.Find("name"), nullptr);
    names.push_back(event.Find("name")->str);
  }
  for (const char* phase : {"queue", "batch_assembly", "compute"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), phase), names.end())
        << phase;
  }
  std::remove(dump.c_str());
}

}  // namespace
}  // namespace msd
