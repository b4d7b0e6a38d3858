// offline_fp32 / offline_int8: one thread scores a seeded stream of
// ETTm1-like windows with InferenceSession::PredictBatch on a paper-scale
// forecast checkpoint. Every pass of the stream is one seeded permutation
// of the batch sizes 1..max_batch, so every per-size plan runs equally
// often and the mix is identical for every seed. The workload runs at
// MSD_THREADS=1, so a call's time on the calling thread's CPU clock is its
// latency net of host steal. Right after each call, on the same vCPU,
// reference units run for a fixed share of the call's time (at least one),
// and scale that time to the nominal machine (reference.h).
#include <cstring>
#include <memory>

#include "common/rng.h"
#include "datagen/long_term.h"
#include "obs/profiler.h"
#include "serve/session.h"
#include "tasks/pipeline.h"
#include "tensor/tensor_ops.h"
#include "reference.h"
#include "workloads.h"

namespace perfbench {

namespace {

using msd::serve::InferenceSession;

std::string CheckpointPath(const Args& args) {
  return args.work_dir + "/offline.ckpt";
}

struct Batch {
  Tensor input;  // [B, C, L]
  Tensor truth;  // [B, C, H]
};

// The scored windows and what the first scoring of each batch produced.
struct Stream {
  std::vector<Batch> batches;  // pass after pass, per_pass batches each
  std::vector<double> inv_var;  // per channel, over the scored series
  size_t per_pass = 0;
  std::vector<uint64_t> digests;  // 0 until first scored
  double squared_error = 0.0;
  int64_t values = 0;
  // Row-independence samples: (batch, row) and the row the batch produced.
  std::vector<std::pair<size_t, int64_t>> sampled;
  std::vector<Tensor> sampled_rows;
};

struct Timing {
  std::vector<double> call_ms;      // wall clock
  std::vector<double> call_cpu_ms;  // the calling thread's CPU clock
  // Windows per second of each pass: on the CPU clock scaled to the nominal
  // machine, on the CPU clock as read, and on the wall clock.
  std::vector<double> pass_throughput;
  std::vector<double> pass_cpu_throughput;
  std::vector<double> pass_wall_throughput;
  std::vector<double> unit_us;  // mean reference unit after each call
  double ref_share = 0.0;       // reference time per unit of call time
  int64_t windows = 0;
  int64_t busy_ns = 0;
  int64_t cpu_ns = 0;
  int64_t ref_ns = 0;
  int64_t ref_units = 0;
};

// The fixed ETTm1-like series: the fixture trains on its first
// fixture_length steps; the scored windows come from the rest.
Tensor FixedSeries(const WorkloadConfig& c) {
  msd::SeriesConfig sc = msd::LongTermConfig(
      msd::LongTermDataset::kEttM1, static_cast<uint64_t>(c.Int("series_seed")));
  sc.length = c.Int("fixture_length") + c.Int("scored_length");
  return msd::GenerateSeries(sc);
}

// The seed picks the windows and the order of batch sizes; the series is
// fixed, so the forecast error moves with the code, not with a seed's trend.
Stream MakeStream(const Args& args) {
  const WorkloadConfig& c = args.config;
  const Tensor full = FixedSeries(c);
  const Tensor series = msd::Slice(full, 1, c.Int("fixture_length"), c.Int("scored_length"));
  const int64_t lookback = c.Int("lookback");
  const int64_t horizon = c.Int("horizon");
  const int64_t max_batch = c.Int("max_batch");
  const int64_t last_offset = series.dim(1) - lookback - horizon;
  msd::Rng rng(args.seed * 0x9e3779b97f4a7c15ull + 11);
  Stream stream;
  stream.per_pass = static_cast<size_t>(max_batch);
  stream.inv_var = InverseChannelVariance(series);
  for (int64_t pass = 0; pass < c.Int("passes"); ++pass) {
    std::vector<int64_t> sizes;
    for (int64_t b = 1; b <= max_batch; ++b) sizes.push_back(b);
    for (int64_t i = max_batch - 1; i > 0; --i) {
      std::swap(sizes[static_cast<size_t>(i)],
                sizes[static_cast<size_t>(rng.UniformInt(i + 1))]);
    }
    for (int64_t size : sizes) {
      std::vector<int64_t> offsets;
      std::vector<int64_t> targets;
      for (int64_t r = 0; r < size; ++r) {
        offsets.push_back(rng.UniformInt(last_offset + 1));
        targets.push_back(offsets.back() + lookback);
      }
      stream.batches.push_back({GatherWindows(series, offsets, lookback),
                                GatherWindows(series, targets, horizon)});
    }
  }
  stream.digests.assign(stream.batches.size(), 0);
  for (int64_t i = 0; i < c.Int("row_checks"); ++i) {
    const size_t b = static_cast<size_t>(
        rng.UniformInt(static_cast<int64_t>(stream.batches.size())));
    stream.sampled.emplace_back(b, rng.UniformInt(stream.batches[b].input.dim(0)));
  }
  stream.sampled_rows.resize(stream.sampled.size());
  return stream;
}

// Scores one batch; the first scoring fixes its digest, forecast error and
// sampled rows, every later scoring must reproduce the digest.
void Score(InferenceSession& session, Stream& stream, size_t index,
           Reference* ref, Timing* timing, Trace* trace, Phase& phase,
           Report* report) {
  const Batch& batch = stream.batches[index];
  ++phase.attempted;
  if (timing != nullptr) {
    PinToCpu(pthread_self(), static_cast<int64_t>(timing->call_ms.size()));
  }
  const int64_t c0 = ThreadCpuNs();
  const int64_t t0 = NowNs();
  msd::StatusOr<Tensor> out = session.PredictBatch(batch.input);
  const int64_t t1 = NowNs();
  const int64_t c1 = ThreadCpuNs();
  if (!out.ok()) {
    report->Fail(phase, "PredictBatch: " + out.status().ToString());
    return;
  }
  const Tensor& y = out.value();
  if (timing != nullptr) {
    timing->call_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    timing->call_cpu_ms.push_back(static_cast<double>(c1 - c0) / 1e6);
    timing->windows += batch.input.dim(0);
    timing->busy_ns += t1 - t0;
    timing->cpu_ns += c1 - c0;
    int64_t unit_ns = 0;
    int64_t units = 0;
    do {
      unit_ns += ref->Unit();
      ++units;
    } while (static_cast<double>(unit_ns) < timing->ref_share * static_cast<double>(c1 - c0));
    timing->ref_ns += unit_ns;
    timing->ref_units += units;
    timing->unit_us.push_back(static_cast<double>(unit_ns) / 1e3 / static_cast<double>(units));
    if (trace != nullptr) {
      trace->Add("offline.predict_batch", t0, t1, -1,
                 static_cast<int64_t>(timing->call_ms.size()));
    }
  }
  const uint64_t digest = Fnv1a(y.data(), sizeof(float) * y.numel());
  if (stream.digests[index] == 0) {
    stream.digests[index] = digest;
    stream.squared_error += SquaredErrorSum(y, batch.truth, stream.inv_var);
    stream.values += y.numel();
    for (size_t s = 0; s < stream.sampled.size(); ++s) {
      if (stream.sampled[s].first != index) continue;
      stream.sampled_rows[s] =
          msd::Slice(y, 0, stream.sampled[s].second, 1).Clone();
    }
  } else if (digest != stream.digests[index]) {
    report->Fail(phase, "batch " + std::to_string(index) +
                            " scored differently on a repeat pass");
  }
}

// Scores whole passes (so the batch-size mix stays whole) until `seconds`
// have elapsed and every pass has been scored at least once.
Timing Measure(InferenceSession& session, Stream& stream, Reference& ref,
               double ref_share, double seconds, Trace* trace, Phase& phase,
               Report* report) {
  Timing timing;
  timing.ref_share = ref_share;
  const size_t passes = stream.batches.size() / stream.per_pass;
  const int64_t start = NowNs();
  const int64_t budget = static_cast<int64_t>(seconds * 1e9);
  for (size_t done = 0;; ++done) {
    const size_t first = (done % passes) * stream.per_pass;
    const int64_t windows = timing.windows;
    const int64_t busy_ns = timing.busy_ns;
    const int64_t cpu_ns = timing.cpu_ns;
    const int64_t ref_ns = timing.ref_ns;
    const int64_t ref_units = timing.ref_units;
    for (size_t i = first; i < first + stream.per_pass; ++i) {
      Score(session, stream, i, &ref, &timing, trace, phase, report);
    }
    const double scored = static_cast<double>(timing.windows - windows);
    const double pass_cpu_s = static_cast<double>(timing.cpu_ns - cpu_ns) / 1e9;
    const double scale = ref.Scale(timing.ref_ns - ref_ns, timing.ref_units - ref_units);
    timing.pass_throughput.push_back(scored / (pass_cpu_s * scale));
    timing.pass_cpu_throughput.push_back(scored / pass_cpu_s);
    timing.pass_wall_throughput.push_back(
        scored / (static_cast<double>(timing.busy_ns - busy_ns) / 1e9));
    if (done + 1 >= passes && NowNs() - start >= budget) break;
  }
  PinToCpu(pthread_self(), -1);
  return timing;
}

}  // namespace

bool MakeOfflineFixture(const Args& args) {
  const WorkloadConfig& c = args.config;
  const Tensor series = msd::Slice(FixedSeries(c), 1, 0, c.Int("fixture_length"));
  if (series.dim(0) != c.Int("channels")) {
    std::fprintf(stderr, "perfbench: ETTm1-like series has %lld channels\n",
                 static_cast<long long>(series.dim(0)));
    return false;
  }
  msd::ForecastPipelineConfig pc;
  pc.lookback = c.Int("lookback");
  pc.horizon = c.Int("horizon");
  pc.model_dim = c.Int("model_dim");
  pc.hidden_dim = c.Int("hidden_dim");
  pc.trainer.epochs = 1;
  pc.trainer.batch_size = c.Int("max_batch");
  pc.trainer.max_batches_per_epoch = c.Int("fixture_steps");
  msd::ForecastPipeline pipe(pc, static_cast<uint64_t>(c.Int("series_seed")));
  pipe.Fit(series);
  const msd::Status saved = pipe.Save(CheckpointPath(args));
  if (!saved.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", saved.ToString().c_str());
  }
  return saved.ok();
}

void RunOffline(const Args& args, Report* report) {
  const WorkloadConfig& c = args.config;
  const bool quantize = c.Int("quantize") != 0;
  msd::serve::ForecastSessionOptions options;
  options.lookback = c.Int("lookback");
  options.horizon = c.Int("horizon");
  options.model_dim = c.Int("model_dim");
  options.hidden_dim = c.Int("hidden_dim");
  options.max_batch = c.Int("max_batch");
  options.quantize = quantize;

  // setup_s: checkpoint and .meta load, per-size plan compile, int8
  // calibration and warm-up, as CreateForecastSession does them, in CPU
  // seconds of the whole process (the sampler's own thread excepted) scaled
  // by reference units sampled on the same vCPU while it runs. The median
  // of several builds; the last one serves.
  Reference ref;
  Phase& setup = report->AddPhase("setup");
  std::vector<double> create_s;
  std::vector<double> create_cpu_s;
  std::vector<double> create_wall_s;
  std::unique_ptr<InferenceSession> session;
  const Snapshot before_setup = Snapshot::Take();
  for (int64_t r = 0; r < c.Int("setup_reps"); ++r) {
    session.reset();
    ++setup.attempted;
    PinToCpu(pthread_self(), r);
    UnitSampler sampler(ref, c.Num("unit_interval_ms"), r);
    const int64_t c0 = ProcessCpuNs();
    const int64_t t0 = NowNs();
    auto created = msd::serve::CreateForecastSession(CheckpointPath(args), options);
    const int64_t t1 = NowNs();
    const int64_t c1 = ProcessCpuNs();
    const int64_t sampler_cpu = sampler.Stop();
    const auto [unit_ns, units] = sampler.Totals();
    if (!created.ok()) {
      report->Fail(setup, "CreateForecastSession: " + created.status().ToString());
      std::exit(1);
    }
    session = std::move(created).value();
    create_cpu_s.push_back(static_cast<double>(c1 - c0 - sampler_cpu) / 1e9);
    create_s.push_back(create_cpu_s.back() * ref.Scale(unit_ns, units));
    create_wall_s.push_back(static_cast<double>(t1 - t0) / 1e9);
  }
  PinToCpu(pthread_self(), -1);
  const Snapshot after_setup = Snapshot::Take();

  Stream stream = MakeStream(args);
  // Warm-up outside the clock: the first pass touches every per-size plan.
  Phase& measure = report->AddPhase("score");
  for (size_t i = 0; i < stream.per_pass; ++i) {
    Score(*session, stream, i, &ref, nullptr, nullptr, measure, report);
  }
  const Snapshot before_measure = Snapshot::Take();
  const HostTicks host_before = HostTicks::Read();
  const Timing untraced =
      Measure(*session, stream, ref, c.Num("reference_share"), args.seconds, nullptr,
              measure, report);
  const HostTicks host_after = HostTicks::Read();
  const Snapshot after_measure = Snapshot::Take();

  // Row-independence contract: a row of a batch equals the batch-of-1
  // Predict of its window, byte for byte.
  Phase& rows = report->AddPhase("row_check");
  if (args.corrupt_oracle && !stream.sampled_rows.empty()) {
    stream.sampled_rows[0].data()[0] += 1.0f;
  }
  for (size_t s = 0; s < stream.sampled.size(); ++s) {
    const auto [b, row] = stream.sampled[s];
    const Tensor& input = stream.batches[b].input;
    ++rows.attempted;
    const Tensor window =
        msd::Slice(input, 0, row, 1).Reshape({input.dim(1), input.dim(2)});
    msd::StatusOr<Tensor> single = session->Predict(window);
    const Tensor& expected = stream.sampled_rows[s];
    if (!single.ok() || !expected.defined() ||
        single.value().numel() != expected.numel() ||
        std::memcmp(single.value().data(), expected.data(),
                    sizeof(float) * expected.numel()) != 0) {
      report->Fail(rows, "batch " + std::to_string(b) + " row " +
                             std::to_string(row) +
                             " differs from its batch-of-1 Predict");
    }
  }

  uint64_t digest = 0;
  for (uint64_t d : stream.digests) digest = Fnv1a(&d, sizeof(d), digest ^ 1);
  const double mse = stream.squared_error / static_cast<double>(stream.values);
  char line[160];
  std::snprintf(line, sizeof(line), "digest outputs=%s forecast_mse=%.17g",
                Hex(digest).c_str(), mse);
  report->Note(line);

  // Every pass holds each batch size once, so passes are comparable and
  // their median shrugs off a slow one.
  const double throughput = Median(untraced.pass_throughput);
  LogSamples("throughput_per_s", untraced.pass_throughput);
  LogSamples("cpu.throughput_per_s", untraced.pass_cpu_throughput);
  LogSamples("wall.throughput_per_s", untraced.pass_wall_throughput);
  if (!args.trace) {
    LogSamples("setup_s", create_s);
    LogSamples("cpu.setup_s", create_cpu_s);
    report->Set("setup_s", Median(create_s));
    report->Set("throughput_per_s", throughput);
    report->Set("forecast_mse", mse);
    report->Set("peak_rss_mb", PeakRssMb());
    return;
  }

  // Traced pass: the same loop again with the profiler and the spans on.
  Trace trace;
  trace.AddPhaseCounters("setup", before_setup, after_setup);
  trace.AddPhaseCounters("score_untraced", before_measure, after_measure);
  msd::obs::Profiler::Global().Reset();
  msd::obs::Profiler::Global().SetEnabled(true);
  const Snapshot before_traced = Snapshot::Take();
  const Timing traced =
      Measure(*session, stream, ref, c.Num("reference_share"), args.seconds, &trace,
              measure, report);
  const Snapshot after_traced = Snapshot::Take();
  msd::obs::Profiler::Global().SetEnabled(false);
  trace.AddPhaseCounters("score_traced", before_traced, after_traced);

  const ModelFootprint model =
      ForecastFootprint(CheckpointPath(args), c.Int("channels"), options.lookback,
                        options.horizon, options.model_dim, options.hidden_dim);
  const double traced_s = static_cast<double>(traced.cpu_ns) / 1e9;
  const double windows = static_cast<double>(traced.windows);
  const double flops = model.flops_per_window;
  const double mean_batch = windows / static_cast<double>(traced.call_ms.size());
  const double io_bytes = 4.0 * static_cast<double>(
      c.Int("channels") * (options.lookback + options.horizon));
  const int64_t calls = Delta(before_traced, after_traced, "runtime/parallel_calls");
  const int64_t hits = Delta(before_traced, after_traced, "tensor/pool_hits");
  const int64_t misses = Delta(before_traced, after_traced, "tensor/pool_misses");
  const int64_t quant = Delta(before_setup, after_setup, "serve/quant_steps");
  const int64_t quant_fallbacks =
      Delta(before_setup, after_setup, "serve/quant_fallbacks");

  report->Set("wall.setup_s", Median(create_wall_s));
  report->Set("wall.throughput_per_s", Median(untraced.pass_wall_throughput));
  report->Set("cpu.setup_s", Median(create_cpu_s));
  report->Set("cpu.throughput_per_s", Median(untraced.pass_cpu_throughput));
  report->Set("ref.unit_us", Median(untraced.unit_us));
  report->Set("latency_p50_ms", Median(untraced.call_cpu_ms));
  report->Set("wall.latency_p50_ms", Median(untraced.call_ms));
  report->Set("host.steal_pct", StealPct(host_before, host_after));
  report->Set("session.compute_us_p50", 1e3 * Median(traced.call_cpu_ms));
  report->Set("session.compute_us_per_row", 1e6 * traced_s / windows);
  report->Set("session.create_s", Median(create_s));
  report->Set("plan.arena_mb", after_setup.Gauge("serve/arena_bytes") / 1048576.0);
  report->Set("plan.fallbacks",
              static_cast<double>(
                  Delta(before_setup, after_setup, "serve/plan_build_refused") +
                  Delta(before_measure, after_traced, "serve/plan_fallbacks")));
  report->Set("plan.quant_adoption",
              quant + quant_fallbacks > 0
                  ? static_cast<double>(quant) / static_cast<double>(quant + quant_fallbacks)
                  : 0.0);
  report->Set("gemm.flops_per_window", flops);
  report->Set("gemm.matmul_flops_per_window",
              static_cast<double>(Delta(before_traced, after_traced, "tensor/matmul_flops")) /
                  windows);
  report->Set(quantize ? "qgemm.gops" : "gemm.gflops",
              flops * windows / traced_s / 1e9);
  report->Set("gemm.bytes_per_window",
              model.parameter_bytes / mean_batch + io_bytes);
  report->Set("runtime.parallel_calls_per_window", static_cast<double>(calls) / windows);
  report->Set("runtime.chunks_per_call",
              calls > 0 ? static_cast<double>(Delta(before_traced, after_traced,
                                                    "runtime/chunks_executed")) /
                              static_cast<double>(calls)
                        : 0.0);
  report->Set("pool.hit_ratio", PoolHitRatio(hits, misses));
  report->Set("pool.misses_steady", static_cast<double>(misses));
  const Tail tail = HighestSupportedPercentile(untraced.call_cpu_ms);
  report->Set("loadgen.latency_tail_ms", tail.value);
  report->Set("loadgen.latency_tail_pct", tail.pct);
  report->Set("loadgen.latency_samples", static_cast<double>(tail.samples));
  report->Set("trace.overhead_pct",
              100.0 * (throughput / Median(traced.pass_throughput) - 1.0));
  report->Note("bytes_per_window is computed from tensor sizes: parameter "
               "bytes over the mean batch plus input and output window bytes");
  if (!trace.Write(args.trace_out, ProvenanceJson(args))) {
    report->Fail(measure, "cannot write " + args.trace_out);
  }
}

}  // namespace perfbench
