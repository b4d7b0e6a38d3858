// train_forecast: ForecastPipeline::Fit on an ETTm1-like series for a fixed
// budget of optimizer steps, then Predict on held-out windows. Each epoch is
// one step. The workload runs at MSD_THREADS=1, so a step's time on the
// training thread's CPU clock is its latency net of host steal; reference
// units run on the training thread's vCPU throughout each step and scale
// that time to the nominal machine (reference.h).
#include <pthread.h>

#include <atomic>
#include <cmath>
#include <thread>

#include "datagen/long_term.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "tasks/pipeline.h"
#include "tensor/tensor_ops.h"
#include "reference.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct Data {
  Tensor train;  // [C, train_length]
  Tensor full;   // train + held-out continuation
};

// The series is fixed, like the offline fixture; the seed picks the
// mini-batches (the DataLoader's shuffle). A per-seed series would move the
// held-out error with each series' trend, not with the code.
Data MakeData(const Args& args) {
  const WorkloadConfig& c = args.config;
  msd::SeriesConfig sc = msd::LongTermConfig(
      msd::LongTermDataset::kEttM1, static_cast<uint64_t>(c.Int("series_seed")));
  sc.length = c.Int("train_length") + c.Int("heldout_length");
  Data data;
  data.full = msd::GenerateSeries(sc);
  data.train = msd::Slice(data.full, 1, 0, c.Int("train_length"));
  return data;
}

msd::ForecastPipelineConfig PipelineConfig(const Args& args, int64_t steps) {
  const WorkloadConfig& c = args.config;
  msd::ForecastPipelineConfig pc;  // the pipeline's default model
  // A fixed patch ladder: derived from each seed's series, the architecture
  // (and with it the work per step) would change with the seed.
  for (double p : c.NumList("patch_sizes")) pc.patch_sizes.push_back(static_cast<int64_t>(p));
  pc.trainer.batch_size = c.Int("batch_size");
  pc.trainer.epochs = steps;
  pc.trainer.max_batches_per_epoch = 1;
  pc.trainer.seed = args.seed;
  return pc;
}

struct Fitted {
  std::unique_ptr<msd::ForecastPipeline> pipe;
  msd::TrainStats stats;
};

Fitted Fit(const Args& args, const Tensor& train, int64_t steps) {
  Fitted f;
  f.pipe = std::make_unique<msd::ForecastPipeline>(
      PipelineConfig(args, steps), static_cast<uint64_t>(args.config.Int("model_seed")));
  f.stats = f.pipe->Fit(train);
  return f;
}

// Per-step times of the calling thread, read from outside the trainer: a
// watcher thread polls the public autograd/backward_calls counter (one
// Backward per optimizer step) and reads the training thread's CPU clock
// and the wall clock whenever it moves. Backward to backward is one whole
// steady step (optimizer, next batch, forward, loss); the first step's
// set-up falls before the first mark. Each mark also moves the training
// thread on to the next vCPU, and the reference sampler with it, so each
// step carries its own sample of that vCPU's speed.
class StepWatch {
 public:
  StepWatch(Reference& ref, double unit_interval_ms)
      : counter_(msd::obs::MetricsRegistry::Global().GetCounter("autograd/backward_calls")),
        trainer_(pthread_self()),
        sampler_(ref, unit_interval_ms, 0) {
    pthread_getcpuclockid(trainer_, &clock_);
    PinToCpu(trainer_, 0);
    thread_ = std::thread([this] { Poll(); });
  }
  ~StepWatch() { Stop(); }
  StepWatch(const StepWatch&) = delete;
  StepWatch& operator=(const StepWatch&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    sampler_.Stop();
    PinToCpu(trainer_, -1);
  }
  std::vector<double> CpuSeconds() const { return Diffs(cpu_marks_); }
  std::vector<double> WallSeconds() const { return Diffs(wall_marks_); }
  // Per step: the reference's CPU ns and unit count.
  std::vector<std::pair<int64_t, int64_t>> Units() const {
    std::vector<std::pair<int64_t, int64_t>> out;
    for (size_t i = 1; i < unit_marks_.size(); ++i) {
      out.emplace_back(unit_marks_[i].first - unit_marks_[i - 1].first,
                       unit_marks_[i].second - unit_marks_[i - 1].second);
    }
    return out;
  }

 private:
  void Poll() {
    int64_t seen = counter_.value();
    while (!stop_.load(std::memory_order_relaxed)) {
      const int64_t now = counter_.value();
      if (now != seen) {
        cpu_marks_.push_back(CpuNs(clock_));
        wall_marks_.push_back(NowNs());
        unit_marks_.push_back(sampler_.Totals());
        const int64_t next_cpu = static_cast<int64_t>(cpu_marks_.size());
        PinToCpu(trainer_, next_cpu);
        sampler_.Follow(next_cpu);
        seen = now;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  static std::vector<double> Diffs(const std::vector<int64_t>& marks) {
    std::vector<double> out;
    for (size_t i = 1; i < marks.size(); ++i) {
      out.push_back(static_cast<double>(marks[i] - marks[i - 1]) / 1e9);
    }
    return out;
  }

  msd::obs::Counter& counter_;
  pthread_t trainer_;
  UnitSampler sampler_;
  clockid_t clock_{};
  std::atomic<bool> stop_{false};
  std::vector<int64_t> cpu_marks_;
  std::vector<int64_t> wall_marks_;
  std::vector<std::pair<int64_t, int64_t>> unit_marks_;  // cumulative
  std::thread thread_;
};

struct Timed {
  Fitted fitted;
  std::vector<double> step_s;  // scaled to the nominal machine
  std::vector<double> step_cpu_s;
  std::vector<double> step_wall_s;
  std::vector<double> unit_us;  // mean unit of each step
};

Timed TimedFit(const Args& args, const Tensor& train, int64_t steps, Reference& ref) {
  StepWatch watch(ref, args.config.Num("unit_interval_ms"));
  Timed t{Fit(args, train, steps), {}, {}, {}, {}};
  watch.Stop();
  t.step_cpu_s = watch.CpuSeconds();
  t.step_wall_s = watch.WallSeconds();
  // A step too short to catch a unit is scaled by the units of all steps.
  const auto units = watch.Units();
  int64_t all_ns = 0;
  int64_t all_units = 0;
  for (const auto& [unit_ns, count] : units) {
    all_ns += unit_ns;
    all_units += count;
  }
  for (size_t i = 0; i < t.step_cpu_s.size() && i < units.size(); ++i) {
    const auto [unit_ns, count] = units[i];
    t.step_s.push_back(t.step_cpu_s[i] *
                       (count > 0 ? ref.Scale(unit_ns, count) : ref.Scale(all_ns, all_units)));
    if (count > 0) {
      t.unit_us.push_back(static_cast<double>(unit_ns) / 1e3 / static_cast<double>(count));
    }
  }
  return t;
}

// Training windows per second of the median step.
double Throughput(const WorkloadConfig& c, const std::vector<double>& steps) {
  return static_cast<double>(c.Int("batch_size")) / Median(steps);
}

}  // namespace

void RunTrain(const Args& args, Report* report) {
  const WorkloadConfig& c = args.config;
  // A fixed budget, never derived from a speed measured in this run.
  const int64_t steps =
      std::max<int64_t>(3, std::llround(args.seconds * c.Num("steps_per_second")));
  Reference ref;

  // setup_s: series and windows, model and optimizer, through the first
  // completed step, in CPU seconds of the whole process (the sampler's own
  // thread excepted) scaled by reference units sampled on the same vCPU
  // while it runs. The median of several one-step fits.
  Phase& setup = report->AddPhase("setup");
  std::vector<double> setup_s;
  std::vector<double> setup_cpu_s;
  std::vector<double> setup_wall_s;
  Snapshot before_one = Snapshot::Take();
  Snapshot after_one = before_one;
  for (int64_t r = 0; r < c.Int("setup_reps"); ++r) {
    ++setup.attempted;
    PinToCpu(pthread_self(), r);
    before_one = Snapshot::Take();
    UnitSampler sampler(ref, c.Num("unit_interval_ms"), r);
    const int64_t c0 = ProcessCpuNs();
    const int64_t t0 = NowNs();
    const Data data = MakeData(args);
    const Fitted one = Fit(args, data.train, 1);
    const int64_t t1 = NowNs();
    const int64_t c1 = ProcessCpuNs();
    const int64_t sampler_cpu = sampler.Stop();
    after_one = Snapshot::Take();
    const auto [unit_ns, units] = sampler.Totals();
    setup_cpu_s.push_back(static_cast<double>(c1 - c0 - sampler_cpu) / 1e9);
    setup_s.push_back(setup_cpu_s.back() * ref.Scale(unit_ns, units));
    setup_wall_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    if (!std::isfinite(one.stats.final_loss())) {
      report->Fail(setup, "non-finite loss in the one-step fit");
    }
  }
  PinToCpu(pthread_self(), -1);

  const Data data = MakeData(args);
  Phase& train = report->AddPhase("train");
  const Snapshot before_fit = Snapshot::Take();
  const HostTicks host_before = HostTicks::Read();
  const Timed timed = TimedFit(args, data.train, steps, ref);
  const HostTicks host_after = HostTicks::Read();
  const Snapshot after_fit = Snapshot::Take();
  const Fitted& fitted = timed.fitted;
  std::vector<float> losses = fitted.stats.epoch_losses;
  // Test hook: a poisoned loss must be caught by the finiteness check.
  if (args.corrupt_oracle && !losses.empty()) losses.back() = std::nanf("");
  for (float loss : losses) {
    ++train.attempted;
    if (!std::isfinite(loss)) report->Fail(train, "non-finite training loss");
  }
  if (static_cast<int64_t>(timed.step_cpu_s.size()) != steps - 1) {
    report->Fail(train, "saw " + std::to_string(timed.step_cpu_s.size() + 1) +
                            " Backward calls for " + std::to_string(steps) + " steps");
  }

  // Held-out windows start after the training span; truth is the series'
  // true continuation.
  Phase& heldout = report->AddPhase("heldout");
  const int64_t lookback = msd::ForecastPipelineConfig{}.lookback;
  const int64_t horizon = msd::ForecastPipelineConfig{}.horizon;
  const int64_t first = c.Int("train_length") - lookback;
  const int64_t last = data.full.dim(1) - lookback - horizon;
  const int64_t windows = c.Int("heldout_windows");
  const std::vector<double> inv_var = InverseChannelVariance(data.train);
  double squared_error = 0.0;
  int64_t values = 0;
  uint64_t digest = 0;
  for (int64_t w = 0; w < windows; ++w) {
    const int64_t offset = first + (last - first) * w / std::max<int64_t>(1, windows - 1);
    ++heldout.attempted;
    const Tensor forecast =
        fitted.pipe->Predict(msd::Slice(data.full, 1, offset, lookback));
    const Tensor truth = msd::Slice(data.full, 1, offset + lookback, horizon);
    const double se = SquaredErrorSum(forecast, truth, inv_var);
    if (!std::isfinite(se)) {
      report->Fail(heldout, "non-finite forecast");
      continue;
    }
    squared_error += se;
    values += forecast.numel();
    digest = Fnv1a(forecast.data(), sizeof(float) * forecast.numel(), digest ^ 1);
  }
  const double mse = squared_error / static_cast<double>(std::max<int64_t>(1, values));
  char line[200];
  std::snprintf(line, sizeof(line),
                "digest forecasts=%s forecast_mse=%.17g steps=%lld "
                "final_loss=%.9g",
                Hex(digest).c_str(), mse, static_cast<long long>(steps),
                static_cast<double>(fitted.stats.final_loss()));
  report->Note(line);

  const double throughput = Throughput(c, timed.step_s);
  LogSamples("step_s", timed.step_s);
  LogSamples("step_cpu_s", timed.step_cpu_s);
  LogSamples("step_wall_s", timed.step_wall_s);
  LogSamples("ref.unit_us", timed.unit_us);
  if (!args.trace) {
    LogSamples("setup_s", setup_s);
    LogSamples("cpu.setup_s", setup_cpu_s);
    report->Set("setup_s", Median(setup_s));
    report->Set("throughput_per_s", throughput);
    report->Set("forecast_mse", mse);
    report->Set("peak_rss_mb", PeakRssMb());
    return;
  }

  // Traced fit: the same budget again with the profiler and the spans on.
  Trace trace;
  trace.AddPhaseCounters("one_step_fit", before_one, after_one);
  trace.AddPhaseCounters("fit_untraced", before_fit, after_fit);
  msd::obs::Profiler& profiler = msd::obs::Profiler::Global();
  profiler.Reset();
  profiler.SetEnabled(true);
  const Snapshot before_traced = Snapshot::Take();
  const int64_t t0 = NowNs();
  const Timed traced_timed = TimedFit(args, data.train, steps, ref);
  const Fitted& traced = traced_timed.fitted;
  const int64_t t1 = NowNs();
  const Snapshot after_traced = Snapshot::Take();
  profiler.SetEnabled(false);
  trace.AddPhaseCounters("fit_traced", before_traced, after_traced);
  const int64_t fit_span = trace.Add("train.fit", t0, t1, -1, 0);
  // Step spans rebuilt from the per-epoch wall times, laid end to end from
  // the end of the fit backwards (set-up precedes the first step).
  int64_t end = t1;
  for (auto it = traced.stats.epoch_seconds.rbegin();
       it != traced.stats.epoch_seconds.rend(); ++it) {
    const int64_t start = end - static_cast<int64_t>(*it * 1e9);
    trace.Add("train.step", start, end, fit_span,
              static_cast<int64_t>(traced.stats.epoch_seconds.rend() - it));
    end = start;
  }

  const auto agg = profiler.Aggregates();
  auto mean_ms = [&agg](const char* label) {
    auto it = agg.find(label);
    if (it == agg.end() || it->second.count == 0) return 0.0;
    return static_cast<double>(it->second.total_ns) / 1e6 /
           static_cast<double>(it->second.count);
  };
  const double step_ms = 1e3 * Mean(traced.stats.epoch_seconds);
  const double forward = mean_ms("train/forward");
  const double backward = mean_ms("train/backward");
  const double optim = mean_ms("train/optimizer_step");
  report->Set("train.forward_ms", forward);
  report->Set("train.backward_ms", backward);
  report->Set("train.optim_ms", optim);
  report->Set("train.other_ms", step_ms - forward - backward - optim);
  const double n_steps = static_cast<double>(steps);
  const double n_windows = n_steps * static_cast<double>(c.Int("batch_size"));
  report->Set("autograd.nodes_per_step",
              static_cast<double>(Delta(before_traced, after_traced,
                                        "autograd/nodes_recorded")) / n_steps);
  // Pool traffic after the first step: the traced fit minus a one-step fit.
  const int64_t hits = Delta(before_traced, after_traced, "tensor/pool_hits") -
                       Delta(before_one, after_one, "tensor/pool_hits");
  const int64_t misses = Delta(before_traced, after_traced, "tensor/pool_misses") -
                         Delta(before_one, after_one, "tensor/pool_misses");
  report->Set("pool.hit_ratio", PoolHitRatio(hits, misses));
  report->Set("pool.misses_steady", static_cast<double>(misses));
  const int64_t calls = Delta(before_traced, after_traced, "runtime/parallel_calls");
  report->Set("runtime.parallel_calls_per_window",
              static_cast<double>(calls) / n_windows);
  report->Set("runtime.chunks_per_call",
              calls > 0 ? static_cast<double>(Delta(before_traced, after_traced,
                                                    "runtime/chunks_executed")) /
                              static_cast<double>(calls)
                        : 0.0);
  const double flops = static_cast<double>(traced.pipe->model().ApproxForwardFlopsPerItem());
  double busy = 0.0;
  for (double s : traced_timed.step_cpu_s) busy += s;
  report->Set("gemm.flops_per_window", flops);
  report->Set("gemm.matmul_flops_per_window",
              static_cast<double>(Delta(before_traced, after_traced, "tensor/matmul_flops")) /
                  n_windows);
  report->Set("gemm.gflops",
              flops * static_cast<double>(c.Int("batch_size")) *
                  static_cast<double>(traced_timed.step_cpu_s.size()) / busy / 1e9);
  const msd::MsdMixerConfig& mc = traced.pipe->model().config();
  report->Set("gemm.bytes_per_window",
              static_cast<double>(traced.pipe->model().ParameterBytes()) /
                      static_cast<double>(c.Int("batch_size")) +
                  4.0 * static_cast<double>(mc.channels * (mc.input_length + mc.horizon)));
  std::vector<double> step_ms_samples;
  for (double s : timed.step_s) step_ms_samples.push_back(1e3 * s);
  const Tail tail = HighestSupportedPercentile(step_ms_samples);
  report->Set("loadgen.latency_tail_ms", tail.value);
  report->Set("loadgen.latency_tail_pct", tail.pct);
  report->Set("loadgen.latency_samples", static_cast<double>(tail.samples));
  report->Set("trace.overhead_pct",
              100.0 * (throughput / Throughput(c, traced_timed.step_s) - 1.0));
  report->Set("wall.setup_s", Median(setup_wall_s));
  report->Set("wall.throughput_per_s", Throughput(c, timed.step_wall_s));
  report->Set("cpu.setup_s", Median(setup_cpu_s));
  report->Set("cpu.throughput_per_s", Throughput(c, timed.step_cpu_s));
  report->Set("ref.unit_us", Median(timed.unit_us));
  report->Set("latency_p50_ms", 1e3 * Median(timed.step_cpu_s));
  report->Set("wall.latency_p50_ms", 1e3 * Median(timed.step_wall_s));
  report->Set("host.steal_pct", StealPct(host_before, host_after));

  // Adjacent layers: forward + backward + optim never exceed the step by
  // more than the tolerance (other, the remainder, is data and clipping).
  const double tolerance = 0.02 * step_ms;
  char check[200];
  const bool ok = forward + backward + optim <= step_ms + tolerance;
  std::snprintf(check, sizeof(check),
                "check train_step: forward+backward+optim=%.3f ms <= step=%.3f "
                "ms + 2%% -> %s",
                forward + backward + optim, step_ms, ok ? "ok" : "VIOLATED");
  report->Note(check);
  if (!ok) report->Fail(train, "layer times exceed the step time");
  report->Note("bytes_per_window is computed from tensor sizes: parameter "
               "bytes over the batch plus input and output window bytes");
  if (!trace.Write(args.trace_out, ProvenanceJson(args))) {
    report->Fail(train, "cannot write " + args.trace_out);
  }
}

}  // namespace perfbench
