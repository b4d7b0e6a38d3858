// Shared helpers for the table/figure reproduction benches: scale control,
// model factories with paper-style hyperparameters, naive-forecast
// evaluation, and fixed-width table printing.
#ifndef MSDMIXER_BENCH_BENCH_UTIL_H_
#define MSDMIXER_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "baselines/naive.h"
#include "core/msd_mixer.h"
#include "metrics/metrics.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "runtime/parallel.h"
#include "tasks/experiments.h"

namespace msd {
namespace bench {

// ---- Telemetry export -------------------------------------------------------
// Every bench accepts
//   --metrics-out <path>   combined metrics + span-aggregate JSON snapshot
//   --trace-out <path>     chrome://tracing event file
// so BENCH_*.json perf trajectories come straight from the registry instead
// of ad-hoc timers.

// Value of `--flag <v>` or `--flag=<v>` in argv; empty string when absent.
inline std::string FlagValue(int argc, char** argv, const std::string& flag) {
  const std::string prefix = flag + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == flag && i + 1 < argc) return argv[i + 1];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return "";
}

// ---- Build-type stamping ----------------------------------------------------
// google-benchmark's own "library_build_type" context records how the
// *benchmark library* was built — the distro package reports "debug" even
// when this tree is compiled -O3 — so bench output stamps the repo's own
// compile mode instead, straight from CMAKE_BUILD_TYPE (the root
// CMakeLists defines MSD_BUILD_TYPE_STRING; NDEBUG would be wrong here
// because the repo's Release flags deliberately omit it to keep MSD_CHECK
// active). Bench mains pass this to
// benchmark::AddCustomContext("msd_build_type", ...), so a reader of two
// results can tell a Debug run from a Release one.
inline const char* BuildTypeString() {
#ifdef MSD_BUILD_TYPE_STRING
  return MSD_BUILD_TYPE_STRING;
#else
  return "unknown";
#endif
}

// ---- Thread-count control ---------------------------------------------------
// Every bench accepts --threads N, overriding the MSD_THREADS / hardware
// default for the whole run. Results are bit-identical for any value
// (docs/RUNTIME.md), so this only trades wall-clock for cores.

// Parsed value of --threads; 0 when absent (keep the ambient default).
// Exits with a usage error on a malformed or non-positive value.
inline int64_t ThreadsFlagValue(int argc, char** argv) {
  const std::string v = FlagValue(argc, argv, "--threads");
  if (v.empty()) return 0;
  char* end = nullptr;
  const long long n = std::strtoll(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0' || n <= 0) {
    std::fprintf(stderr, "invalid --threads value '%s' (want a positive int)\n",
                 v.c_str());
    std::exit(2);
  }
  return static_cast<int64_t>(n);
}

// Applies --threads (when present) to the global pool. Call once at the top
// of a bench main(), before any tensor work.
inline void InitThreads(int argc, char** argv) {
  const int64_t n = ThreadsFlagValue(argc, argv);
  if (n > 0) runtime::SetNumThreads(n);
}

inline std::string MetricsOutPath(int argc, char** argv) {
  return FlagValue(argc, argv, "--metrics-out");
}

inline std::string TraceOutPath(int argc, char** argv) {
  return FlagValue(argc, argv, "--trace-out");
}

// Writes {"metrics": <registry snapshot>, "spans": <profiler aggregates>}
// to `path` and re-parses the file contents as a self-check. Returns false
// (with a message on stderr) on I/O or parse failure.
inline bool WriteTelemetryReport(const std::string& path) {
  const std::string json = "{\"metrics\":" +
                           obs::MetricsRegistry::Global().ToJson() +
                           ",\"spans\":" +
                           obs::Profiler::Global().AggregateReportJson() + "}";
  obs::JsonValue parsed;
  if (!obs::JsonParse(json, &parsed) || parsed.Find("metrics") == nullptr ||
      parsed.Find("spans") == nullptr) {
    std::fprintf(stderr, "telemetry report failed JSON self-check\n");
    return false;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  if (std::fclose(f) != 0 || written != json.size()) {
    std::fprintf(stderr, "short write to %s\n", path.c_str());
    return false;
  }
  std::printf("telemetry written to %s (%zu bytes)\n", path.c_str(),
              json.size());
  return true;
}

// Handles both telemetry flags at the end of a bench main(); returns false
// if a requested export failed (benches exit nonzero on that).
inline bool ExportTelemetry(int argc, char** argv) {
  bool ok = true;
  const std::string metrics = MetricsOutPath(argc, argv);
  if (!metrics.empty()) ok = WriteTelemetryReport(metrics) && ok;
  const std::string trace = TraceOutPath(argc, argv);
  if (!trace.empty()) {
    if (obs::Profiler::Global().WriteChromeTrace(trace)) {
      std::printf("chrome trace written to %s\n", trace.c_str());
    } else {
      std::fprintf(stderr, "cannot write chrome trace %s\n", trace.c_str());
      ok = false;
    }
  }
  return ok;
}

// MSD_BENCH_SCALE scales training effort (epochs); 1.0 is the default
// CPU-budget configuration, larger values train longer.
inline double BenchScale() {
  const char* env = std::getenv("MSD_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double v = std::atof(env);
  return v > 0.0 ? v : 1.0;
}

inline int64_t ScaledEpochs(int64_t base) {
  return std::max<int64_t>(1, static_cast<int64_t>(base * BenchScale()));
}

// Patch-size ladder derived from the dataset's dominant period, mirroring
// how the paper sets patch sizes from the sampling interval (§IV-A):
// {P, P/2, P/4, 2, 1} clipped to the lookback and deduplicated.
inline std::vector<int64_t> PatchLadder(int64_t period, int64_t lookback) {
  std::vector<int64_t> raw = {period, period / 2, period / 4, 2, 1};
  std::vector<int64_t> out;
  for (int64_t p : raw) {
    p = std::min(p, lookback);
    if (p >= 1 && (out.empty() || p < out.back())) out.push_back(p);
  }
  std::sort(out.rbegin(), out.rend());
  return out;
}

// Standard bench-sized MSD-Mixer configuration.
inline MsdMixerConfig MixerConfig(TaskType task, int64_t channels,
                                  int64_t input_length, int64_t horizon,
                                  int64_t period, int64_t num_classes = 2) {
  MsdMixerConfig config;
  config.input_length = input_length;
  config.channels = channels;
  config.patch_sizes = PatchLadder(period, input_length);
  config.model_dim = 16;
  config.hidden_dim = 32;
  config.drop_path = 0.0f;
  config.task = task;
  config.horizon = horizon;
  config.num_classes = num_classes;
  return config;
}

// Default trainer for bench runs; epochs scale with MSD_BENCH_SCALE.
inline TrainerConfig BenchTrainer(int64_t epochs, int64_t max_batches,
                                  float lr = 3e-3f) {
  TrainerConfig trainer;
  trainer.epochs = ScaledEpochs(epochs);
  trainer.batch_size = 32;
  trainer.lr = lr;
  trainer.max_batches_per_epoch = max_batches;
  trainer.grad_clip = 5.0f;
  return trainer;
}

// Evaluates the training-free (seasonal) naive forecaster over a window
// dataset; m <= 1 degenerates to last-value naive.
inline RegressionScores EvaluateNaiveOnDataset(const Dataset& test, int64_t m,
                                               int64_t batch_size = 64) {
  Rng rng(1);
  DataLoader loader(&test, batch_size, /*shuffle=*/false, rng);
  double sse = 0.0;
  double sae = 0.0;
  int64_t count = 0;
  for (int64_t b = 0; b < loader.NumBatches(); ++b) {
    Batch batch = loader.GetBatch(b);
    const int64_t horizon = batch.target.dim(2);
    Tensor pred = m > 1 ? SeasonalNaiveForecast(batch.input, horizon, m)
                        : NaiveForecast(batch.input, horizon);
    const int64_t n = pred.numel();
    sse += MseMetric(pred, batch.target) * static_cast<double>(n);
    sae += MaeMetric(pred, batch.target) * static_cast<double>(n);
    count += n;
  }
  return {sse / static_cast<double>(count), sae / static_cast<double>(count)};
}

// ---- Fixed-width table printing ---------------------------------------------

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers,
                        std::vector<int> widths)
      : headers_(std::move(headers)), widths_(std::move(widths)) {}

  void PrintHeader() const {
    PrintRule();
    for (size_t i = 0; i < headers_.size(); ++i) {
      std::printf("| %-*s ", widths_[i], headers_[i].c_str());
    }
    std::printf("|\n");
    PrintRule();
  }

  void PrintRow(const std::vector<std::string>& cells) const {
    for (size_t i = 0; i < cells.size() && i < widths_.size(); ++i) {
      std::printf("| %-*s ", widths_[i], cells[i].c_str());
    }
    std::printf("|\n");
  }

  void PrintRule() const {
    for (int w : widths_) {
      std::printf("+");
      for (int i = 0; i < w + 2; ++i) std::printf("-");
    }
    std::printf("+\n");
  }

 private:
  std::vector<std::string> headers_;
  std::vector<int> widths_;
};

inline std::string Fmt(double v, int precision = 3) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

// Table cell for a model's training cost, taken from the trainer's own
// telemetry (TrainStats::total_wall_seconds) rather than a bench-local timer.
inline std::string TrainSecondsCell(const TrainStats& stats) {
  return Fmt(stats.total_wall_seconds, 1) + "s";
}

// Marks the minimum value in a row of scores with an asterisk.
inline std::vector<std::string> MarkBest(const std::vector<double>& values,
                                         int precision = 3,
                                         bool lower_is_better = true) {
  double best = values[0];
  for (double v : values) {
    best = lower_is_better ? std::min(best, v) : std::max(best, v);
  }
  std::vector<std::string> out;
  for (double v : values) {
    out.push_back(v == best ? Fmt(v, precision) + "*" : Fmt(v, precision));
  }
  return out;
}

}  // namespace bench
}  // namespace msd

#endif  // MSDMIXER_BENCH_BENCH_UTIL_H_
