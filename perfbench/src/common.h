// Shared plumbing for the perfbench workloads: arguments and workload
// constants, the result report, order statistics, metric-registry
// snapshots, the in-memory span trace and the process provenance stamp.
#ifndef MSDMIXER_PERFBENCH_COMMON_H_
#define MSDMIXER_PERFBENCH_COMMON_H_

#include <pthread.h>
#include <time.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "obs/json.h"
#include "tensor/tensor.h"

namespace perfbench {

using msd::Tensor;
using msd::obs::JsonValue;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU clocks. On a shared VM the hypervisor gives a vCPU to other guests
// for tens of milliseconds at a time (steal); wall time counts those gaps,
// CPU time does not. Compute-bound end-to-end figures are therefore read
// from these clocks, and their wall-clock twins are per-layer metrics.
inline int64_t CpuNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}
// Every thread of this process.
inline int64_t ProcessCpuNs() { return CpuNs(CLOCK_PROCESS_CPUTIME_ID); }
// The calling thread only.
inline int64_t ThreadCpuNs() { return CpuNs(CLOCK_THREAD_CPUTIME_ID); }

// Moves `thread` onto the (index mod n)-th of the n vCPUs this process
// started with, or back onto all of them when index < 0. Other guests slow
// each vCPU differently, and for minutes at a time, so a single-threaded
// workload rotates its work through every vCPU: no one vCPU's neighbours
// set a whole run's figure.
void PinToCpu(pthread_t thread, int64_t index);

// Host CPU time stolen by other guests, as a share of all CPU time, between
// two readings of /proc/stat (a validity figure, like loadgen lateness).
struct HostTicks {
  int64_t steal = 0;
  int64_t total = 0;
  static HostTicks Read();
};
double StealPct(const HostTicks& before, const HostTicks& after);

// One workload's constants, read from perfbench/workloads.json.
class WorkloadConfig {
 public:
  WorkloadConfig() = default;
  explicit WorkloadConfig(const JsonValue* object) : object_(object) {}
  // Fatal when the key is missing or not a number: a constant the
  // benchmark needs is never defaulted silently.
  double Num(const std::string& key) const;
  int64_t Int(const std::string& key) const;
  std::vector<double> NumList(const std::string& key) const;

 private:
  const JsonValue* object_ = nullptr;
};

struct Args {
  std::string mode;  // "fixture" or "run"
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir;        // fixtures and the socket
  std::string trace_out;       // where a traced run writes its spans
  std::string benchmark_json;  // metric names and units
  std::string commit = "unknown";
  // Test hook: flips one oracle value so the output checks must fail.
  bool corrupt_oracle = false;
  WorkloadConfig config;
};

// Operations of one phase; a failure is an error reply, a refused
// admission, a byte mismatch or a non-finite loss.
struct Phase {
  std::string name;
  int64_t attempted = 0;
  int64_t failed = 0;
};

class Report {
 public:
  Phase& AddPhase(const std::string& name);
  // Records one failure of `phase` with a reason printed to stderr.
  void Fail(Phase& phase, const std::string& why);
  void Set(const std::string& name, double value);
  // A note printed to stdout before the result line (provenance, digests,
  // the adjacent-layer checks).
  void Note(const std::string& line);

  // Prints the notes and phases, then the one-line result with exactly the
  // metrics BENCHMARK.json lists for this mode. Returns the exit code.
  int Finish(const Args& args);

 private:
  std::deque<Phase> phases_;  // stable references for AddPhase callers
  std::map<std::string, double> metrics_;
  std::vector<std::string> notes_;
  int64_t failure_notes_ = 0;
};

// ---- order statistics ------------------------------------------------------

double Median(std::vector<double> values);
// Prints the samples behind a reported median to stderr, for diagnosis.
void LogSamples(const char* metric, const std::vector<double>& values);
double Mean(const std::vector<double>& values);
// The highest of p50/p75/p90/p95/p99/p99.9 with at least ten samples above
// it. pct is 0 when there are fewer than eleven samples.
struct Tail {
  double value = 0.0;
  double pct = 0.0;
  int64_t samples = 0;
};
Tail HighestSupportedPercentile(std::vector<double> values);

// Pool hits over pool requests; 1 when the phase made no pool request at all
// (a frozen plan serves from its arena), since nothing missed.
inline double PoolHitRatio(int64_t hits, int64_t misses) {
  return hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses)
                           : 1.0;
}

// ---- metric-registry snapshots ---------------------------------------------

// Counters, gauges and histogram buckets read by name from the process-wide
// registry's JSON export, so the benchmark depends only on metric names.
struct Snapshot {
  struct Hist {
    int64_t count = 0;
    double sum = 0.0;
    std::vector<double> bounds;
    std::vector<int64_t> buckets;
  };
  std::map<std::string, int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Hist> histograms;

  static Snapshot Take();
  int64_t Counter(const std::string& name) const;
  double Gauge(const std::string& name) const;
  const Hist* Histogram(const std::string& name) const;
};

// after - before for a counter (0 when absent).
int64_t Delta(const Snapshot& before, const Snapshot& after,
              const std::string& counter);
// Quantile and mean of the observations a histogram received between two
// snapshots (0 when it received none).
double HistQuantile(const Snapshot& before, const Snapshot& after,
                    const std::string& name, double q);
double HistMean(const Snapshot& before, const Snapshot& after,
                const std::string& name);

// ---- trace -------------------------------------------------------------------

// The benchmark's own spans, kept in memory and written out at exit.
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int64_t parent;      // index into the span list, -1 for a root
  int64_t request_id;  // shared by all spans of one request
};

class Trace {
 public:
  int64_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int64_t parent, int64_t request_id);
  void AddPhaseCounters(const std::string& phase, const Snapshot& before,
                        const Snapshot& after);
  // chrome://tracing JSON with the provenance, the counter deltas at every
  // phase boundary and the obs::Profiler aggregates alongside.
  bool Write(const std::string& path, const std::string& provenance) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::string> phase_counters_;
};

// ---- environment -------------------------------------------------------------

// nproc, CPU model, ISA flags, build type, MSD_THREADS, seed and commit as
// one JSON object.
std::string ProvenanceJson(const Args& args);
// Refuses a non-Release build and any environment override that silently
// changes the program being measured. Returns an empty string when clean.
std::string EnvironmentProblem();
// Peak resident set size of this process in MiB.
double PeakRssMb();

// FNV-1a over raw bytes: the digest that pins outputs across runs.
uint64_t Fnv1a(const void* data, size_t bytes, uint64_t hash = 1469598103934665603ull);
std::string Hex(uint64_t value);

// The served forecast model's size, rebuilt from a checkpoint's .meta patch
// ladder: Module::ApproxForwardFlopsPerItem and the parameter bytes.
struct ModelFootprint {
  double flops_per_window = 0.0;
  double parameter_bytes = 0.0;
};
ModelFootprint ForecastFootprint(const std::string& checkpoint, int64_t channels,
                                 int64_t lookback, int64_t horizon,
                                 int64_t model_dim, int64_t hidden_dim);

// Copies window rows out of a [C, T] series into one [B, C, L] batch.
Tensor GatherWindows(const Tensor& series, const std::vector<int64_t>& offsets,
                     int64_t length);
// Forecast error is reported the way the paper reports it: in units of each
// channel's standard deviation (here over the series the windows come from),
// so a seed whose series happens to be larger in scale does not weigh more.
std::vector<double> InverseChannelVariance(const Tensor& series);
// Sum of squared errors between equally shaped [..., C, H] tensors, each
// channel weighted by `inv_var` (one entry per channel), in double.
double SquaredErrorSum(const Tensor& a, const Tensor& b,
                       const std::vector<double>& inv_var);

}  // namespace perfbench

#endif  // MSDMIXER_PERFBENCH_COMMON_H_
