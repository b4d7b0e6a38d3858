#include "common.h"

#include <cpuid.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/rng.h"
#include "core/msd_mixer.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "runtime/parallel.h"
#include "tasks/pipeline.h"

namespace perfbench {

using msd::obs::JsonEscape;
using msd::obs::JsonParse;

namespace {

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(3);
}

std::string Num17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::stringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

}  // namespace

// ---- WorkloadConfig ----------------------------------------------------------

double WorkloadConfig::Num(const std::string& key) const {
  const JsonValue* v = object_ == nullptr ? nullptr : object_->Find(key);
  if (v == nullptr) Die("workload constant missing: " + key);
  if (v->type == JsonValue::Type::kBool) return v->boolean ? 1.0 : 0.0;
  if (!v->is_number()) Die("workload constant is not a number: " + key);
  return v->number;
}

int64_t WorkloadConfig::Int(const std::string& key) const {
  return static_cast<int64_t>(std::llround(Num(key)));
}

std::vector<double> WorkloadConfig::NumList(const std::string& key) const {
  const JsonValue* v = object_ == nullptr ? nullptr : object_->Find(key);
  if (v == nullptr || !v->is_array()) Die("workload list missing: " + key);
  std::vector<double> out;
  for (const JsonValue& item : v->array) {
    if (!item.is_number()) Die("workload list has a non-number: " + key);
    out.push_back(item.number);
  }
  return out;
}

// ---- Report ------------------------------------------------------------------

Phase& Report::AddPhase(const std::string& name) {
  phases_.push_back({name, 0, 0});
  return phases_.back();
}

void Report::Fail(Phase& phase, const std::string& why) {
  ++phase.failed;
  // The first few reasons are enough to debug; the count is in the phase.
  if (failure_notes_++ < 8) {
    std::fprintf(stderr, "perfbench: FAILED [%s] %s\n", phase.name.c_str(),
                 why.substr(0, 300).c_str());
  }
}

void Report::Set(const std::string& name, double value) {
  metrics_[name] = value;
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

int Report::Finish(const Args& args) {
  std::string text;
  JsonValue doc;
  if (!ReadFile(args.benchmark_json, &text) || !JsonParse(text, &doc)) {
    Die("cannot read " + args.benchmark_json);
  }
  const JsonValue* list = doc.Find(args.trace ? "per_layer" : "end_to_end");
  if (list == nullptr || !list->is_array()) Die("BENCHMARK.json has no metric list");

  for (const std::string& note : notes_) std::printf("%s\n", note.c_str());
  int64_t attempted = 0;
  int64_t failed = 0;
  for (const Phase& p : phases_) {
    std::printf("phase %-10s attempted=%lld failed=%lld\n", p.name.c_str(),
                static_cast<long long>(p.attempted),
                static_cast<long long>(p.failed));
    attempted += p.attempted;
    failed += p.failed;
  }

  std::string metrics;
  std::vector<std::string> idle;
  std::map<std::string, double> unlisted = metrics_;
  for (const JsonValue& m : list->array) {
    const JsonValue* name = m.Find("name");
    const JsonValue* unit = m.Find("unit");
    if (name == nullptr || unit == nullptr) Die("malformed metric entry");
    auto it = metrics_.find(name->str);
    double value = 0.0;
    if (it != metrics_.end()) {
      value = it->second;
      unlisted.erase(name->str);
    } else if (args.trace) {
      // A layer this workload does not exercise reads 0.
      idle.push_back(name->str);
    } else {
      Die("end-to-end metric not measured: " + name->str);
    }
    if (!std::isfinite(value)) Die("non-finite metric: " + name->str);
    if (!metrics.empty()) metrics += ", ";
    metrics.append("\"").append(JsonEscape(name->str)).append("\": {\"value\": ");
    metrics.append(Num17(value)).append(", \"unit\": \"");
    metrics.append(JsonEscape(unit->str)).append("\"}");
  }
  if (!unlisted.empty()) {
    Die("metric missing from BENCHMARK.json: " + unlisted.begin()->first);
  }
  if (!idle.empty()) {
    std::string joined;
    for (const std::string& n : idle) joined += (joined.empty() ? "" : " ") + n;
    std::printf("not exercised by %s (reported as 0): %s\n",
                args.workload.c_str(), joined.c_str());
  }
  const bool correct = failed == 0 && attempted > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<long long>(attempted),
      static_cast<long long>(failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// ---- order statistics ----------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

void LogSamples(const char* metric, const std::vector<double>& values) {
  std::string line;
  for (double v : values) line.append(" ").append(Num17(v).substr(0, 8));
  std::fprintf(stderr, "perfbench: samples %s:%s\n", metric, line.c_str());
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

Tail HighestSupportedPercentile(std::vector<double> values) {
  Tail tail;
  tail.samples = static_cast<int64_t>(values.size());
  std::sort(values.begin(), values.end());
  const int64_t n = tail.samples;
  for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    // Nearest-rank percentile; count the samples strictly above it.
    int64_t rank = static_cast<int64_t>(std::ceil(pct / 100.0 * n)) - 1;
    if (rank < 0) continue;
    const double v = values[static_cast<size_t>(rank)];
    const int64_t above = values.end() - std::upper_bound(values.begin(), values.end(), v);
    if (above >= 10) {
      tail.value = v;
      tail.pct = pct;
      return tail;
    }
  }
  return tail;
}

// ---- snapshots -------------------------------------------------------------------

Snapshot Snapshot::Take() {
  Snapshot snap;
  JsonValue doc;
  if (!JsonParse(msd::obs::MetricsRegistry::Global().ToJson(), &doc)) {
    Die("metrics registry export did not parse");
  }
  if (const JsonValue* c = doc.Find("counters")) {
    for (const auto& [name, v] : c->object) {
      snap.counters[name] = static_cast<int64_t>(v.number);
    }
  }
  if (const JsonValue* g = doc.Find("gauges")) {
    for (const auto& [name, v] : g->object) snap.gauges[name] = v.number;
  }
  if (const JsonValue* h = doc.Find("histograms")) {
    for (const auto& [name, v] : h->object) {
      Hist hist;
      if (const JsonValue* n = v.Find("count")) hist.count = static_cast<int64_t>(n->number);
      if (const JsonValue* s = v.Find("sum")) hist.sum = s->number;
      if (const JsonValue* b = v.Find("buckets")) {
        for (const JsonValue& bucket : b->array) {
          const JsonValue* le = bucket.Find("le");
          const JsonValue* count = bucket.Find("count");
          if (le == nullptr || count == nullptr) continue;
          if (le->is_number()) hist.bounds.push_back(le->number);
          hist.buckets.push_back(static_cast<int64_t>(count->number));
        }
      }
      snap.histograms[name] = std::move(hist);
    }
  }
  return snap;
}

int64_t Snapshot::Counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

double Snapshot::Gauge(const std::string& name) const {
  auto it = gauges.find(name);
  return it == gauges.end() ? 0.0 : it->second;
}

const Snapshot::Hist* Snapshot::Histogram(const std::string& name) const {
  auto it = histograms.find(name);
  return it == histograms.end() ? nullptr : &it->second;
}

int64_t Delta(const Snapshot& before, const Snapshot& after,
              const std::string& counter) {
  return after.Counter(counter) - before.Counter(counter);
}

double HistQuantile(const Snapshot& before, const Snapshot& after,
                    const std::string& name, double q) {
  const Snapshot::Hist* a = after.Histogram(name);
  if (a == nullptr) return 0.0;
  const Snapshot::Hist* b = before.Histogram(name);
  std::vector<int64_t> delta = a->buckets;
  int64_t total = 0;
  for (size_t i = 0; i < delta.size(); ++i) {
    if (b != nullptr && i < b->buckets.size()) delta[i] -= b->buckets[i];
    total += delta[i];
  }
  if (total <= 0) return 0.0;
  return msd::obs::QuantileFromBuckets(a->bounds, delta, q);
}

double HistMean(const Snapshot& before, const Snapshot& after,
                const std::string& name) {
  const Snapshot::Hist* a = after.Histogram(name);
  if (a == nullptr) return 0.0;
  const Snapshot::Hist* b = before.Histogram(name);
  const int64_t count = a->count - (b == nullptr ? 0 : b->count);
  const double sum = a->sum - (b == nullptr ? 0.0 : b->sum);
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

// ---- trace -----------------------------------------------------------------------

int64_t Trace::Add(const char* name, int64_t start_ns, int64_t end_ns,
                   int64_t parent, int64_t request_id) {
  spans_.push_back({name, start_ns, end_ns, parent, request_id});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Trace::AddPhaseCounters(const std::string& phase, const Snapshot& before,
                             const Snapshot& after) {
  std::string body;
  for (const auto& [name, value] : after.counters) {
    const int64_t d = value - before.Counter(name);
    if (d == 0) continue;
    if (!body.empty()) body += ", ";
    body.append("\"").append(JsonEscape(name)).append("\": ").append(std::to_string(d));
  }
  std::string entry = "{\"phase\": \"";
  entry.append(JsonEscape(phase)).append("\", \"counter_deltas\": {");
  entry.append(body).append("}}");
  phase_counters_.push_back(std::move(entry));
}

bool Trace::Write(const std::string& path, const std::string& provenance) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"provenance\": " << provenance << ",\n\"phases\": [";
  for (size_t i = 0; i < phase_counters_.size(); ++i) {
    out << (i ? ",\n" : "\n") << phase_counters_[i];
  }
  out << "],\n\"profiler\": "
      << msd::obs::Profiler::Global().AggregateReportJson()
      << ",\n\"traceEvents\": [";
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": %lld, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"span\": %zu, \"parent\": %lld, \"request\": %lld}}",
                  i ? "," : "", s.name,
                  static_cast<long long>(s.request_id % 64),
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  static_cast<long long>(s.parent),
                  static_cast<long long>(s.request_id));
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// ---- environment -------------------------------------------------------------------

namespace {

std::string CpuModel() {
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  model.erase(0, model.find_first_not_of(' '));
  return model;
}

}  // namespace

std::string ProvenanceJson(const Args& args) {
  __builtin_cpu_init();
  const char* threads_env = std::getenv("MSD_THREADS");
  std::ostringstream os;
  os << "{\"workload\": \"" << JsonEscape(args.workload) << "\", \"seed\": "
     << args.seed << ", \"seconds\": " << args.seconds
     << ", \"trace\": " << (args.trace ? 1 : 0)
     << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN) << ", \"cpu\": \""
     << JsonEscape(CpuModel()) << "\", \"avx2\": "
     << (__builtin_cpu_supports("avx2") ? "true" : "false")
     << ", \"avx512f\": "
     << (__builtin_cpu_supports("avx512f") ? "true" : "false")
     << ", \"build_type\": \"" << MSD_BUILD_TYPE_STRING
     << "\", \"msd_threads\": \""
     << JsonEscape(threads_env == nullptr ? "" : threads_env)
     << "\", \"runtime_threads\": " << msd::runtime::NumThreads()
     << ", \"commit\": \"" << JsonEscape(args.commit) << "\"}";
  return os.str();
}

std::string EnvironmentProblem() {
  if (std::string(MSD_BUILD_TYPE_STRING) != "release") {
    return std::string("refusing a '") + MSD_BUILD_TYPE_STRING +
           "' build: numbers only come from Release";
  }
  for (const char* name :
       {"MSD_PLAN", "MSD_QUANT", "MSD_DISABLE_POOL", "MSD_POOL_CAP_MB"}) {
    if (std::getenv(name) != nullptr) {
      return std::string("refusing to run with ") + name +
             " set: it silently changes the program being measured";
    }
  }
  return "";
}

void PinToCpu(pthread_t thread, int64_t index) {
  static const cpu_set_t initial = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    sched_getaffinity(0, sizeof(set), &set);
    return set;
  }();
  cpu_set_t target = initial;
  if (index >= 0) {
    const int64_t n = CPU_COUNT(&initial);
    int64_t wanted = index % n;
    CPU_ZERO(&target);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &initial) && wanted-- == 0) {
        CPU_SET(cpu, &target);
        break;
      }
    }
  }
  pthread_setaffinity_np(thread, sizeof(target), &target);
}

HostTicks HostTicks::Read() {
  HostTicks t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  for (int field = 0; field < 8 && in; ++field) {
    int64_t ticks = 0;
    in >> ticks;
    t.total += ticks;
    if (field == 7) t.steal = ticks;
  }
  return t;
}

double StealPct(const HostTicks& before, const HostTicks& after) {
  const int64_t total = after.total - before.total;
  return total > 0 ? 100.0 * static_cast<double>(after.steal - before.steal) /
                         static_cast<double>(total)
                   : 0.0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t Fnv1a(const void* data, size_t bytes, uint64_t hash) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string Hex(uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

ModelFootprint ForecastFootprint(const std::string& checkpoint, int64_t channels,
                                 int64_t lookback, int64_t horizon,
                                 int64_t model_dim, int64_t hidden_dim) {
  auto meta = msd::LoadForecastMeta(checkpoint);
  if (!meta.ok()) Die("LoadForecastMeta: " + meta.status().ToString());
  msd::MsdMixerConfig mc;
  mc.input_length = lookback;
  mc.channels = channels;
  mc.patch_sizes = meta.value().patch_sizes;
  mc.model_dim = model_dim;
  mc.hidden_dim = hidden_dim;
  mc.task = msd::TaskType::kForecast;
  mc.horizon = horizon;
  mc.use_instance_norm = true;
  msd::Rng rng(1);
  const msd::MsdMixer model(mc, rng);
  return {static_cast<double>(model.ApproxForwardFlopsPerItem()),
          static_cast<double>(model.ParameterBytes())};
}

Tensor GatherWindows(const Tensor& series, const std::vector<int64_t>& offsets,
                     int64_t length) {
  const int64_t channels = series.dim(0);
  const int64_t total = series.dim(1);
  Tensor batch({static_cast<int64_t>(offsets.size()), channels, length});
  float* dst = batch.data();
  const float* src = series.data();
  for (int64_t offset : offsets) {
    for (int64_t c = 0; c < channels; ++c) {
      std::memcpy(dst, src + c * total + offset, sizeof(float) * length);
      dst += length;
    }
  }
  return batch;
}

std::vector<double> InverseChannelVariance(const Tensor& series) {
  const int64_t channels = series.dim(0);
  const int64_t length = series.dim(1);
  std::vector<double> inv(static_cast<size_t>(channels));
  for (int64_t c = 0; c < channels; ++c) {
    const float* row = series.data() + c * length;
    double mean = 0.0;
    for (int64_t t = 0; t < length; ++t) mean += row[t];
    mean /= static_cast<double>(length);
    double var = 0.0;
    for (int64_t t = 0; t < length; ++t) var += (row[t] - mean) * (row[t] - mean);
    var /= static_cast<double>(length);
    inv[static_cast<size_t>(c)] = var > 0.0 ? 1.0 / var : 1.0;
  }
  return inv;
}

double SquaredErrorSum(const Tensor& a, const Tensor& b,
                       const std::vector<double>& inv_var) {
  const int64_t channels = static_cast<int64_t>(inv_var.size());
  const int64_t horizon = a.dim(a.rank() - 1);
  double sum = 0.0;
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.numel(); ++i) {
    const double d = static_cast<double>(pa[i]) - static_cast<double>(pb[i]);
    sum += d * d * inv_var[static_cast<size_t>((i / horizon) % channels)];
  }
  return sum;
}

}  // namespace perfbench
