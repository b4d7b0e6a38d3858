#include "reference.h"

#include <pthread.h>

#include <cmath>

#include "common.h"

namespace perfbench {

namespace {

constexpr int kErf = 7168;  // about 100 us of std::erf on a quiet host

}  // namespace

Reference::Reference() : x_(kErf) {
  // Fixed, seed-independent contents: the work must not vary between runs.
  for (size_t i = 0; i < x_.size(); ++i) x_[i] = static_cast<float>(i % 97) * 0.06f - 3.0f;
}

int64_t Reference::Unit() {
  const int64_t start = ThreadCpuNs();
  double sink = 0.0;
  for (float x : x_) sink += std::erf(x);
  sink_ += sink;
  return ThreadCpuNs() - start;
}

int64_t Reference::Probe(int64_t units) {
  int64_t total = 0;
  for (int64_t u = 0; u < units; ++u) {
    PinToCpu(pthread_self(), u);
    total += Unit();
  }
  PinToCpu(pthread_self(), -1);
  return total;
}

double Reference::Scale(int64_t unit_ns, int64_t units) {
  if (unit_ns <= 0 || units <= 0) return 1.0;
  return kNominalUnitUs * 1e3 * static_cast<double>(units) / static_cast<double>(unit_ns);
}

UnitSampler::UnitSampler(Reference& ref, double interval_ms, int64_t cpu_index)
    : ref_(ref), interval_ns_(static_cast<int64_t>(interval_ms * 1e6)), cpu_(cpu_index) {
  thread_ = std::thread([this] { Run(); });
}

UnitSampler::~UnitSampler() { Stop(); }

int64_t UnitSampler::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  if (totals_.second == 0) totals_ = {ref_.Unit(), 1};
  return own_cpu_ns_;
}

std::pair<int64_t, int64_t> UnitSampler::Totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_;
}

void UnitSampler::Run() {
  int64_t next = NowNs() + interval_ns_;
  while (!stop_.load(std::memory_order_relaxed)) {
    if (NowNs() < next) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      continue;
    }
    PinToCpu(pthread_self(), cpu_.load(std::memory_order_relaxed));
    const int64_t ns = ref_.Unit();
    PinToCpu(pthread_self(), -1);
    {
      std::lock_guard<std::mutex> lock(mu_);
      totals_.first += ns;
      ++totals_.second;
    }
    next = NowNs() + interval_ns_;
  }
  own_cpu_ns_ = ThreadCpuNs();
}

}  // namespace perfbench
