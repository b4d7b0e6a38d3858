// The reference computation: a fixed piece of work, compiled into the
// benchmark and never into the program, that the benchmark times on the
// same vCPU right next to the program's own work.
//
// On a shared VM the speed of one CPU second follows the other guests:
// they share the physical cores, the caches and the memory, and made every
// workload here take 1.5-2.2x the CPU time for minutes at a time. The
// program and the reference slow down together, so the benchmark reports
// its CPU times scaled to a nominal machine on which one reference unit
// takes exactly kNominalUnitUs:
//
//   scaled = measured CPU time x kNominalUnitUs / measured unit time.
//
// A change to the program moves its own times and not the reference's, so
// the scaled figure moves with the code and not with the host. A unit is
// std::erf over a fixed array of floats: scalar, latency-bound libm code,
// like the fp32 GELU. Of the parts tried (an fp32 GEMM and int8 dot
// products in L1, erf, a walk served by the L3), it followed every
// workload's CPU time most closely (perfbench/README.md, "The reference").
#ifndef MSDMIXER_PERFBENCH_REFERENCE_H_
#define MSDMIXER_PERFBENCH_REFERENCE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

class Reference {
 public:
  // About one unit's CPU time on a quiet host, so that scaled figures read
  // like quiet-host CPU figures.
  static constexpr double kNominalUnitUs = 100.0;

  Reference();

  // Runs one unit on the calling thread and returns its CPU time in ns.
  int64_t Unit();
  // Runs `units` units, moving the calling thread through the vCPUs one
  // unit at a time, and returns their CPU time in ns; the thread is free to
  // run anywhere afterwards.
  int64_t Probe(int64_t units);

  // The factor that scales a CPU time measured while `units` units took
  // `unit_ns` in total to the nominal machine.
  static double Scale(int64_t unit_ns, int64_t units);

 private:
  std::vector<float> x_;  // erf input
  double sink_ = 0.0;
};

// Samples the reference while another thread works: every `interval_ms` a
// thread of its own moves onto the vCPU that Follow() names, runs one unit
// there and moves off again. The working thread's CPU clock does not count
// the units, and the units see what that vCPU's neighbours do to it while
// the work runs.
class UnitSampler {
 public:
  UnitSampler(Reference& ref, double interval_ms, int64_t cpu_index);
  ~UnitSampler();
  UnitSampler(const UnitSampler&) = delete;
  UnitSampler& operator=(const UnitSampler&) = delete;

  // Moves the sampling onto the index-th vCPU, as PinToCpu counts them.
  void Follow(int64_t cpu_index) { cpu_.store(cpu_index, std::memory_order_relaxed); }
  // The units' CPU ns and their count so far.
  std::pair<int64_t, int64_t> Totals() const;
  // Stops sampling and returns the sampler thread's own CPU ns, units and
  // polling included, for callers that read the whole process's CPU clock.
  // Work shorter than one interval gets one unit run here, on the calling
  // thread, so every sample has at least one unit.
  int64_t Stop();

 private:
  void Run();

  Reference& ref_;
  int64_t interval_ns_;
  std::atomic<int64_t> cpu_;
  mutable std::mutex mu_;
  std::pair<int64_t, int64_t> totals_{0, 0};  // guarded by mu_
  std::atomic<bool> stop_{false};
  int64_t own_cpu_ns_ = 0;  // written by the thread as it ends
  std::thread thread_;
};

}  // namespace perfbench

#endif  // MSDMIXER_PERFBENCH_REFERENCE_H_
