// Session-freeze inference compiler (docs/COMPILER.md).
//
// A CompiledPlan is built once per session at freeze time, for up to R rows
// (the example's leading dim): the planner records the interpreted forward
// through the op trace (tensor/optrace.h) at R rows and at one row, requires
// the two traces to agree op for op with every non-constant buffer
// batch-outer (leading dim R times its one-row size, all other dims equal),
// flattens the R-row trace into a static schedule of kernel calls with fully
// resolved shapes, runs lifetime analysis over every traced buffer, and packs
// all intermediates into ONE arena allocation with first-fit offset reuse.
// Execute() then replays the schedule on any row count r in 1..R through
// prebuilt views onto the r-row prefix of every region: no pool lookups, no
// tensor allocations, no shared_ptr churn per op — the only steady-state
// costs outside the kernels themselves are two memcpys (input staging,
// result export) and one control block for the reply tensor's owner.
//
// Correctness contract: Execute(x) is bit-identical (memcmp) to the
// interpreted forward on x, for any row count and any MSD_THREADS value.
// Compile() enforces it at R rows and at one row by replaying the example and
// its first row through the freshly built plan and memcmp-ing against the
// traced outputs, discarding the plan on any mismatch. tests/plan_test.cc
// sweeps the contract across task heads, thread counts, and every row count.
//
// Thread safety: Execute mutates the arena, so calls on one plan must be
// serialized — the owning InferenceSession's model mutex is the exclusion
// domain. There is no interpreted fallback: a refused plan fails
// InferenceSession::Create.
#ifndef MSDMIXER_SERVE_PLAN_H_
#define MSDMIXER_SERVE_PLAN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tensor/arena.h"
#include "tensor/optrace.h"
#include "tensor/tensor.h"

namespace msd {
namespace serve {

// Aggregate facts about a built plan, for gauges, logs, and tests.
struct PlanStats {
  int64_t traced_ops = 0;    // ops recorded by the interpreted forward
  int64_t num_ops = 0;       // schedule length: traced_ops - num_fused
  int64_t num_fused = 0;     // Linear pairs merged into one step (fp32)
  int64_t num_inplace = 0;   // outputs aliased onto a dying operand's region
  int64_t num_prepacked = 0;  // constant GEMM weights packed at freeze time
  int64_t num_regions = 0;   // arena regions after aliasing
  int64_t arena_bytes = 0;   // single allocation backing all regions
  int64_t num_quantized = 0;        // GEMM steps rewritten to int8
  int64_t num_quant_fallbacks = 0;  // candidates kept fp32 by calibration
  int64_t quant_arena_bytes = 0;    // activation-quant scratch arena
};

// Int8 calibration gate: a quantization candidate whose output deviates from
// the fp32 step output on the freeze example by more than this relative
// Frobenius error stays fp32 (counted in num_quant_fallbacks).
constexpr float kQuantMaxRelError = 0.05f;

// Knobs for CompiledPlan::Compile. Defaults reproduce the fp32 plan exactly.
struct CompileOptions {
  // Rewrite eligible constant-weight rank-2 GEMM steps to the int8 kernels
  // (tensor/qgemm.h): weights quantize at freeze time, activations per
  // request. Every candidate is calibrated against the fp32 step it
  // replaces; see kQuantMaxRelError. Off by default — an fp32 plan stays
  // bit-identical to the interpreted forward.
  bool quantize = false;
};

// One arena region's placement and lifetime, exposed for the planner tests
// (offset disjointness under overlapping lifetimes is an invariant there).
struct RegionInfo {
  int64_t offset = 0;      // byte offset into the arena, 64-aligned
  int64_t bytes = 0;       // payload size (0 for zero-numel buffers)
  int64_t first_def = 0;   // earliest defining step (-1: staged input)
  int64_t last_use = 0;    // latest reading step (num_ops: plan output)
};

class CompiledPlan {
 public:
  // The forward to freeze: takes the request batch, returns the reply.
  using ForwardFn = std::function<Tensor(const Tensor&)>;

  // Records interpreted runs of `fn` on `example` (R = example.dim(0) rows)
  // and on its first row, builds the schedule + memory plan from the R-row
  // run, and validates it by replaying both inputs and memcmp-ing against
  // the interpreted outputs. Returns null — with a reason in `why_not` when
  // provided — if the trace hit an unsupported op, the two runs disagree or
  // a buffer is not batch-outer (the reason names the op), or a validation
  // replay was not bit-identical. With options.quantize, a
  // quantization pass then runs AFTER that fp32 validation: each prepacked
  // GEMM step is re-executed int8 against the example and adopted only when
  // its output stays within kQuantMaxRelError of the fp32 step
  // (per-step fallback otherwise) — so a quantized plan's fp32 remainder is
  // still the validated schedule, and the bit-identity contract narrows to
  // "identical except the adopted int8 steps".
  static std::unique_ptr<CompiledPlan> Compile(
      const ForwardFn& fn, const Tensor& example,
      std::string* why_not = nullptr,
      const CompileOptions& options = CompileOptions());

  // Replays the schedule on `input`: the example's shape with any leading
  // dim r in 1..R. The reply tensor is backed by a recycled result block,
  // not the tensor pool. Callers must serialize calls per plan (see
  // thread-safety note above).
  Tensor Execute(const Tensor& input);

  const PlanStats& stats() const { return stats_; }

  // Region table for the planner tests.
  std::vector<RegionInfo> Regions() const;

  // Human-readable schedule: one line per step with kind, shapes, region
  // offsets, and the module path that produced the op.
  std::string DebugString() const;

  ~CompiledPlan();

 private:
  // Recycles result-block buffers across requests. shared_ptr-owned so a
  // reply tensor can outlive the plan (its deleter keeps the pool alive).
  class ResultPool;

  // One schedule entry: a kernel kind plus its attributes and freeze-time
  // packed weights.
  struct Step;

  // A step's operand/output views at one row count: arena-region prefixes,
  // or the pinned constant buffers themselves.
  struct Operands {
    Tensor a, b, c;  // b/c undefined where the kind takes fewer
    Tensor out;
  };

  // Every view a replay of r rows touches, built at freeze time.
  struct RowViews {
    Tensor input;   // staging region prefix
    Tensor output;  // final region prefix
    std::vector<Operands> steps;  // parallel to steps_
  };

  CompiledPlan();

  // Runs one schedule step (the Execute switch body); shared between
  // Execute and the quantization pass's calibration replay.
  void RunStep(const Step& s, Operands& v);

  // The quantization pass (options.quantize): replays `example` step by
  // step in fp32, re-executes each prepacked GEMM step int8 into scratch,
  // and adopts candidates within kQuantMaxRelError of their fp32 output.
  // Calibration always compares against fp32 *inputs* (the replay keeps
  // fp32 results in the arena), so per-step error never compounds.
  void QuantizePass(const Tensor& example);

  std::vector<Step> steps_;
  // Index r-1 replays r rows; the last entry is the traced R-row layout.
  std::vector<RowViews> rows_;
  // Pinned constant tensors (weights, scaler stats, traced literals); holding
  // them keeps every non-arena operand buffer alive for the plan's lifetime.
  std::vector<Tensor> constants_;
  std::unique_ptr<arena::Arena> arena_;
  // Activation-quant scratch shared by every quantized step (a quantized
  // activation dies within its own step, so one arena sized for the largest
  // step suffices): int16 rows at offset 0, per-row scales above them.
  std::unique_ptr<arena::Arena> quant_arena_;
  int64_t quant_scales_offset_ = 0;  // byte offset of the scale block
  std::shared_ptr<ResultPool> results_;
  PlanStats stats_;
  std::vector<RegionInfo> regions_;
};

}  // namespace serve
}  // namespace msd

#endif  // MSDMIXER_SERVE_PLAN_H_
