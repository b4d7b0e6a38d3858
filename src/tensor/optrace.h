// Thread-local forward-pass op capture (docs/COMPILER.md).
//
// The freeze-time planner records one interpreted forward by switching this
// capture on, running the model, and switching it off: every public op in
// tensor_ops.cc appends a RecordedOp describing the call it just executed
// (operands, output, attributes), and ops the plan executor cannot replay
// mark the trace unsupported instead. Capture is per-thread and costs one
// thread_local bool check per op when inactive.
//
// Recording contract:
//  * RecordedOp holds its operand and output Tensors BY VALUE. This pins
//    every buffer for the lifetime of the capture, so the pool cannot
//    recycle one mid-trace and two distinct logical buffers can never share
//    a data() pointer — buffer identity in the planner is pointer identity.
//  * Reshape is not an op: it shares storage, so a reshaped view records
//    under the same buffer with its per-use shape.
//  * Kernels' internal parallel chunks never record; only the public entry
//    points on the capturing thread do.
#ifndef MSDMIXER_TENSOR_OPTRACE_H_
#define MSDMIXER_TENSOR_OPTRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/tensor.h"

namespace msd {
namespace optrace {

// Leaf kernels the plan executor can replay (see serve/plan.cc and
// docs/COMPILER.md).
enum class OpKind {
  // Elementwise binary (broadcasting).
  kAdd,
  kSub,
  kMul,
  kDiv,
  // Elementwise with a scalar attribute.
  kAddScalar,
  kMulScalar,
  // Elementwise unary.
  kNeg,
  kExp,
  kLog,
  kSqrt,
  kAbs,
  kSquare,
  kRelu,
  kGelu,
  kSigmoid,
  kTanh,
  // Fused GEMM: act(a @ b + bias).
  kMatMulEx,
  // Reduction over `dims` (normalized, sorted).
  kSum,
  // Movement.
  kPermute,
  kSlice,
  kPad,
  // Straight buffer copy (Tensor::Clone during capture).
  kCopy
};

const char* OpKindName(OpKind kind);

struct RecordedOp {
  OpKind kind = OpKind::kAdd;
  // Operands in call order; an entry may be undefined (MatMulEx without a
  // bias). Held by value — see the pinning contract above.
  std::vector<Tensor> inputs;
  Tensor output;

  // Attributes; which fields are meaningful depends on `kind`.
  float scalar = 0.0f;             // kAddScalar / kMulScalar
  std::vector<int64_t> dims;       // kSum (normalized) / kPermute (perm)
  int64_t dim = 0;                 // kSlice / kPad axis
  int64_t start = 0;               // kSlice
  int64_t length = 0;              // kSlice
  int64_t before = 0;              // kPad
  int64_t after = 0;               // kPad
  float pad_value = 0.0f;          // kPad
  gemm::Activation act = gemm::Activation::kIdentity;  // kMatMulEx

  // Module path ("layer3/decoder/...") active when the op recorded; purely
  // diagnostic (plan DebugString, refusal reasons).
  std::string region;
};

struct Trace {
  std::vector<RecordedOp> ops;
  // Names of capture-breaking calls hit during the run; non-empty means the
  // planner must refuse this trace, which fails InferenceSession::Create
  // (there is no interpreted fallback).
  std::vector<std::string> unsupported;
};

// True while this thread is capturing.
bool Active();

// Starts capture on this thread. Fatal if already active (no nesting).
void Begin();

// Stops capture and returns everything recorded since Begin().
Trace End();

// Appends one op to the active capture. Callers guard with Active() so the
// RecordedOp is only materialized when tracing.
void Record(RecordedOp op);

// Marks the active capture unsupported (deduplicated by name).
void RecordUnsupported(const char* what);

// Pushes a module name onto this thread's region path for the scope. Active
// only during capture; otherwise construction is a single bool check.
class RegionScope {
 public:
  explicit RegionScope(const std::string& name);
  ~RegionScope();
  RegionScope(const RegionScope&) = delete;
  RegionScope& operator=(const RegionScope&) = delete;

 private:
  bool pushed_ = false;
};

}  // namespace optrace
}  // namespace msd

#endif  // MSDMIXER_TENSOR_OPTRACE_H_
