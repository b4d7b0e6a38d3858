#include "tensor/optrace.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace msd {
namespace optrace {

namespace {

// All capture state is thread-local: concurrent request threads can never
// observe (or pollute) a freeze-time capture running on another thread.
thread_local bool t_active = false;
thread_local Trace t_trace;
thread_local std::vector<std::string> t_regions;

std::string JoinedRegion() {
  std::string path;
  for (const std::string& r : t_regions) {
    if (!path.empty()) path += '/';
    path += r;
  }
  return path;
}

}  // namespace

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kAdd: return "Add";
    case OpKind::kSub: return "Sub";
    case OpKind::kMul: return "Mul";
    case OpKind::kDiv: return "Div";
    case OpKind::kAddScalar: return "AddScalar";
    case OpKind::kMulScalar: return "MulScalar";
    case OpKind::kNeg: return "Neg";
    case OpKind::kExp: return "Exp";
    case OpKind::kLog: return "Log";
    case OpKind::kSqrt: return "Sqrt";
    case OpKind::kAbs: return "Abs";
    case OpKind::kSquare: return "Square";
    case OpKind::kRelu: return "Relu";
    case OpKind::kGelu: return "Gelu";
    case OpKind::kSigmoid: return "Sigmoid";
    case OpKind::kTanh: return "Tanh";
    case OpKind::kMatMulEx: return "MatMulEx";
    case OpKind::kSum: return "Sum";
    case OpKind::kPermute: return "Permute";
    case OpKind::kSlice: return "Slice";
    case OpKind::kPad: return "Pad";
    case OpKind::kCopy: return "Copy";
  }
  return "?";
}

bool Active() { return t_active; }

void Begin() {
  MSD_CHECK(!t_active) << "optrace capture does not nest";
  t_trace = Trace{};
  t_regions.clear();
  t_active = true;
}

Trace End() {
  MSD_CHECK(t_active) << "optrace::End without Begin";
  t_active = false;
  Trace out = std::move(t_trace);
  t_trace = Trace{};
  t_regions.clear();
  return out;
}

void Record(RecordedOp op) {
  if (!t_active) return;
  op.region = JoinedRegion();
  t_trace.ops.push_back(std::move(op));
}

void RecordUnsupported(const char* what) {
  if (!t_active) return;
  auto& list = t_trace.unsupported;
  if (std::find(list.begin(), list.end(), what) == list.end()) {
    list.emplace_back(what);
  }
}

RegionScope::RegionScope(const std::string& name) {
  if (!t_active || name.empty()) return;
  t_regions.push_back(name);
  pushed_ = true;
}

RegionScope::~RegionScope() {
  if (pushed_) t_regions.pop_back();
}

}  // namespace optrace
}  // namespace msd
