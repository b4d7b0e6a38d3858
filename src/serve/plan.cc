#include "serve/plan.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <utility>

#include <cmath>

#include "common/check.h"
#include "obs/metrics.h"
#include "tensor/qgemm.h"
#include "tensor/tensor_ops.h"

namespace msd {
namespace serve {

using optrace::OpKind;

// ---- Result recycling -------------------------------------------------------

// Reply tensors cannot live in the arena (the next request overwrites it), so
// Execute exports the output region into a block from this free list. Blocks
// return when the caller drops the reply tensor; the deleter holds a
// shared_ptr to the pool, so replies may outlive the plan itself.
class CompiledPlan::ResultPool
    : public std::enable_shared_from_this<CompiledPlan::ResultPool> {
 public:
  explicit ResultPool(int64_t floats) : floats_(std::max<int64_t>(1, floats)) {}

  ~ResultPool() {
    for (float* block : free_) {
      std::allocator<float>().deallocate(block, static_cast<size_t>(floats_));
    }
  }

  // msd-hot-path-safe: bounded critical section around a pointer free list;
  // the allocation branch only runs while a previous reply is still held
  // (steady state pops a recycled block).
  float* Acquire() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!free_.empty()) {
        float* block = free_.back();
        free_.pop_back();
        return block;
      }
    }
    return std::allocator<float>().allocate(static_cast<size_t>(floats_));
  }

  // msd-hot-path-safe: one shared_ptr control block per reply — the single
  // remaining per-request ownership cost, documented in docs/COMPILER.md.
  Tensor Wrap(float* block, const Shape& shape) {
    std::shared_ptr<ResultPool> self = shared_from_this();
    std::shared_ptr<void> owner(
        static_cast<void*>(block),
        [self](void* p) { self->Release(static_cast<float*>(p)); });
    return Tensor::FromExternal(shape, block, std::move(owner));
  }

 private:
  // msd-hot-path-safe: same contract as Acquire. push_back can grow the free
  // list only until the pool has seen its peak number of in-flight replies.
  void Release(float* block) {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(block);
  }

  const int64_t floats_;
  std::mutex mu_;
  std::vector<float*> free_;
};

// ---- Schedule step ----------------------------------------------------------

// One executable entry: kernel kind and the attributes its kernel needs. Its
// operand/output views live in the per-row-count tables (RowViews).
struct CompiledPlan::Step {
  OpKind kind = OpKind::kAdd;
  // kMatMulEx against a constant [k, n] weight: b repacked at freeze time
  // so Execute calls the prepacked GEMM (no per-call pack, no pool buffer).
  Tensor packed_b;
  int64_t gemm_k = 0, gemm_n = 0;
  // Quantized GEMM (CompileOptions::quantize, after per-step calibration):
  // freeze-time int8 weights + per-channel scales. Execute then quantizes
  // the step's activations into the shared quant arena and runs
  // qgemm::QGemmPrepacked instead of the fp32 prepacked kernel.
  bool quantized = false;
  std::vector<int8_t> q_weights;
  std::vector<float> q_scales;
  // A fused Linear pair (FuseLinearPairs): both layers frozen, run by
  // MlpPrepackedInto. packed_b stays undefined, so the step is never an
  // int8 candidate.
  struct Mlp {
    PackedLinear fc1, fc2;
  };
  std::optional<Mlp> mlp;
  float scalar = 0.0f;
  std::vector<int64_t> dims;
  int64_t dim = 0, start = 0, length = 0, before = 0, after = 0;
  float pad_value = 0.0f;
  gemm::Activation act = gemm::Activation::kIdentity;
  // Diagnostics only.
  std::string region_path;
  int64_t out_offset = -1;  // arena byte offset of out (-1: constant)
};

namespace {

// ---- Compile-time IR --------------------------------------------------------

struct SlotRec {
  Tensor pinned;  // first-seen tensor; keeps the traced buffer alive
  bool is_constant = false;
  bool is_input = false;
  bool fused_away = false;  // a fused Linear pair's hidden: no region
  int def_step = -1;
  int last_use_step = -1;
};

struct Node {
  OpKind kind = OpKind::kAdd;
  std::vector<int> args;          // slot ids; -1 for an undefined operand
  std::vector<Shape> arg_shapes;  // per-use shapes (reshape-aware)
  int out = -1;
  Shape out_shape;
  float scalar = 0.0f;
  std::vector<int64_t> dims;
  int64_t dim = 0, start = 0, length = 0, before = 0, after = 0;
  float pad_value = 0.0f;
  gemm::Activation act = gemm::Activation::kIdentity;
  std::string region_path;
  // A fused Linear pair: args are {a, w1, bias1, w2, bias2} (-1 for an
  // absent bias), `act` is fc1's and act2 fc2's.
  bool fused = false;
  gemm::Activation act2 = gemm::Activation::kIdentity;
};

// Operand indexes of `kind` whose region may be reused for the output
// (in-place): elementwise index-aligned kernels only.
std::vector<int> InPlaceCandidates(OpKind kind) {
  switch (kind) {
    case OpKind::kAdd:
    case OpKind::kSub:
    case OpKind::kMul:
    case OpKind::kDiv:
      return {0, 1};
    case OpKind::kAddScalar:
    case OpKind::kMulScalar:
    case OpKind::kNeg:
    case OpKind::kExp:
    case OpKind::kLog:
    case OpKind::kSqrt:
    case OpKind::kAbs:
    case OpKind::kSquare:
    case OpKind::kRelu:
    case OpKind::kGelu:
    case OpKind::kSigmoid:
    case OpKind::kTanh:
    case OpKind::kCopy:
      return {0};
    default:
      return {};
  }
}

std::string JoinNames(const std::vector<std::string>& names) {
  std::string joined;
  for (const std::string& n : names) {
    if (!joined.empty()) joined += ", ";
    joined += n;
  }
  return joined;
}

// One recorded forward: ops over slots. Slot 0 is the input; later slots are
// interned in first-use order, so two runs with the same dataflow get the
// same slot ids.
struct Graph {
  std::vector<SlotRec> slots;
  std::vector<Node> nodes;
  int out_slot = -1;
  Tensor output;  // the interpreted result
};

// Records one interpreted run of `fn` on `input` into `g`. Returns the reason
// the run cannot be planned, or an empty string.
std::string TraceGraph(const CompiledPlan::ForwardFn& fn, const Tensor& input,
                       Graph& g) {
  optrace::Begin();
  g.output = fn(input);
  optrace::Trace trace = optrace::End();
  if (!trace.unsupported.empty()) {
    return "unsupported ops in trace: " + JoinNames(trace.unsupported);
  }
  if (trace.ops.empty()) return "trace recorded no ops";
  if (!g.output.defined()) return "forward returned undefined";

  // Pointer identity = buffer identity.
  std::unordered_map<const float*, int> slot_of;
  auto intern = [&](const Tensor& t) -> int {
    auto it = slot_of.find(t.data());
    if (it != slot_of.end()) return it->second;
    SlotRec rec;
    rec.pinned = t;
    rec.is_constant = true;  // until an op is seen producing it
    g.slots.push_back(std::move(rec));
    slot_of.emplace(t.data(), static_cast<int>(g.slots.size()) - 1);
    return static_cast<int>(g.slots.size()) - 1;
  };
  intern(input);
  g.slots[0].is_constant = false;
  g.slots[0].is_input = true;

  g.nodes.reserve(trace.ops.size());
  for (const optrace::RecordedOp& op : trace.ops) {
    Node n;
    n.kind = op.kind;
    for (const Tensor& in : op.inputs) {
      if (!in.defined()) {
        n.args.push_back(-1);
        n.arg_shapes.emplace_back();
        continue;
      }
      n.args.push_back(intern(in));
      n.arg_shapes.push_back(in.shape());
    }
    MSD_CHECK(op.output.defined());
    if (slot_of.count(op.output.data()) != 0) {
      // A fresh pool block per recorded output is the pinning contract; a
      // repeat pointer means an op wrote into an existing buffer.
      return "op output buffer reused; trace is not SSA";
    }
    n.out = intern(op.output);
    g.slots[static_cast<size_t>(n.out)].is_constant = false;
    n.out_shape = op.output.shape();
    n.scalar = op.scalar;
    n.dims = op.dims;
    n.dim = op.dim;
    n.start = op.start;
    n.length = op.length;
    n.before = op.before;
    n.after = op.after;
    n.pad_value = op.pad_value;
    n.act = op.act;
    n.region_path = op.region;
    g.nodes.push_back(std::move(n));
  }
  auto out_it = slot_of.find(g.output.data());
  if (out_it == slot_of.end() ||
      g.slots[static_cast<size_t>(out_it->second)].is_constant) {
    return "forward output was not produced by a traced op";
  }
  g.out_slot = out_it->second;
  return "";
}

// A buffer whose R-row shape is its one-row shape with the leading dim
// scaled by R holds its rows back to back, so the leading r * (one-row dim)
// entries are exactly the buffer an r-row forward would compute.
bool BatchOuter(const Shape& full, const Shape& one, int64_t rows) {
  return !full.empty() && full.size() == one.size() &&
         full[0] == rows * one[0] &&
         std::equal(full.begin() + 1, full.end(), one.begin() + 1);
}

std::string NotBatchOuter(const Shape& full, const Shape& one, int64_t rows) {
  return ShapeToString(full) + " at " + std::to_string(rows) +
         " rows is not batch-outer (" + ShapeToString(one) + " at one row)";
}

bool SameBits(float x, float y) {
  return std::bit_cast<uint32_t>(x) == std::bit_cast<uint32_t>(y);
}

bool SameAttributes(const Node& x, const Node& y) {
  return SameBits(x.scalar, y.scalar) && x.dims == y.dims && x.dim == y.dim &&
         x.start == y.start && x.length == y.length && x.before == y.before &&
         x.after == y.after && SameBits(x.pad_value, y.pad_value) &&
         x.act == y.act;
}

bool SameBytes(const Tensor& x, const Tensor& y) {
  return x.shape() == y.shape() &&
         std::memcmp(x.data(), y.data(),
                     static_cast<size_t>(x.numel()) * sizeof(float)) == 0;
}

// Checks that `one` (the forward at one row) is `full` (the forward at `rows`
// rows) with the row count divided out: the same ops, attributes and
// dataflow, byte-identical constants, and every other operand and output
// batch-outer. Only then does a row prefix of `full`'s schedule replay fewer
// rows. Returns the first offending op, or an empty string.
std::string RowPrefixMismatch(const Graph& full, const Graph& one,
                              int64_t rows) {
  if (full.nodes.size() != one.nodes.size()) {
    return "the forward records " + std::to_string(full.nodes.size()) +
           " ops at " + std::to_string(rows) + " rows but " +
           std::to_string(one.nodes.size()) + " at one row";
  }
  for (size_t i = 0; i < full.nodes.size(); ++i) {
    const Node& f = full.nodes[i];
    const Node& o = one.nodes[i];
    std::string op = "op %" + std::to_string(i) + " " +
                     optrace::OpKindName(f.kind);
    if (!f.region_path.empty()) op += " (" + f.region_path + ")";
    if (f.kind != o.kind || !SameAttributes(f, o)) {
      return op + " changes kind or attributes with the row count";
    }
    if (f.args != o.args || f.out != o.out) {
      return op + " reads different buffers at one row";
    }
    for (size_t j = 0; j < f.args.size(); ++j) {
      const int slot = f.args[j];
      if (slot < 0) continue;
      // Equal dataflow so far makes the slot a constant in both traces or
      // in neither.
      const SlotRec& fs = full.slots[static_cast<size_t>(slot)];
      const SlotRec& os = one.slots[static_cast<size_t>(slot)];
      const std::string arg = op + " operand " + std::to_string(j);
      if (fs.is_constant) {
        if (f.arg_shapes[j] != o.arg_shapes[j] ||
            !SameBytes(fs.pinned, os.pinned)) {
          return arg + " is a constant that depends on the row count";
        }
      } else if (!BatchOuter(f.arg_shapes[j], o.arg_shapes[j], rows)) {
        return arg + " " + NotBatchOuter(f.arg_shapes[j], o.arg_shapes[j],
                                         rows);
      }
    }
    if (!BatchOuter(f.out_shape, o.out_shape, rows)) {
      return op + " output " + NotBatchOuter(f.out_shape, o.out_shape, rows);
    }
  }
  if (full.out_slot != one.out_slot) {
    return "the forward returns a different buffer at one row";
  }
  return "";
}

// A MatMulEx against a constant rank-2 weight: every Linear. The plan packs
// its weight once at freeze time.
bool Prepackable(const Graph& g, const Node& n) {
  return n.kind == OpKind::kMatMulEx && n.args.size() > 1 && n.args[1] >= 0 &&
         n.arg_shapes[1].size() == 2 &&
         g.slots[static_cast<size_t>(n.args[1])].is_constant;
}

// Merges each prepackable MatMulEx into the next node when that node is a
// prepackable MatMulEx whose whole left operand is the first one's output,
// and nothing else reads that output (nor returns it): an MLP block's fc1
// and fc2. The merged node runs both GEMMs per row tile, so the hidden slot
// between them is marked fused_away and never gets an arena region. Pairs do
// not chain: a merged node is not merged again. Returns the number merged.
int64_t FuseLinearPairs(Graph& g) {
  std::vector<int> readers(g.slots.size(), 0);
  for (const Node& n : g.nodes) {
    for (int a : n.args) {
      if (a >= 0) ++readers[static_cast<size_t>(a)];
    }
  }
  auto arg = [](const Node& n, size_t j) {
    return j < n.args.size() ? n.args[j] : -1;
  };
  auto arg_shape = [](const Node& n, size_t j) {
    return j < n.arg_shapes.size() ? n.arg_shapes[j] : Shape();
  };
  std::vector<Node> merged;
  merged.reserve(g.nodes.size());
  int64_t fused = 0;
  for (size_t i = 0; i < g.nodes.size(); ++i) {
    Node& fc1 = g.nodes[i];
    if (i + 1 < g.nodes.size()) {
      const Node& fc2 = g.nodes[i + 1];
      if (Prepackable(g, fc1) && Prepackable(g, fc2) && fc2.args[0] == fc1.out &&
          fc2.arg_shapes[0] == fc1.out_shape &&
          readers[static_cast<size_t>(fc1.out)] == 1 &&
          fc1.out != g.out_slot) {
        g.slots[static_cast<size_t>(fc1.out)].fused_away = true;
        Node pair = std::move(fc1);
        pair.fused = true;
        pair.args = {pair.args[0], pair.args[1], arg(pair, 2), fc2.args[1],
                     arg(fc2, 2)};
        pair.arg_shapes = {pair.arg_shapes[0], pair.arg_shapes[1],
                           arg_shape(pair, 2), fc2.arg_shapes[1],
                           arg_shape(fc2, 2)};
        pair.out = fc2.out;
        pair.out_shape = fc2.out_shape;
        pair.act2 = fc2.act;
        if (!fc2.region_path.empty()) {
          pair.region_path += " + " + fc2.region_path;
        }
        merged.push_back(std::move(pair));
        ++fused;
        ++i;
        continue;
      }
    }
    merged.push_back(std::move(fc1));
  }
  g.nodes = std::move(merged);
  return fused;
}

}  // namespace

CompiledPlan::CompiledPlan() = default;
CompiledPlan::~CompiledPlan() = default;

std::unique_ptr<CompiledPlan> CompiledPlan::Compile(
    const ForwardFn& fn, const Tensor& example, std::string* why_not,
    const CompileOptions& options) {
  MSD_CHECK(example.defined());
  auto fail = [why_not](std::string reason) -> std::unique_ptr<CompiledPlan> {
    if (why_not != nullptr) *why_not = std::move(reason);
    return nullptr;
  };
  if (example.rank() < 1 || example.dim(0) < 1) {
    return fail("example needs a leading row axis");
  }
  const int64_t rows = example.dim(0);

  // ---- 1. Record the forward at R rows and at one row ----------------------
  // The plan is built from the R-row run; the one-row run proves that a row
  // prefix of it replays fewer rows.
  const Tensor example_row = Slice(example, 0, 0, 1);
  Graph g;
  std::string reason = TraceGraph(fn, example, g);
  if (!reason.empty()) return fail(reason);
  Tensor row_output;
  {
    Graph one;
    reason = TraceGraph(fn, example_row, one);
    if (reason.empty()) reason = RowPrefixMismatch(g, one, rows);
    if (!reason.empty()) return fail(reason);
    row_output = one.output;
  }
  const int64_t traced_ops = static_cast<int64_t>(g.nodes.size());

  // ---- 2. Linear-pair fusion (fp32 plans) ----------------------------------
  // Runs before lifetime analysis, so a fused pair's hidden activations never
  // get an arena region. int8 plans keep every GEMM its own step: their
  // pass calibrates each one against its fp32 output.
  const int64_t fused = options.quantize ? 0 : FuseLinearPairs(g);
  std::vector<SlotRec>& slots = g.slots;
  const std::vector<Node>& nodes = g.nodes;
  const int out_slot = g.out_slot;

  // ---- 3. Lifetimes over the schedule --------------------------------------
  const int num_steps = static_cast<int>(nodes.size());
  for (int s = 0; s < num_steps; ++s) {
    const Node& n = nodes[static_cast<size_t>(s)];
    for (int a : n.args) {
      if (a >= 0) slots[static_cast<size_t>(a)].last_use_step = s;
    }
    // An output nobody reads still lives through its own step.
    slots[static_cast<size_t>(n.out)].def_step = s;
    slots[static_cast<size_t>(n.out)].last_use_step = s;
  }
  slots[static_cast<size_t>(out_slot)].last_use_step = num_steps;  // export

  // ---- 4. In-place aliasing + region merging -------------------------------
  // region id == representative slot id. Merging the output of an
  // elementwise step onto an operand that (a) lives in the arena, (b) has
  // the exact output shape, (c) dies at this step, and (d) shares no region
  // with any other operand of the step turns the kernel into an in-place
  // update — the alias the kernels' exact-alias-or-disjoint policy permits.
  std::vector<int> region_of(slots.size(), -1);
  std::vector<int> region_last(slots.size(), -1);
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].is_constant || slots[i].fused_away) continue;
    region_of[i] = static_cast<int>(i);
    region_last[i] = slots[i].last_use_step;
  }
  int64_t inplace = 0;
  for (int s = 0; s < num_steps; ++s) {
    const Node& n = nodes[static_cast<size_t>(s)];
    for (int cand : InPlaceCandidates(n.kind)) {
      if (cand >= static_cast<int>(n.args.size())) continue;
      const int t = n.args[static_cast<size_t>(cand)];
      if (t < 0) continue;
      const SlotRec& rec = slots[static_cast<size_t>(t)];
      if (rec.is_constant || rec.is_input) continue;
      if (n.arg_shapes[static_cast<size_t>(cand)] != n.out_shape) continue;
      const int rt = region_of[static_cast<size_t>(t)];
      if (rt < 0 || region_last[static_cast<size_t>(rt)] != s) continue;
      bool clash = false;
      for (size_t other = 0; other < n.args.size(); ++other) {
        if (static_cast<int>(other) == cand || n.args[other] < 0) continue;
        if (region_of[static_cast<size_t>(n.args[other])] == rt) {
          clash = true;
          break;
        }
      }
      if (clash) continue;
      region_of[static_cast<size_t>(n.out)] = rt;
      region_last[static_cast<size_t>(rt)] = std::max(
          region_last[static_cast<size_t>(rt)],
          slots[static_cast<size_t>(n.out)].last_use_step);
      ++inplace;
      break;
    }
  }

  // ---- 5. First-fit offset packing -----------------------------------------
  // Region lifetime = [min def over members, max last_use over members];
  // bytes = the common member size (shape-equality on merge guarantees it).
  struct Region {
    int id = -1;
    int64_t bytes = 0;
    int first_def = 0;
    int last_use = 0;
    int64_t offset = -1;
  };
  std::unordered_map<int, Region> regions;
  for (size_t i = 0; i < slots.size(); ++i) {
    const int r = region_of[i];
    if (r < 0) continue;
    Region& reg = regions[r];
    const int def = slots[i].is_input ? -1 : slots[i].def_step;
    const int64_t bytes =
        slots[i].pinned.numel() * static_cast<int64_t>(sizeof(float));
    if (reg.id < 0) {
      reg = Region{r, bytes, def, slots[i].last_use_step, -1};
    } else {
      reg.bytes = std::max(reg.bytes, bytes);
      reg.first_def = std::min(reg.first_def, def);
      reg.last_use = std::max(reg.last_use, slots[i].last_use_step);
    }
  }
  std::vector<Region*> order;
  order.reserve(regions.size());
  for (auto& [id, reg] : regions) order.push_back(&reg);
  std::sort(order.begin(), order.end(), [](const Region* x, const Region* y) {
    if (x->first_def != y->first_def) return x->first_def < y->first_def;
    return x->id < y->id;
  });
  int64_t arena_bytes = 0;
  for (Region* reg : order) {
    if (reg->bytes == 0) {
      reg->offset = 0;  // zero-numel buffers take no space
      continue;
    }
    // Collect live conflicts, then scan for the lowest aligned gap.
    std::vector<std::pair<int64_t, int64_t>> busy;  // [offset, end)
    for (const Region* other : order) {
      if (other == reg || other->offset < 0 || other->bytes == 0) continue;
      const bool overlap = reg->first_def <= other->last_use &&
                           other->first_def <= reg->last_use;
      if (overlap) busy.emplace_back(other->offset, other->offset + other->bytes);
    }
    std::sort(busy.begin(), busy.end());
    int64_t candidate = 0;
    for (const auto& [lo, hi] : busy) {
      if (candidate + reg->bytes <= lo) break;
      candidate = std::max(candidate, arena::AlignUp(hi));
    }
    reg->offset = candidate;
    arena_bytes = std::max(arena_bytes, candidate + reg->bytes);
  }

  // ---- 6. Materialize the plan ---------------------------------------------
  std::unique_ptr<CompiledPlan> plan(new CompiledPlan());
  plan->arena_ = std::make_unique<arena::Arena>(arena_bytes);
  auto offset_of = [&](int slot) -> int64_t {
    const int r = region_of[static_cast<size_t>(slot)];
    MSD_CHECK_GE(r, 0);
    auto it = regions.find(r);
    MSD_CHECK(it != regions.end());
    return it->second.offset;
  };
  // The view of `slot` under its R-row use shape, cut to r rows: the leading
  // prefix of its region (batch-outer, so the leading dim divides by R).
  // Constants are read in place from the pinned buffer (a reshape view when
  // the use shape differs — shares storage, no copy) at every row count.
  auto view = [&](int slot, Shape shape, int64_t r) -> Tensor {
    const SlotRec& rec = slots[static_cast<size_t>(slot)];
    if (rec.is_constant) {
      return rec.pinned.shape() == shape ? rec.pinned
                                         : rec.pinned.Reshape(shape);
    }
    shape[0] = shape[0] / rows * r;
    return Tensor::FromExternal(std::move(shape),
                                plan->arena_->at(offset_of(slot)),
                                plan->arena_->owner());
  };

  // A frozen Linear from operands w (weight) and bias of node n, packed now.
  auto packed_linear = [&](const Node& n, size_t w, size_t bias,
                           gemm::Activation act) {
    PackedLinear l;
    l.packed_b = PackGemmB(view(n.args[w], n.arg_shapes[w], rows));
    l.k = n.arg_shapes[w][0];
    l.n = n.arg_shapes[w][1];
    if (n.args[bias] >= 0) l.bias = view(n.args[bias], n.arg_shapes[bias], rows);
    l.act = act;
    ++plan->stats_.num_prepacked;
    return l;
  };
  for (const Node& n : nodes) {
    Step step;
    step.kind = n.kind;
    if (n.fused) {
      step.mlp = Step::Mlp{packed_linear(n, 1, 2, n.act),
                           packed_linear(n, 3, 4, n.act2)};
    } else if (Prepackable(g, n)) {
      // Every Linear hits this: a frozen rank-2 weight shared across the
      // batch. Pack it once now; Execute skips the per-call B pack.
      step.packed_b = PackGemmB(view(n.args[1], n.arg_shapes[1], rows));
      step.gemm_k = n.arg_shapes[1][0];
      step.gemm_n = n.arg_shapes[1][1];
      ++plan->stats_.num_prepacked;
    }
    step.scalar = n.scalar;
    step.dims = n.dims;
    step.dim = n.dim;
    step.start = n.start;
    step.length = n.length;
    step.before = n.before;
    step.after = n.after;
    step.pad_value = n.pad_value;
    step.act = n.act;
    step.region_path = n.region_path;
    step.out_offset = offset_of(n.out);
    plan->steps_.push_back(std::move(step));
  }
  plan->rows_.resize(static_cast<size_t>(rows));
  for (int64_t r = 1; r <= rows; ++r) {
    RowViews& v = plan->rows_[static_cast<size_t>(r - 1)];
    v.input = view(0, example.shape(), r);
    v.output = view(out_slot, g.output.shape(), r);
    v.steps.reserve(nodes.size());
    for (const Node& n : nodes) {
      auto operand = [&](size_t j) {
        return j < n.args.size() && n.args[j] >= 0
                   ? view(n.args[j], n.arg_shapes[j], r)
                   : Tensor();
      };
      v.steps.push_back(Operands{operand(0), operand(1), operand(2),
                                 view(n.out, n.out_shape, r)});
    }
  }
  for (const SlotRec& rec : slots) {
    if (rec.is_constant) plan->constants_.push_back(rec.pinned);
  }
  plan->results_ = std::make_shared<ResultPool>(g.output.numel());

  plan->stats_.traced_ops = traced_ops;
  plan->stats_.num_ops = num_steps;
  plan->stats_.num_fused = fused;
  plan->stats_.num_inplace = inplace;
  plan->stats_.num_regions = static_cast<int64_t>(regions.size());
  plan->stats_.arena_bytes = arena_bytes;
  for (const Region* reg : order) {
    plan->regions_.push_back(
        RegionInfo{reg->offset, reg->bytes, reg->first_def, reg->last_use});
  }

  // ---- 7. Freeze-time validation -------------------------------------------
  // Replay the example and its first row through the fresh plan and require
  // bitwise equality with the interpreted outputs. A mismatch means a planner
  // bug; refuse the plan rather than serve wrong (or merely different) bits.
  if (!SameBytes(plan->Execute(example), g.output)) {
    return fail("freeze-time validation: planned replay of " +
                std::to_string(rows) + " rows is not bit-identical");
  }
  if (!SameBytes(plan->Execute(example_row), row_output)) {
    return fail(
        "freeze-time validation: planned replay of one row is not "
        "bit-identical");
  }

  // ---- 8. Quantization pass (opt-in) ---------------------------------------
  // Runs only after the fp32 plan has passed its memcmp gate, so every step
  // a candidate falls back to is the validated fp32 schedule.
  if (options.quantize) {
    plan->QuantizePass(example);
  }
  return plan;
}

void CompiledPlan::QuantizePass(const Tensor& example) {
  // Calibration replays the example through the R-row views.
  RowViews& views = rows_.back();
  // Eligible: a prepacked constant-weight rank-2 GEMM whose inner dimension
  // fits the int32 accumulator bound and that has any work at all. (b is
  // the pinned fp32 weight view; it stays defined alongside packed_b.)
  auto eligible = [&](size_t i) {
    const Step& s = steps_[i];
    return s.packed_b.defined() && s.gemm_k >= 1 &&
           s.gemm_k <= qgemm::kMaxK && s.gemm_n >= 1 &&
           views.steps[i].a.numel() > 0;
  };
  // Size the shared activation scratch for the largest eligible candidate
  // (an over-reserve when some candidates fall back; activations are small
  // next to the fp32 arena and the gauge reports the true figure).
  int64_t max_aq_bytes = 0;
  int64_t max_scale_bytes = 0;
  for (size_t i = 0; i < steps_.size(); ++i) {
    if (!eligible(i)) continue;
    const int64_t k = steps_[i].gemm_k;
    const int64_t m = views.steps[i].a.numel() / k;
    max_aq_bytes = std::max(
        max_aq_bytes,
        m * qgemm::QuantARowInt16s(k) *
            static_cast<int64_t>(sizeof(int16_t)));
    max_scale_bytes = std::max(
        max_scale_bytes, m * static_cast<int64_t>(sizeof(float)));
  }
  if (max_aq_bytes == 0) return;
  quant_scales_offset_ = arena::AlignUp(max_aq_bytes);
  quant_arena_ = std::make_unique<arena::Arena>(quant_scales_offset_ +
                                                max_scale_bytes);

  // Calibration replay: every step runs fp32 (so downstream candidates see
  // exact fp32 inputs and per-step error never compounds); each candidate
  // is then re-executed int8 into scratch and compared against the fp32
  // output it would replace.
  CopyInto(example, views.input);
  std::vector<float> qout;
  for (size_t i = 0; i < steps_.size(); ++i) {
    Step& s = steps_[i];
    Operands& v = views.steps[i];
    RunStep(s, v);
    if (!eligible(i)) continue;
    const int64_t k = s.gemm_k;
    const int64_t n = s.gemm_n;
    const int64_t m = v.a.numel() / k;
    std::vector<int8_t> qw(
        static_cast<size_t>(qgemm::PackedQuantBInt8s(k, n)));
    std::vector<float> qs(static_cast<size_t>(qgemm::QuantBScaleFloats(n)));
    qgemm::QuantizeWeightsPerChannel(v.b.data(), k, n, qw.data(), qs.data());
    int16_t* aq = reinterpret_cast<int16_t*>(quant_arena_->base());
    float* ascales = quant_arena_->at(quant_scales_offset_);
    qgemm::QuantizeActivationsPerRow(v.a.data(), m, k, aq, ascales);
    qout.assign(static_cast<size_t>(m * n), 0.0f);
    qgemm::QGemmPrepacked(aq, ascales, qw.data(), qs.data(), qout.data(), m,
                          k, n, v.c.defined() ? v.c.data() : nullptr, s.act);
    double num = 0.0;
    double den = 0.0;
    const float* f = v.out.data();
    for (int64_t e = 0; e < m * n; ++e) {
      const double d = static_cast<double>(qout[static_cast<size_t>(e)]) -
                       static_cast<double>(f[e]);
      num += d * d;
      den += static_cast<double>(f[e]) * static_cast<double>(f[e]);
    }
    // Relative Frobenius error; an exactly-zero fp32 output accepts only an
    // exactly-zero quantized output.
    const bool ok = num == 0.0 ||
                    (den > 0.0 && std::sqrt(num / den) <= kQuantMaxRelError);
    if (ok) {
      s.quantized = true;
      s.q_weights = std::move(qw);
      s.q_scales = std::move(qs);
      ++stats_.num_quantized;
    } else {
      ++stats_.num_quant_fallbacks;
    }
  }
  if (stats_.num_quantized == 0) {
    quant_arena_.reset();
    quant_scales_offset_ = 0;
    return;
  }
  stats_.quant_arena_bytes = quant_arena_->bytes();
}

// msd-hot-path: one schedule step — the kernel dispatch shared by Execute
// and the quantization pass's calibration replay.
void CompiledPlan::RunStep(const Step& s, Operands& v) {
  switch (s.kind) {
    case OpKind::kAdd:
      AddInto(v.a, v.b, v.out);
      break;
    case OpKind::kSub:
      SubInto(v.a, v.b, v.out);
      break;
    case OpKind::kMul:
      MulInto(v.a, v.b, v.out);
      break;
    case OpKind::kDiv:
      DivInto(v.a, v.b, v.out);
      break;
    case OpKind::kAddScalar:
      AddScalarInto(v.a, s.scalar, v.out);
      break;
    case OpKind::kMulScalar:
      MulScalarInto(v.a, s.scalar, v.out);
      break;
    case OpKind::kNeg:
      NegInto(v.a, v.out);
      break;
    case OpKind::kExp:
      ExpInto(v.a, v.out);
      break;
    case OpKind::kLog:
      LogInto(v.a, v.out);
      break;
    case OpKind::kSqrt:
      SqrtInto(v.a, v.out);
      break;
    case OpKind::kAbs:
      AbsInto(v.a, v.out);
      break;
    case OpKind::kSquare:
      SquareInto(v.a, v.out);
      break;
    case OpKind::kRelu:
      ReluInto(v.a, v.out);
      break;
    case OpKind::kGelu:
      GeluInto(v.a, v.out);
      break;
    case OpKind::kSigmoid:
      SigmoidInto(v.a, v.out);
      break;
    case OpKind::kTanh:
      TanhInto(v.a, v.out);
      break;
    case OpKind::kMatMulEx: {
      if (s.quantized) {
        // Int8 path: per-row dynamic activation quant into the shared
        // scratch arena, then the int8 kernel with its fused dequant +
        // bias + activation epilogue.
        const int64_t m = v.a.numel() / s.gemm_k;
        int16_t* aq = reinterpret_cast<int16_t*>(quant_arena_->base());
        float* ascales =
            quant_arena_->base() +
            quant_scales_offset_ / static_cast<int64_t>(sizeof(float));
        qgemm::QuantizeActivationsPerRow(v.a.data(), m, s.gemm_k, aq,
                                         ascales);
        qgemm::QGemmPrepacked(aq, ascales, s.q_weights.data(),
                              s.q_scales.data(), v.out.data(), m, s.gemm_k,
                              s.gemm_n, v.c.defined() ? v.c.data() : nullptr,
                              s.act);
      } else if (s.mlp) {
        MlpPrepackedInto(v.a, s.mlp->fc1, s.mlp->fc2, v.out);
      } else if (s.packed_b.defined()) {
        MatMulExPrepackedInto(v.a, s.packed_b, s.gemm_k, s.gemm_n, v.c,
                              s.act, v.out);
      } else {
        MatMulExInto(v.a, v.b, v.c, s.act, v.out);
      }
      break;
    }
    case OpKind::kSum:
      SumInto(v.a, s.dims, v.out);
      break;
    case OpKind::kPermute:
      PermuteInto(v.a, s.dims, v.out);
      break;
    case OpKind::kSlice:
      SliceInto(v.a, s.dim, s.start, s.length, v.out);
      break;
    case OpKind::kPad:
      PadInto(v.a, s.dim, s.before, s.after, s.pad_value, v.out);
      break;
    case OpKind::kCopy:
      CopyInto(v.a, v.out);
      break;
  }
}

// msd-hot-path: the planned serving forward — a flat kernel schedule over
// the input row count's prebuilt arena views. No pool traffic, no per-op
// ownership, no branches beyond the kind dispatch; the session lock is the
// exclusion domain.
Tensor CompiledPlan::Execute(const Tensor& input) {
  MSD_CHECK(input.defined() && input.rank() >= 1);
  const int64_t r = input.dim(0);
  MSD_CHECK(r >= 1 && r <= static_cast<int64_t>(rows_.size()) &&
            input.shape() == rows_[static_cast<size_t>(r - 1)].input.shape())
      << "plan expects a row prefix of "
      << ShapeToString(rows_.back().input.shape()) << ", got "
      << ShapeToString(input.shape());
  static obs::Counter& plan_ops =
      obs::MetricsRegistry::Global().GetCounter("serve/plan_ops");
  RowViews& views = rows_[static_cast<size_t>(r - 1)];
  CopyInto(input, views.input);
  for (size_t i = 0; i < steps_.size(); ++i) RunStep(steps_[i], views.steps[i]);
  plan_ops.Add(static_cast<int64_t>(steps_.size()));
  float* block = results_->Acquire();
  std::memcpy(block, views.output.data(),
              static_cast<size_t>(views.output.numel()) * sizeof(float));
  return results_->Wrap(block, views.output.shape());
}

std::vector<RegionInfo> CompiledPlan::Regions() const { return regions_; }

std::string CompiledPlan::DebugString() const {
  const RowViews& views = rows_.back();
  std::ostringstream out;
  out << "CompiledPlan: " << stats_.num_ops << " ops ("
      << stats_.num_inplace << " in-place, " << stats_.num_prepacked
      << " prepacked, " << stats_.num_fused << " fused Linear pairs), "
      << stats_.num_regions << " regions, "
      << stats_.arena_bytes << " arena bytes";
  if (stats_.num_quantized > 0 || stats_.num_quant_fallbacks > 0) {
    out << ", int8: " << stats_.num_quantized << " quantized / "
        << stats_.num_quant_fallbacks << " fp32 fallbacks, "
        << stats_.quant_arena_bytes << " quant arena bytes";
  }
  out << "; serves 1.." << rows_.size() << " rows\n";
  out << "  input  " << ShapeToString(views.input.shape()) << "\n";
  for (size_t i = 0; i < steps_.size(); ++i) {
    const Step& s = steps_[i];
    out << "  %" << i << " = " << optrace::OpKindName(s.kind);
    if (s.mlp) out << "+" << optrace::OpKindName(s.kind);
    out << " " << ShapeToString(views.steps[i].out.shape()) << " @"
        << s.out_offset;
    if (s.mlp) out << "  hidden " << s.mlp->fc1.n << " in-tile";
    if (s.quantized) out << "  int8";
    if (!s.region_path.empty()) out << "  // " << s.region_path;
    out << "\n";
  }
  out << "  output " << ShapeToString(views.output.shape());
  return out.str();
}

}  // namespace serve
}  // namespace msd
