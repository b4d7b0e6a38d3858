#include "core/mlp_block.h"

#include <memory>

namespace msd {

MlpBlock::MlpBlock(int64_t features, int64_t hidden, float drop_path,
                   Rng& rng) {
  fc1_ = RegisterModule("fc1", std::make_unique<Linear>(features, hidden, rng));
  fc2_ = RegisterModule("fc2", std::make_unique<Linear>(hidden, features, rng));
  drop_path_ =
      RegisterModule("drop_path", std::make_unique<DropPath>(drop_path, rng));
}

Variable MlpBlock::DoForward(const Variable& input) {
  // fc1 + GELU and fc2 run as two fused GEMMs recorded under fc1's and fc2's
  // module paths, and train as one node with a hand-written backward.
  Variable branch = MlpBranch(input, fc1_->Operands(), fc2_->Operands());
  return Add(input, drop_path_->Forward(branch));
}

AxisMlpBlock::AxisMlpBlock(int64_t axis, int64_t features, int64_t hidden,
                           float drop_path, Rng& rng)
    : axis_(axis) {
  MSD_CHECK_NE(axis, 0) << "axis 0 is the batch dimension";
  block_ = RegisterModule(
      "block", std::make_unique<MlpBlock>(features, hidden, drop_path, rng));
}

Variable AxisMlpBlock::DoForward(const Variable& input) {
  const int64_t last = input.rank() - 1;
  const int64_t axis = axis_ < 0 ? axis_ + input.rank() : axis_;
  if (axis == last) return block_->Forward(input);
  Variable moved = Transpose(input, axis, last);
  Variable mixed = block_->Forward(moved);
  return Transpose(mixed, axis, last);
}

}  // namespace msd
