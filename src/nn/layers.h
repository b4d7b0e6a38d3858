// Core layers: Linear, activations, LayerNorm, Dropout/DropPath, Sequential.
#ifndef MSDMIXER_NN_LAYERS_H_
#define MSDMIXER_NN_LAYERS_H_

#include <memory>
#include <vector>

#include "autograd/ops.h"
#include "common/rng.h"
#include "nn/module.h"

namespace msd {

enum class ActivationKind { kRelu, kGelu, kTanh, kSigmoid, kIdentity };

// Affine map on the last dimension: y = x W + b, with x of any rank >= 2.
// Initialization follows the PyTorch default, U(-1/sqrt(in), 1/sqrt(in)).
// Forward runs as one fused GEMM (autograd MatMulEx): the bias add — and,
// for ForwardActivated, the activation — happen in the GEMM epilogue with no
// intermediate tensors.
class Linear : public Module {
 public:
  Linear(int64_t in_features, int64_t out_features, Rng& rng,
         bool bias = true);

  Variable DoForward(const Variable& input) override;
  // y = act(x W + b) in a single fused op; preferred over composing Forward
  // with a separate activation on hot paths.
  Variable ForwardActivated(const Variable& input, ActivationKind act);
  // Weight, bias and region name for an op that runs this layer inside a
  // larger node (MlpBranch).
  LinearOperands Operands() const { return {weight_, bias_, name()}; }

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }

 private:
  int64_t in_features_;
  int64_t out_features_;
  Variable weight_;  // [in, out]
  Variable bias_;    // [out] (undefined if bias=false)
};

// Stateless elementwise activation as a module (for Sequential pipelines).
class Activation : public Module {
 public:
  explicit Activation(ActivationKind kind) : kind_(kind) {}
  Variable DoForward(const Variable& input) override;

 private:
  ActivationKind kind_;
};

// Layer normalization over the last dimension with learnable scale/shift.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(int64_t features, float eps = 1e-5f);
  Variable DoForward(const Variable& input) override;

 private:
  int64_t features_;
  float eps_;
  Variable gamma_;
  Variable beta_;
};

// Standard inverted dropout: elementwise zeroing with rescale in training,
// identity in eval.
class Dropout : public Module {
 public:
  Dropout(float p, Rng& rng);
  Variable DoForward(const Variable& input) override;

 private:
  float p_;
  Rng* rng_;
};

// Stochastic depth (Larsson et al., FractalNet): drops the *whole residual
// branch* per sample. The MLP block of MSD-Mixer (Fig. 3a) uses this.
class DropPath : public Module {
 public:
  DropPath(float p, Rng& rng);
  Variable DoForward(const Variable& input) override;

 private:
  float p_;
  Rng* rng_;
};

// Runs children in order.
class Sequential : public Module {
 public:
  Sequential() = default;

  // Appends a module; returns *this for chaining.
  Sequential& Add(std::unique_ptr<Module> module);

  Variable DoForward(const Variable& input) override;

  int64_t size() const { return static_cast<int64_t>(stages_.size()); }

 private:
  std::vector<Module*> stages_;
  int64_t next_index_ = 0;
};

}  // namespace msd

#endif  // MSDMIXER_NN_LAYERS_H_
