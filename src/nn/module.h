// Base class for neural-network modules: owns parameters and child modules,
// exposes a flat parameter list for optimizers, and tracks train/eval mode
// (consumed by stochastic modules like Dropout/DropPath).
#ifndef MSDMIXER_NN_MODULE_H_
#define MSDMIXER_NN_MODULE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "autograd/variable.h"

namespace msd {

class Module {
 public:
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  // Unary forward; modules with richer signatures (multiple inputs, tuples)
  // define their own methods and leave DoForward unimplemented. Non-virtual
  // shell: tags an active op capture with this module's registered name (a
  // no-op outside tracing — see tensor/optrace.h), then dispatches to the
  // subclass's DoForward.
  Variable Forward(const Variable& input);

  // All trainable parameters of this module and its children, depth-first.
  // The returned Variables share nodes with the stored parameters, so
  // optimizers can mutate values/grads through them.
  std::vector<Variable> Parameters() const;

  // Named (path-qualified) parameters, for checkpoint-style introspection.
  std::vector<std::pair<std::string, Variable>> NamedParameters() const;

  // Total number of scalar parameters.
  int64_t NumParameters() const;

  // Bytes held by parameter values (float32; excludes gradients and
  // optimizer state, which at most triple this during training).
  int64_t ParameterBytes() const;

  // Rough forward-pass FLOPs per sample, estimated from parameter shapes:
  // 2 * numel for every rank>=2 parameter (each weight of a dense map costs
  // a multiply-add per item) and numel for rank<2 parameters (bias adds,
  // norm scales). Activation functions and data movement are not counted;
  // use the "tensor/matmul_flops" counter for exact measured matmul work.
  int64_t ApproxForwardFlopsPerItem() const;

  // Switches this module and all children between training and evaluation
  // behaviour.
  void SetTraining(bool training);
  bool training() const { return training_; }

  // The name this module was registered under (empty for a root module):
  // the region its ops record under in a traced forward.
  const std::string& name() const { return name_; }

 protected:
  Module() = default;

  // Subclass implementation of the unary forward. The default fatals.
  virtual Variable DoForward(const Variable& input);

  // Registers a trainable parameter; returns a handle the subclass stores.
  Variable RegisterParameter(std::string name, Tensor init);

  // Registers a child and returns a raw pointer for the subclass to keep.
  // The child remembers its registration name so traced forwards can label
  // ops with the module path that produced them.
  template <typename M>
  M* RegisterModule(std::string name, std::unique_ptr<M> child) {
    M* raw = child.get();
    raw->name_ = name;
    children_.emplace_back(std::move(name), std::move(child));
    return raw;
  }

 private:
  void CollectNamed(const std::string& prefix,
                    std::vector<std::pair<std::string, Variable>>* out) const;

  std::vector<std::pair<std::string, Variable>> params_;
  std::vector<std::pair<std::string, std::unique_ptr<Module>>> children_;
  std::string name_;  // registration name; empty for root modules
  bool training_ = true;
};

}  // namespace msd

#endif  // MSDMIXER_NN_MODULE_H_
