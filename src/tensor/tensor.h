// Dense N-dimensional float32 tensor.
//
// Design notes:
//  * Storage is always contiguous in row-major order. Operations that would
//    produce non-contiguous views (Permute, Slice, ...) materialize a new
//    buffer; this keeps every kernel a simple linear loop and makes the
//    memory model trivial to reason about.
//  * Copying a Tensor is cheap: copies share the underlying buffer
//    (shared_ptr), like torch::Tensor. Use Clone() for a deep copy. In-place
//    mutation through data() is visible to all aliases.
//  * Shape errors are programming errors and fail fast via MSD_CHECK.
#ifndef MSDMIXER_TENSOR_TENSOR_H_
#define MSDMIXER_TENSOR_TENSOR_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace msd {

using Shape = std::vector<int64_t>;

// Number of elements implied by a shape (product of dims; 1 for rank-0).
int64_t NumElementsOf(const Shape& shape);

// Row-major strides for a shape.
std::vector<int64_t> RowMajorStrides(const Shape& shape);

// Human-readable "[2, 3, 4]" rendering.
std::string ShapeToString(const Shape& shape);

class Tensor {
 public:
  // Default-constructed tensors are "undefined" and only support defined().
  Tensor() = default;

  // Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  // Tensor with explicit contents; values.size() must match the shape.
  Tensor(Shape shape, std::vector<float> values);

  // ---- Factories ----------------------------------------------------------
  // Allocates without initializing contents; for kernels that overwrite
  // every element. Never expose an Uninitialized tensor without filling it.
  static Tensor Uninitialized(Shape shape);
  static Tensor Zeros(Shape shape);
  static Tensor Ones(Shape shape);
  static Tensor Full(Shape shape, float value);
  static Tensor Scalar(float value);
  // [0, 1, ..., n-1] as a rank-1 tensor.
  static Tensor Arange(int64_t n);
  // I.i.d. uniform in [lo, hi).
  static Tensor RandUniform(Shape shape, float lo, float hi, Rng& rng);
  // I.i.d. normal(mean, stddev).
  static Tensor RandNormal(Shape shape, float mean, float stddev, Rng& rng);
  // Wraps caller-owned storage (e.g. a plan arena slot) without touching the
  // pool: `data` must stay valid while `owner` is held. The view is a full
  // Tensor — kernels can read and write it — but Reshape/copies share the
  // external buffer exactly like pool-backed storage.
  static Tensor FromExternal(Shape shape, float* data,
                             std::shared_ptr<void> owner);

  // ---- Introspection ------------------------------------------------------
  bool defined() const { return storage_ != nullptr; }
  int64_t rank() const { return static_cast<int64_t>(shape_.size()); }
  const Shape& shape() const { return shape_; }
  int64_t dim(int64_t axis) const;
  int64_t numel() const { return numel_; }

  float* data();
  const float* data() const;

  // How many Tensors share this buffer (0 when undefined; a FromExternal
  // view counts its owner's references). 1 means no other handle can see a
  // write through this one.
  long use_count() const { return storage_.use_count(); }

  // Element access by multi-index (bounds-checked); for tests and small code.
  float at(std::initializer_list<int64_t> index) const;
  void set(std::initializer_list<int64_t> index, float value);

  // Value of a 1-element tensor (any rank).
  float item() const;

  // ---- Basic transformations ---------------------------------------------
  // Deep copy with its own buffer.
  Tensor Clone() const;

  // Reinterprets the buffer with a new shape (shares storage). One dimension
  // may be -1 and is inferred. Element count must match.
  Tensor Reshape(Shape new_shape) const;

  // Copies contents of `src` (same numel) into this tensor's buffer.
  void CopyFrom(const Tensor& src);

  // Sets every element to `value`.
  void Fill(float value);

  // Renders small tensors for debugging; large ones are summarized.
  std::string ToString() const;

 private:
  std::shared_ptr<float[]> storage_;
  Shape shape_;
  int64_t numel_ = 0;
};

}  // namespace msd

#endif  // MSDMIXER_TENSOR_TENSOR_H_
