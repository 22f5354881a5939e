// Dense float32 tensor with value semantics.
//
// Tensors are row-major and own their storage (copy = deep copy).  This is
// the only numeric container in the library; all layer parameters,
// activations and gradients are `Tensor`s.  Shape arithmetic is checked with
// MHB_CHECK at API boundaries.
//
// Storage comes from a per-thread buffer pool: destroying a tensor recycles
// its buffer into the destroying thread's free list and constructing one
// reuses a pooled buffer of sufficient capacity when available.  Training
// loops allocate the same handful of shapes every step, so after a warmup
// step the hot path performs no data-buffer heap allocations at all (see
// DESIGN.md §5d and Tensor::ThreadAllocStats).
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "core/error.h"

namespace mhbench {

class Rng;

using Scalar = float;
using Shape = std::vector<int>;

// Number of elements implied by a shape (product of extents).
std::size_t ShapeNumel(const Shape& shape);

// "[2, 3, 4]" - for error messages.
std::string ShapeToString(const Shape& shape);

class Tensor {
 public:
  // Empty (rank-0, zero elements) tensor.
  Tensor() = default;

  // Zero-initialized tensor of the given shape.  Extents must be positive.
  explicit Tensor(Shape shape);
  Tensor(Shape shape, Scalar fill);

  // Copies `values` into pooled storage; size must match the shape.
  Tensor(Shape shape, std::vector<Scalar> values);

  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&& other) noexcept;
  Tensor& operator=(Tensor&& other) noexcept;
  ~Tensor();

  static Tensor FromVector(std::vector<Scalar> values);  // rank-1
  static Tensor Scalar1(Scalar v);                       // shape [1]

  // Pooled storage with *unspecified contents* — for kernel outputs that
  // are fully overwritten before being read.
  static Tensor Uninitialized(Shape shape);

  // Gaussian-initialized tensor (used by parameter initializers and tests).
  static Tensor Randn(Shape shape, Rng& rng, Scalar stddev = 1.0f);

  const Shape& shape() const { return shape_; }
  int ndim() const { return static_cast<int>(shape_.size()); }
  int dim(int i) const;
  std::size_t numel() const { return size_; }
  bool empty() const { return size_ == 0; }

  std::span<Scalar> data() { return {ptr_, size_}; }
  std::span<const Scalar> data() const { return {ptr_, size_}; }

  Scalar& operator[](std::size_t i) { return ptr_[i]; }
  Scalar operator[](std::size_t i) const { return ptr_[i]; }

  // Multi-index access (size must equal ndim()); bounds-checked in debug.
  Scalar& at(std::initializer_list<int> idx);
  Scalar at(std::initializer_list<int> idx) const;

  // Linear offset of a multi-index.
  std::size_t Offset(std::span<const int> idx) const;

  // Returns a tensor sharing no storage with this one, with a new shape of
  // equal element count.  On an expiring tensor (a temporary, or
  // std::move(t)) the buffer moves into the result instead of being copied.
  Tensor Reshape(Shape new_shape) const&;
  Tensor Reshape(Shape new_shape) &&;

  // Reshapes in place without touching the data, reusing the existing
  // buffer whenever its capacity suffices.  Contents are unspecified when
  // the element count changes; callers must fully overwrite them.  This is
  // the zero-allocation workhorse for per-step layer caches.
  void ResizeUninitialized(std::span<const int> new_shape);

  // In-place fill.
  void Fill(Scalar v);

  // Elementwise in-place ops (shapes must match exactly).
  void AddInPlace(const Tensor& other);
  void SubInPlace(const Tensor& other);
  void MulInPlace(const Tensor& other);
  void AxpyInPlace(Scalar alpha, const Tensor& other);  // this += alpha*other
  void Scale(Scalar alpha);

  // Elementwise binary (returns new tensor; shapes must match).
  Tensor Add(const Tensor& other) const;
  Tensor Sub(const Tensor& other) const;
  Tensor Mul(const Tensor& other) const;

  // Reductions.
  double Sum() const;
  double Mean() const;
  Scalar MaxAbs() const;
  double SquaredL2() const;

  // True iff shapes are equal and all elements differ by at most `tol`.
  bool AllClose(const Tensor& other, Scalar tol = 1e-5f) const;

  // Per-thread data-buffer allocation statistics.  `heap_allocs` counts
  // buffers that had to come from the heap, `pool_hits` buffers recycled
  // from the thread's pool.  The zero-allocation tests assert heap_allocs
  // stays flat across warmed-up training steps.
  struct AllocStats {
    std::uint64_t heap_allocs = 0;
    std::uint64_t pool_hits = 0;
    std::uint64_t pool_returns = 0;
    std::uint64_t heap_frees = 0;
  };
  static AllocStats ThreadAllocStats();

 private:
  void AcquireBuffer(std::size_t n);  // sets ptr_/size_/cap_
  void ReleaseBuffer();

  Shape shape_;
  Scalar* ptr_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
};

}  // namespace mhbench
