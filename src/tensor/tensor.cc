#include "tensor/tensor.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <sstream>
#include <unordered_map>

#include "core/rng.h"

namespace mhbench {
namespace {

// Per-thread free lists of data buffers, bucketed by power-of-two capacity.
// A tensor destroyed on any thread returns its buffer to that thread's pool;
// the next construction of a same-bucket tensor on the thread reuses it.
// Retention is capped so a burst of huge tensors cannot pin memory forever.
class BufferPool {
 public:
  ~BufferPool() {
    for (auto& [cap, list] : free_) {
      (void)cap;
      for (Scalar* p : list) delete[] p;
    }
  }

  Scalar* Acquire(std::size_t cap) {
    auto it = free_.find(cap);
    if (it != free_.end() && !it->second.empty()) {
      Scalar* p = it->second.back();
      it->second.pop_back();
      retained_ -= cap;
      ++stats_.pool_hits;
      return p;
    }
    ++stats_.heap_allocs;
    return new Scalar[cap];
  }

  void Release(Scalar* p, std::size_t cap) {
    if (retained_ + cap > kMaxRetainedFloats) {
      ++stats_.heap_frees;
      delete[] p;
      return;
    }
    free_[cap].push_back(p);
    retained_ += cap;
    ++stats_.pool_returns;
  }

  const Tensor::AllocStats& stats() const { return stats_; }

 private:
  // 32 Mi floats = 128 MiB per thread; far above any single model's working
  // set here, so steady-state training never spills past the pool.
  static constexpr std::size_t kMaxRetainedFloats = std::size_t{1} << 25;

  std::unordered_map<std::size_t, std::vector<Scalar*>> free_;
  std::size_t retained_ = 0;
  Tensor::AllocStats stats_;
};

// Thread-exit safety: the pool is reached through a raw thread_local
// pointer that is nulled when the pool is destroyed, so tensors outliving
// the pool (static-duration objects during shutdown) fall back to plain
// new/delete instead of touching a dead pool.
thread_local BufferPool* tl_pool = nullptr;

struct PoolOwner {
  BufferPool pool;
  PoolOwner() { tl_pool = &pool; }
  ~PoolOwner() { tl_pool = nullptr; }
};

BufferPool* ThreadPool() {
  static thread_local PoolOwner owner;
  return tl_pool;
}

std::size_t BucketCapacity(std::size_t n) {
  return std::bit_ceil(std::max<std::size_t>(n, 64));
}

}  // namespace

std::size_t ShapeNumel(const Shape& shape) {
  std::size_t n = 1;
  for (int d : shape) {
    MHB_CHECK_GT(d, 0) << "in shape" << ShapeToString(shape);
    n *= static_cast<std::size_t>(d);
  }
  return shape.empty() ? 0 : n;
}

std::string ShapeToString(const Shape& shape) {
  std::ostringstream s;
  s << "[";
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i) s << ", ";
    s << shape[i];
  }
  s << "]";
  return s.str();
}

void Tensor::AcquireBuffer(std::size_t n) {
  size_ = n;
  if (n == 0) {
    ptr_ = nullptr;
    cap_ = 0;
    return;
  }
  cap_ = BucketCapacity(n);
  if (BufferPool* pool = ThreadPool()) {
    ptr_ = pool->Acquire(cap_);
  } else {
    ptr_ = new Scalar[cap_];
  }
}

void Tensor::ReleaseBuffer() {
  if (ptr_ == nullptr) return;
  if (BufferPool* pool = tl_pool) {
    pool->Release(ptr_, cap_);
  } else {
    delete[] ptr_;
  }
  ptr_ = nullptr;
  size_ = 0;
  cap_ = 0;
}

Tensor::Tensor(Shape shape) : shape_(std::move(shape)) {
  AcquireBuffer(ShapeNumel(shape_));
  std::fill(ptr_, ptr_ + size_, 0.0f);
}

Tensor::Tensor(Shape shape, Scalar fill) : shape_(std::move(shape)) {
  AcquireBuffer(ShapeNumel(shape_));
  std::fill(ptr_, ptr_ + size_, fill);
}

Tensor::Tensor(Shape shape, std::vector<Scalar> values)
    : shape_(std::move(shape)) {
  MHB_CHECK_EQ(values.size(), ShapeNumel(shape_))
      << "for shape" << ShapeToString(shape_);
  AcquireBuffer(values.size());
  std::copy(values.begin(), values.end(), ptr_);
}

Tensor::Tensor(const Tensor& other) : shape_(other.shape_) {
  AcquireBuffer(other.size_);
  if (size_ > 0) std::memcpy(ptr_, other.ptr_, size_ * sizeof(Scalar));
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  shape_ = other.shape_;
  if (cap_ < other.size_ || (other.size_ == 0 && size_ > 0)) {
    ReleaseBuffer();
    AcquireBuffer(other.size_);
  } else {
    size_ = other.size_;
  }
  if (size_ > 0) std::memcpy(ptr_, other.ptr_, size_ * sizeof(Scalar));
  return *this;
}

Tensor::Tensor(Tensor&& other) noexcept
    : shape_(std::move(other.shape_)),
      ptr_(other.ptr_),
      size_(other.size_),
      cap_(other.cap_) {
  other.shape_.clear();
  other.ptr_ = nullptr;
  other.size_ = 0;
  other.cap_ = 0;
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this == &other) return *this;
  ReleaseBuffer();
  shape_ = std::move(other.shape_);
  ptr_ = other.ptr_;
  size_ = other.size_;
  cap_ = other.cap_;
  other.shape_.clear();
  other.ptr_ = nullptr;
  other.size_ = 0;
  other.cap_ = 0;
  return *this;
}

Tensor::~Tensor() { ReleaseBuffer(); }

Tensor Tensor::FromVector(std::vector<Scalar> values) {
  const int n = static_cast<int>(values.size());
  MHB_CHECK_GT(n, 0);
  return Tensor({n}, std::move(values));
}

Tensor Tensor::Scalar1(Scalar v) { return Tensor({1}, std::vector<Scalar>{v}); }

Tensor Tensor::Uninitialized(Shape shape) {
  Tensor t;
  t.shape_ = std::move(shape);
  t.AcquireBuffer(ShapeNumel(t.shape_));
  return t;
}

Tensor Tensor::Randn(Shape shape, Rng& rng, Scalar stddev) {
  Tensor t = Uninitialized(std::move(shape));
  for (Scalar& v : t.data()) {
    v = static_cast<Scalar>(rng.Gaussian(0.0, stddev));
  }
  return t;
}

int Tensor::dim(int i) const {
  MHB_CHECK_GE(i, 0);
  MHB_CHECK_LT(i, ndim());
  return shape_[static_cast<std::size_t>(i)];
}

std::size_t Tensor::Offset(std::span<const int> idx) const {
  MHB_CHECK_EQ(static_cast<int>(idx.size()), ndim());
  std::size_t off = 0;
  for (std::size_t d = 0; d < idx.size(); ++d) {
    MHB_DCHECK(idx[d] >= 0 && idx[d] < shape_[d]);
    off = off * static_cast<std::size_t>(shape_[d]) +
          static_cast<std::size_t>(idx[d]);
  }
  return off;
}

Scalar& Tensor::at(std::initializer_list<int> idx) {
  return ptr_[Offset(std::span<const int>(idx.begin(), idx.size()))];
}

Scalar Tensor::at(std::initializer_list<int> idx) const {
  return ptr_[Offset(std::span<const int>(idx.begin(), idx.size()))];
}

Tensor Tensor::Reshape(Shape new_shape) const& {
  MHB_CHECK_EQ(ShapeNumel(new_shape), numel())
      << ShapeToString(shape_) << "->" << ShapeToString(new_shape);
  Tensor t = Uninitialized(std::move(new_shape));
  if (size_ > 0) std::memcpy(t.ptr_, ptr_, size_ * sizeof(Scalar));
  return t;
}

Tensor Tensor::Reshape(Shape new_shape) && {
  MHB_CHECK_EQ(ShapeNumel(new_shape), numel())
      << ShapeToString(shape_) << "->" << ShapeToString(new_shape);
  Tensor t(std::move(*this));
  t.shape_ = std::move(new_shape);
  return t;
}

void Tensor::ResizeUninitialized(std::span<const int> new_shape) {
  if (shape_.size() == new_shape.size() &&
      std::equal(new_shape.begin(), new_shape.end(), shape_.begin())) {
    return;
  }
  shape_.assign(new_shape.begin(), new_shape.end());
  const std::size_t n = ShapeNumel(shape_);
  if (n > cap_) {
    ReleaseBuffer();
    AcquireBuffer(n);
  } else {
    size_ = n;
  }
}

void Tensor::Fill(Scalar v) { std::fill(ptr_, ptr_ + size_, v); }

void Tensor::AddInPlace(const Tensor& other) {
  MHB_CHECK(shape_ == other.shape_)
      << ShapeToString(shape_) << "vs" << ShapeToString(other.shape_);
  for (std::size_t i = 0; i < size_; ++i) ptr_[i] += other.ptr_[i];
}

void Tensor::SubInPlace(const Tensor& other) {
  MHB_CHECK(shape_ == other.shape_)
      << ShapeToString(shape_) << "vs" << ShapeToString(other.shape_);
  for (std::size_t i = 0; i < size_; ++i) ptr_[i] -= other.ptr_[i];
}

void Tensor::MulInPlace(const Tensor& other) {
  MHB_CHECK(shape_ == other.shape_)
      << ShapeToString(shape_) << "vs" << ShapeToString(other.shape_);
  for (std::size_t i = 0; i < size_; ++i) ptr_[i] *= other.ptr_[i];
}

void Tensor::AxpyInPlace(Scalar alpha, const Tensor& other) {
  MHB_CHECK(shape_ == other.shape_)
      << ShapeToString(shape_) << "vs" << ShapeToString(other.shape_);
  for (std::size_t i = 0; i < size_; ++i) ptr_[i] += alpha * other.ptr_[i];
}

void Tensor::Scale(Scalar alpha) {
  for (std::size_t i = 0; i < size_; ++i) ptr_[i] *= alpha;
}

Tensor Tensor::Add(const Tensor& other) const {
  Tensor out = *this;
  out.AddInPlace(other);
  return out;
}

Tensor Tensor::Sub(const Tensor& other) const {
  Tensor out = *this;
  out.SubInPlace(other);
  return out;
}

Tensor Tensor::Mul(const Tensor& other) const {
  Tensor out = *this;
  out.MulInPlace(other);
  return out;
}

double Tensor::Sum() const {
  double s = 0.0;
  for (std::size_t i = 0; i < size_; ++i) s += ptr_[i];
  return s;
}

double Tensor::Mean() const {
  MHB_CHECK_GT(numel(), 0u);
  return Sum() / static_cast<double>(numel());
}

Scalar Tensor::MaxAbs() const {
  Scalar m = 0.0f;
  for (std::size_t i = 0; i < size_; ++i) m = std::max(m, std::abs(ptr_[i]));
  return m;
}

double Tensor::SquaredL2() const {
  double s = 0.0;
  for (std::size_t i = 0; i < size_; ++i) {
    s += static_cast<double>(ptr_[i]) * ptr_[i];
  }
  return s;
}

bool Tensor::AllClose(const Tensor& other, Scalar tol) const {
  if (shape_ != other.shape_) return false;
  for (std::size_t i = 0; i < size_; ++i) {
    if (std::abs(ptr_[i] - other.ptr_[i]) > tol) return false;
  }
  return true;
}

Tensor::AllocStats Tensor::ThreadAllocStats() {
  if (BufferPool* pool = ThreadPool()) return pool->stats();
  return {};
}

}  // namespace mhbench
