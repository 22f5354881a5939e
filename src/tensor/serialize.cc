#include "tensor/serialize.h"

namespace mhbench {

void SerializeTensor(const Tensor& t, ByteWriter& out) {
  out.I32(t.ndim());
  for (int d : t.shape()) out.I32(d);
  out.Raw(t.data().data(), t.numel() * sizeof(Scalar));
}

Tensor DeserializeTensor(ByteReader& in) {
  const std::int32_t nd = in.I32();
  MHB_CHECK(nd >= 0 && nd <= 8) << "implausible tensor rank" << nd;
  Shape shape(static_cast<std::size_t>(nd));
  for (auto& d : shape) {
    d = in.I32();
    MHB_CHECK_GT(d, 0) << "non-positive extent in serialized tensor";
  }
  // numel * sizeof(Scalar) <= remaining, checked one extent at a time so
  // the running product never overflows (a rank-0 tensor holds no data).
  std::size_t numel = shape.empty() ? 0 : 1;
  for (const int d : shape) {
    MHB_CHECK_LE(numel,
                 in.remaining() / sizeof(Scalar) / static_cast<std::size_t>(d))
        << "serialized tensor data overruns the buffer";
    numel *= static_cast<std::size_t>(d);
  }
  Tensor t = Tensor::Uninitialized(std::move(shape));
  in.Raw(t.data().data(), numel * sizeof(Scalar));
  return t;
}

}  // namespace mhbench
