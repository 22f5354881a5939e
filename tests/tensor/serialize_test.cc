#include "tensor/serialize.h"

#include <cstdint>
#include <initializer_list>

#include <gtest/gtest.h>

#include "core/rng.h"

namespace mhbench {
namespace {

std::vector<std::uint8_t> Blob(const Tensor& t) {
  ByteWriter out;
  SerializeTensor(t, out);
  return out.Release();
}

// A bare header: ndim, then the extents, with no data behind it.
std::vector<std::uint8_t> Header(std::initializer_list<std::int32_t> dims) {
  ByteWriter out;
  out.I32(static_cast<std::int32_t>(dims.size()));
  for (const std::int32_t d : dims) out.I32(d);
  return out.Release();
}

TEST(SerializeTest, RoundTrip) {
  Rng rng(1);
  Tensor t = Tensor::Randn({3, 4, 2}, rng);
  const auto bytes = Blob(t);
  ByteReader in(bytes, "tensor");
  const Tensor u = DeserializeTensor(in);
  EXPECT_EQ(in.remaining(), 0u);
  EXPECT_TRUE(u.AllClose(t, 0.0f));
}

TEST(SerializeTest, SizePrediction) {
  Tensor t({5, 7});
  // 4 (ndim) + 2*4 (extents) + 35*4 (data).
  EXPECT_EQ(Blob(t).size(), 4u + 8u + 140u);
}

TEST(SerializeTest, MultipleTensorsInOneBuffer) {
  Tensor a = Tensor::FromVector({1, 2});
  Tensor b = Tensor::FromVector({3});
  ByteWriter out;
  SerializeTensor(a, out);
  SerializeTensor(b, out);
  ByteReader in(out.bytes(), "tensors");
  EXPECT_TRUE(DeserializeTensor(in).AllClose(a));
  EXPECT_TRUE(DeserializeTensor(in).AllClose(b));
  EXPECT_EQ(in.remaining(), 0u);
}

TEST(SerializeTest, TruncatedBufferThrows) {
  Tensor t({4, 4});
  auto bytes = Blob(t);
  bytes.resize(bytes.size() - 8);
  ByteReader in(bytes, "tensor");
  EXPECT_THROW(DeserializeTensor(in), Error);
}

TEST(SerializeTest, GarbageHeaderThrows) {
  const std::vector<std::vector<std::uint8_t>> headers = {
      {0xFF, 0xFF, 0xFF, 0x7F},  // ndim huge
      // 1 GiB of float data claimed, none present.
      Header({16384, 16384}),
      // More elements than std::vector can hold.
      Header({2000000000, 2000000000}),
      // Extent product above SIZE_MAX / 4: any attempt to allocate before
      // checking would throw std::length_error / std::bad_alloc instead.
      Header({2000000000, 2000000000, 2000000000}),
      // Extent product of exactly 2^64, which wraps to 0 in size_t.
      Header({65536, 65536, 65536, 65536}),
  };
  for (const auto& bytes : headers) {
    ByteReader in(bytes, "tensor");
    EXPECT_THROW(DeserializeTensor(in), Error) << bytes.size() << " bytes";
  }
}

}  // namespace
}  // namespace mhbench
