#include "core/crc32.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace mhbench {
namespace {

// Bit-at-a-time CRC-32 (IEEE, reflected 0xEDB88320): an implementation
// independent of the table-driven one under test.
std::uint32_t BitwiseCrc32(const std::vector<std::uint8_t>& data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::uint8_t byte : data) {
    crc ^= byte;
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, MatchesKnownAnswerAndBitwiseReference) {
  // The standard CRC-32 check value.
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const std::uint8_t*>(check.data()),
                  check.size()),
            0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);

  std::vector<std::uint8_t> data;
  for (int i = 0; i < 300; ++i) {
    data.push_back(static_cast<std::uint8_t>((i * 37 + 11) & 0xFF));
    EXPECT_EQ(Crc32(data.data(), data.size()), BitwiseCrc32(data))
        << "length " << data.size();
  }
}

}  // namespace
}  // namespace mhbench
