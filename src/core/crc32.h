// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320): the checksum that
// gates snapshot sections (fl/checkpoint.h) and client-journal blocks
// (obs/journal.h).
#pragma once

#include <cstddef>
#include <cstdint>

namespace mhbench {

std::uint32_t Crc32(const std::uint8_t* data, std::size_t size);

}  // namespace mhbench
