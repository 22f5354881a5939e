#include "core/bytes.h"

#include <filesystem>
#include <fstream>

#include "core/error.h"

namespace mhbench {

void ByteWriter::String(std::string_view s) {
  MHB_CHECK_LE(s.size(), std::numeric_limits<std::uint32_t>::max())
      << "string too long for a u32 length prefix";
  U32(static_cast<std::uint32_t>(s.size()));
  Raw(s.data(), s.size());
}

void ByteWriter::PatchU32(std::size_t pos, std::uint32_t v) {
  MHB_CHECK_LE(pos + sizeof(v), buf_.size()) << "PatchU32 past the end";
  std::memcpy(buf_.data() + pos, &v, sizeof(v));
}

std::string ByteReader::String(std::uint32_t max_len) {
  const std::uint32_t n = U32();
  if (n > max_len) {
    throw Error(what_ + ": string length " + std::to_string(n) +
                " exceeds " + std::to_string(max_len));
  }
  const std::uint8_t* p = Take(n);
  return std::string(reinterpret_cast<const char*>(p), n);
}

void ByteReader::ExpectEnd() const {
  if (remaining() != 0) {
    throw Error(what_ + ": " + std::to_string(remaining()) +
                " trailing bytes");
  }
}

void ByteReader::ThrowTruncated(std::size_t n) const {
  throw Error(what_ + ": truncated (need " + std::to_string(n) +
              " bytes, " + std::to_string(remaining()) + " left)");
}

std::vector<std::uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f.good()) throw Error("cannot open " + path);
  const std::streamoff size = f.tellg();
  if (size < 0) throw Error("cannot size " + path);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  f.seekg(0);
  f.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!f.good()) throw Error("failed reading " + path);
  return bytes;
}

void WriteFileAtomic(const std::string& path, std::string_view content) {
  const std::string tmp = path + ".tmp";
  std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
  if (!f.good()) throw Error("cannot open " + tmp);
  f.write(content.data(), static_cast<std::streamsize>(content.size()));
  f.close();
  if (!f.good()) throw Error("failed writing " + tmp);
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw Error("cannot move " + tmp + " into place: " + ec.message());
  }
}

void WriteFileAtomic(const std::string& path,
                     const std::vector<std::uint8_t>& bytes) {
  WriteFileAtomic(path,
                  std::string_view(reinterpret_cast<const char*>(bytes.data()),
                                   bytes.size()));
}

void AppendFile(const std::string& path, std::string_view content) {
  std::ofstream f(path, std::ios::binary | std::ios::app);
  if (!f.good()) throw Error("cannot open " + path);
  f.write(content.data(), static_cast<std::streamsize>(content.size()));
  f.flush();
  if (!f.good()) throw Error("failed appending to " + path);
}

}  // namespace mhbench
