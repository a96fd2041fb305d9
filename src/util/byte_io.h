// Little-endian byte buffer writer/reader used by the APK container codec.
// ZIP and DEX are little-endian formats; these helpers centralize the
// serialization so the codecs never touch raw pointer arithmetic.

#ifndef APICHECKER_UTIL_BYTE_IO_H_
#define APICHECKER_UTIL_BYTE_IO_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace apichecker::util {

class ByteWriter {
 public:
  void PutU8(uint8_t v);
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  // Unsigned LEB128, as used by DEX for variable-length counts.
  void PutUleb128(uint64_t v);
  void PutBytes(std::span<const uint8_t> data);
  // Length-prefixed (ULEB128) UTF-8 string.
  void PutString(std::string_view s);

  size_t size() const { return buffer_.size(); }
  const std::vector<uint8_t>& bytes() const { return buffer_; }
  std::vector<uint8_t> TakeBytes() { return std::move(buffer_); }

  // Overwrites a previously written u32 at `offset` (for back-patching
  // lengths/offsets in container headers).
  void PatchU32(size_t offset, uint32_t v);

 private:
  std::vector<uint8_t> buffer_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

  Result<uint8_t> ReadU8();
  Result<uint16_t> ReadU16();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<uint64_t> ReadUleb128();
  Result<std::vector<uint8_t>> ReadBytes(size_t n);
  // Zero-copy ReadBytes: a view of the next `n` bytes of the reader's buffer,
  // valid as long as that buffer is.
  Result<std::span<const uint8_t>> ReadSpan(size_t n);
  Result<std::string> ReadString();

  // Absolute seek. Fails when out of bounds.
  Result<bool> Seek(size_t offset);

  size_t position() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

}  // namespace apichecker::util

#endif  // APICHECKER_UTIL_BYTE_IO_H_
