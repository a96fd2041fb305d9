#include "util/byte_io.h"

namespace apichecker::util {

void ByteWriter::PutU8(uint8_t v) { buffer_.push_back(v); }

void ByteWriter::PutU16(uint16_t v) {
  buffer_.push_back(static_cast<uint8_t>(v));
  buffer_.push_back(static_cast<uint8_t>(v >> 8));
}

void ByteWriter::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buffer_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void ByteWriter::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buffer_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void ByteWriter::PutUleb128(uint64_t v) {
  do {
    uint8_t byte = v & 0x7Fu;
    v >>= 7;
    if (v != 0) {
      byte |= 0x80u;
    }
    buffer_.push_back(byte);
  } while (v != 0);
}

void ByteWriter::PutBytes(std::span<const uint8_t> data) {
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

void ByteWriter::PutString(std::string_view s) {
  PutUleb128(s.size());
  buffer_.insert(buffer_.end(), s.begin(), s.end());
}

void ByteWriter::PatchU32(size_t offset, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buffer_.at(offset + static_cast<size_t>(i)) = static_cast<uint8_t>(v >> (8 * i));
  }
}

Result<uint8_t> ByteReader::ReadU8() {
  if (remaining() < 1) {
    return Err("byte reader underrun (u8)");
  }
  return data_[pos_++];
}

Result<uint16_t> ByteReader::ReadU16() {
  if (remaining() < 2) {
    return Err("byte reader underrun (u16)");
  }
  uint16_t v = static_cast<uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
  pos_ += 2;
  return v;
}

Result<uint32_t> ByteReader::ReadU32() {
  if (remaining() < 4) {
    return Err("byte reader underrun (u32)");
  }
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(data_[pos_ + static_cast<size_t>(i)]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

Result<uint64_t> ByteReader::ReadU64() {
  if (remaining() < 8) {
    return Err("byte reader underrun (u64)");
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(data_[pos_ + static_cast<size_t>(i)]) << (8 * i);
  }
  pos_ += 8;
  return v;
}

Result<uint64_t> ByteReader::ReadUleb128() {
  uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (AtEnd()) {
      return Err("byte reader underrun (uleb128)");
    }
    if (shift >= 64) {
      return Err("uleb128 overflow");
    }
    const uint8_t byte = data_[pos_++];
    v |= static_cast<uint64_t>(byte & 0x7Fu) << shift;
    if ((byte & 0x80u) == 0) {
      return v;
    }
    shift += 7;
  }
}

Result<std::vector<uint8_t>> ByteReader::ReadBytes(size_t n) {
  auto view = ReadSpan(n);
  if (!view.ok()) {
    return Err(view.error());
  }
  return std::vector<uint8_t>(view->begin(), view->end());
}

Result<std::span<const uint8_t>> ByteReader::ReadSpan(size_t n) {
  if (remaining() < n) {
    return Err("byte reader underrun (bytes)");
  }
  const std::span<const uint8_t> out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

Result<std::string> ByteReader::ReadString() {
  auto len = ReadUleb128();
  if (!len.ok()) {
    return Err(len.error());
  }
  if (remaining() < *len) {
    return Err("byte reader underrun (string body)");
  }
  std::string out(reinterpret_cast<const char*>(data_.data() + pos_),
                  static_cast<size_t>(*len));
  pos_ += static_cast<size_t>(*len);
  return out;
}

Result<bool> ByteReader::Seek(size_t offset) {
  if (offset > data_.size()) {
    return Err("seek out of bounds");
  }
  pos_ = offset;
  return true;
}

}  // namespace apichecker::util
