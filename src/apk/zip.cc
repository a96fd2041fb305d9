#include "apk/zip.h"

#include "util/byte_io.h"
#include "util/crc32.h"

namespace apichecker::apk {

namespace {

constexpr uint32_t kLocalHeaderSig = 0x04034b50;    // "PK\3\4"
constexpr uint32_t kCentralDirSig = 0x02014b50;     // "PK\1\2"
constexpr uint32_t kEndOfCentralDirSig = 0x06054b50;  // "PK\5\6"
constexpr uint16_t kVersion = 20;
constexpr uint16_t kMethodStored = 0;

}  // namespace

void ZipWriter::AddEntry(const std::string& name, std::span<const uint8_t> data) {
  EntryMeta meta;
  meta.name = name;
  meta.crc32 = util::Crc32(data);
  meta.size = static_cast<uint32_t>(data.size());
  meta.local_header_offset = static_cast<uint32_t>(payload_.size());

  util::ByteWriter header;
  header.PutU32(kLocalHeaderSig);
  header.PutU16(kVersion);   // Version needed to extract.
  header.PutU16(0);          // General-purpose flags.
  header.PutU16(kMethodStored);
  header.PutU16(0);          // Mod time.
  header.PutU16(0);          // Mod date.
  header.PutU32(meta.crc32);
  header.PutU32(meta.size);  // Compressed size (== raw: stored).
  header.PutU32(meta.size);  // Uncompressed size.
  header.PutU16(static_cast<uint16_t>(name.size()));
  header.PutU16(0);          // Extra field length.
  const auto& header_bytes = header.bytes();
  payload_.insert(payload_.end(), header_bytes.begin(), header_bytes.end());
  payload_.insert(payload_.end(), name.begin(), name.end());
  payload_.insert(payload_.end(), data.begin(), data.end());

  entries_.push_back(std::move(meta));
}

std::vector<uint8_t> ZipWriter::Finish() {
  const uint32_t central_dir_offset = static_cast<uint32_t>(payload_.size());
  util::ByteWriter central;
  for (const EntryMeta& meta : entries_) {
    central.PutU32(kCentralDirSig);
    central.PutU16(kVersion);  // Version made by.
    central.PutU16(kVersion);  // Version needed.
    central.PutU16(0);         // Flags.
    central.PutU16(kMethodStored);
    central.PutU16(0);  // Time.
    central.PutU16(0);  // Date.
    central.PutU32(meta.crc32);
    central.PutU32(meta.size);
    central.PutU32(meta.size);
    central.PutU16(static_cast<uint16_t>(meta.name.size()));
    central.PutU16(0);  // Extra length.
    central.PutU16(0);  // Comment length.
    central.PutU16(0);  // Disk number.
    central.PutU16(0);  // Internal attributes.
    central.PutU32(0);  // External attributes.
    central.PutU32(meta.local_header_offset);
    central.PutBytes(std::span<const uint8_t>(
        reinterpret_cast<const uint8_t*>(meta.name.data()), meta.name.size()));
  }
  const auto& central_bytes = central.bytes();
  const uint32_t central_dir_size = static_cast<uint32_t>(central_bytes.size());
  payload_.insert(payload_.end(), central_bytes.begin(), central_bytes.end());

  util::ByteWriter eocd;
  eocd.PutU32(kEndOfCentralDirSig);
  eocd.PutU16(0);  // Disk number.
  eocd.PutU16(0);  // Central dir start disk.
  eocd.PutU16(static_cast<uint16_t>(entries_.size()));
  eocd.PutU16(static_cast<uint16_t>(entries_.size()));
  eocd.PutU32(central_dir_size);
  eocd.PutU32(central_dir_offset);
  eocd.PutU16(0);  // Comment length.
  const auto& eocd_bytes = eocd.bytes();
  payload_.insert(payload_.end(), eocd_bytes.begin(), eocd_bytes.end());

  entries_.clear();
  return std::move(payload_);
}

util::Result<ZipReader> ZipReader::Parse(std::span<const uint8_t> bytes) {
  // EOCD is 22 bytes when the comment is empty; scan backwards for the
  // signature to tolerate trailing comments.
  if (bytes.size() < 22) {
    return util::Err("archive too small for EOCD");
  }
  size_t eocd_offset = bytes.size();
  for (size_t candidate = bytes.size() - 22 + 1; candidate-- > 0;) {
    if (bytes[candidate] == 0x50 && bytes[candidate + 1] == 0x4b &&
        bytes[candidate + 2] == 0x05 && bytes[candidate + 3] == 0x06) {
      eocd_offset = candidate;
      break;
    }
  }
  if (eocd_offset == bytes.size()) {
    return util::Err("missing end-of-central-directory record");
  }

  util::ByteReader eocd(bytes.subspan(eocd_offset));
  (void)eocd.ReadU32();  // Signature (verified above).
  (void)eocd.ReadU16();  // Disk number.
  (void)eocd.ReadU16();  // Start disk.
  auto entries_this_disk = eocd.ReadU16();
  auto total_entries = eocd.ReadU16();
  auto central_size = eocd.ReadU32();
  auto central_offset = eocd.ReadU32();
  if (!entries_this_disk.ok() || !total_entries.ok() || !central_size.ok() ||
      !central_offset.ok()) {
    return util::Err("truncated EOCD");
  }
  // 64-bit arithmetic: both fields are attacker-controlled uint32s whose sum
  // can wrap at 32 bits and sneak past the bounds check.
  if (static_cast<uint64_t>(*central_offset) + *central_size > bytes.size()) {
    return util::Err("central directory out of bounds");
  }
  if (*total_entries == 0) {
    return util::Err("zero-entry archive");
  }

  ZipReader reader;
  util::ByteReader central(bytes.subspan(*central_offset, *central_size));
  for (uint16_t i = 0; i < *total_entries; ++i) {
    auto sig = central.ReadU32();
    if (!sig.ok() || *sig != kCentralDirSig) {
      return util::Err("bad central directory signature");
    }
    (void)central.ReadU16();  // Version made by.
    (void)central.ReadU16();  // Version needed.
    (void)central.ReadU16();  // Flags.
    auto method = central.ReadU16();
    (void)central.ReadU16();  // Time.
    (void)central.ReadU16();  // Date.
    auto crc = central.ReadU32();
    auto comp_size = central.ReadU32();
    auto uncomp_size = central.ReadU32();
    auto name_len = central.ReadU16();
    auto extra_len = central.ReadU16();
    auto comment_len = central.ReadU16();
    (void)central.ReadU16();  // Disk number.
    (void)central.ReadU16();  // Internal attributes.
    (void)central.ReadU32();  // External attributes.
    auto local_offset = central.ReadU32();
    if (!method.ok() || !crc.ok() || !comp_size.ok() || !uncomp_size.ok() || !name_len.ok() ||
        !extra_len.ok() || !comment_len.ok() || !local_offset.ok()) {
      return util::Err("truncated central directory record");
    }
    if (*method != kMethodStored) {
      return util::Err("unsupported compression method");
    }
    auto name_bytes = central.ReadSpan(*name_len);
    if (!name_bytes.ok()) {
      return util::Err("truncated entry name");
    }
    auto skipped = central.ReadSpan(static_cast<size_t>(*extra_len) + *comment_len);
    if (!skipped.ok()) {
      return util::Err("truncated entry extra/comment");
    }

    // Jump to the local header and cross-check before extracting data.
    util::ByteReader local(bytes);
    if (!local.Seek(*local_offset).ok()) {
      return util::Err("local header offset out of bounds");
    }
    auto local_sig = local.ReadU32();
    if (!local_sig.ok() || *local_sig != kLocalHeaderSig) {
      return util::Err("bad local header signature");
    }
    (void)local.ReadU16();  // Version.
    (void)local.ReadU16();  // Flags.
    (void)local.ReadU16();  // Method.
    (void)local.ReadU16();  // Time.
    (void)local.ReadU16();  // Date.
    (void)local.ReadU32();  // CRC.
    (void)local.ReadU32();  // Compressed size.
    (void)local.ReadU32();  // Uncompressed size.
    auto local_name_len = local.ReadU16();
    auto local_extra_len = local.ReadU16();
    if (!local_name_len.ok() || !local_extra_len.ok()) {
      return util::Err("truncated local header");
    }
    if (!local.ReadSpan(static_cast<size_t>(*local_name_len) + *local_extra_len).ok()) {
      return util::Err("truncated local header name");
    }
    auto data = local.ReadSpan(*uncomp_size);
    if (!data.ok()) {
      return util::Err("truncated entry data");
    }
    std::string name(name_bytes->begin(), name_bytes->end());
    if (util::Crc32(*data) != *crc) {
      return util::Err("CRC mismatch for entry '" + name + "'");
    }
    reader.entries_.push_back(ZipEntry{std::move(name), *data});
  }
  return reader;
}

std::optional<std::span<const uint8_t>> ZipReader::Find(std::string_view name) const {
  for (const ZipEntry& entry : entries_) {
    if (entry.name == name) {
      return entry.data;
    }
  }
  return std::nullopt;
}

}  // namespace apichecker::apk
