// Minimal ZIP archive codec (store method only, CRC-32 validated), the
// container format of Android APKs. The writer emits local file headers, a
// central directory, and an end-of-central-directory record; the reader
// locates the EOCD from the tail, walks the central directory, and validates
// each entry's CRC — the same structural work a real APK parser performs.
//
// The reader is zero-copy: each entry's data is a view into the parsed
// bytes, so those bytes must outlive the ZipReader and every span taken from
// it. Every entry's CRC is verified inside Parse(), before any is handed out.

#ifndef APICHECKER_APK_ZIP_H_
#define APICHECKER_APK_ZIP_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace apichecker::apk {

class ZipWriter {
 public:
  // Entry names must be unique and non-empty. Data is stored uncompressed.
  void AddEntry(const std::string& name, std::span<const uint8_t> data);

  // Appends the central directory and EOCD; the writer is consumed.
  std::vector<uint8_t> Finish();

 private:
  struct EntryMeta {
    std::string name;
    uint32_t crc32 = 0;
    uint32_t size = 0;
    uint32_t local_header_offset = 0;
  };

  std::vector<uint8_t> payload_;
  std::vector<EntryMeta> entries_;
};

struct ZipEntry {
  std::string name;
  std::span<const uint8_t> data;  // Into the bytes given to ZipReader::Parse.
};

class ZipReader {
 public:
  // Parses and CRC-validates the whole archive. The reader borrows `bytes`.
  static util::Result<ZipReader> Parse(std::span<const uint8_t> bytes);

  const std::vector<ZipEntry>& entries() const { return entries_; }

  // Returns a view of the entry's data, or nullopt if absent (an empty span
  // is a present, empty entry).
  std::optional<std::span<const uint8_t>> Find(std::string_view name) const;

 private:
  std::vector<ZipEntry> entries_;
};

}  // namespace apichecker::apk

#endif  // APICHECKER_APK_ZIP_H_
