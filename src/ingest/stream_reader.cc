#include "ingest/stream_reader.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "obs/metrics.h"
#include "obs/names.h"
#include "util/sha1.h"
#include "util/strings.h"

namespace apichecker::ingest {

util::Result<size_t> MemoryStreamReader::Read(std::span<uint8_t> out) {
  const size_t take = std::min(out.size(), bytes_.size() - offset_);
  if (take > 0) {
    std::memcpy(out.data(), bytes_.data() + offset_, take);
    offset_ += take;
  }
  return take;
}

FileStreamReader::FileStreamReader(std::string path) : path_(std::move(path)) {
  FILE* f = std::fopen(path_.c_str(), "rb");
  if (f != nullptr) {
    if (std::fseek(f, 0, SEEK_END) == 0) {
      const long end = std::ftell(f);
      if (end >= 0) size_hint_ = static_cast<size_t>(end);
      std::fseek(f, 0, SEEK_SET);
    }
  }
  file_ = f;
}

FileStreamReader::~FileStreamReader() {
  if (file_ != nullptr) std::fclose(static_cast<FILE*>(file_));
}

util::Result<size_t> FileStreamReader::Read(std::span<uint8_t> out) {
  if (file_ == nullptr) {
    return util::Err(util::StrFormat("cannot open %s", path_.c_str()));
  }
  FILE* f = static_cast<FILE*>(file_);
  const size_t n = std::fread(out.data(), 1, out.size(), f);
  if (n < out.size() && std::ferror(f)) {
    return util::Err(util::StrFormat("read error on %s", path_.c_str()));
  }
  return n;
}

std::optional<size_t> FileStreamReader::SizeHint() const { return size_hint_; }

BlobAssembler::BlobAssembler(std::optional<size_t> size_hint)
    : hasher_(std::make_unique<util::Sha1Hasher>()) {
  if (size_hint.has_value()) bytes_.reserve(*size_hint);
}

BlobAssembler::~BlobAssembler() = default;

void BlobAssembler::Append(std::span<const uint8_t> chunk) {
  if (chunk.empty()) return;
  hasher_->Update(chunk);
  bytes_.insert(bytes_.end(), chunk.begin(), chunk.end());
  appended_ += chunk.size();
  auto& registry = obs::MetricsRegistry::Default();
  registry.counter(obs::names::kIngestBytesStreamedTotal).Increment(chunk.size());
  registry.counter(obs::names::kIngestChunksTotal).Increment();
}

ApkBlob BlobAssembler::Finish() {
  obs::MetricsRegistry::Default().counter(obs::names::kServeHashOpsTotal).Increment();
  return BlobBuilder::Finish(std::move(bytes_), hasher_->FinalHex());
}

util::Result<ApkBlob> ReadApkBlob(ApkStreamReader& reader, size_t chunk_bytes) {
  if (chunk_bytes == 0) chunk_bytes = kDefaultChunkBytes;
  auto& registry = obs::MetricsRegistry::Default();
  obs::Counter& bytes_streamed =
      registry.counter(obs::names::kIngestBytesStreamedTotal);
  obs::Counter& chunks = registry.counter(obs::names::kIngestChunksTotal);

  // Chunks land straight in the blob's buffer (no scratch copy) and are
  // hashed while still in cache. Reads never ask past the reserved capacity,
  // and one spare byte past the size hint lets the last read see EOF without
  // growing, so an exact hint means one allocation and no reallocation copy.
  std::vector<uint8_t> bytes;
  if (auto hint = reader.SizeHint()) {
    bytes.reserve(*hint + 1);
  }
  util::Sha1Hasher hasher;
  for (;;) {
    const size_t filled = bytes.size();
    if (filled == bytes.capacity()) {
      bytes.reserve(std::max(2 * filled, filled + chunk_bytes));
    }
    bytes.resize(std::min(bytes.capacity(), filled + chunk_bytes));
    auto n = reader.Read(std::span<uint8_t>(bytes).subspan(filled));
    if (!n.ok()) {
      return util::Err(n.error());
    }
    bytes.resize(filled + *n);
    if (*n == 0) break;
    hasher.Update(std::span<const uint8_t>(bytes).subspan(filled));
    bytes_streamed.Increment(*n);
    chunks.Increment();
  }
  registry.counter(obs::names::kServeHashOpsTotal).Increment();
  return BlobBuilder::Finish(std::move(bytes), hasher.FinalHex());
}

util::Result<ApkBlob> ReadApkBlobFromFile(const std::string& path,
                                          size_t chunk_bytes) {
  FileStreamReader reader(path);
  return ReadApkBlob(reader, chunk_bytes);
}

}  // namespace apichecker::ingest
