#include "apk/apk.h"

#include <algorithm>

#include "apk/zip.h"
#include "util/rng.h"
#include "util/strings.h"

namespace apichecker::apk {

std::string ContentDigest(std::initializer_list<std::span<const uint8_t>> parts) {
  // Two independent 64-bit mixing chains give a 128-bit digest. Not
  // cryptographic — it plays MD5's *identity* role, not a security role.
  // The value is stored in every APK's signature entry, so this function is
  // part of the format: it must stay bit-for-bit.
  uint64_t a = 0x6a09e667f3bcc908ull;
  uint64_t b = 0xbb67ae8584caa73bull;
  for (std::span<const uint8_t> part : parts) {
    for (uint8_t byte : part) {
      a = util::SplitMix64(a ^ byte);
      b = util::SplitMix64(b + (static_cast<uint64_t>(byte) << 1 | 1));
    }
  }
  return util::StrFormat("%016llx%016llx", static_cast<unsigned long long>(a),
                         static_cast<unsigned long long>(b));
}

std::string ContentDigest(std::span<const uint8_t> bytes) { return ContentDigest({bytes}); }

namespace {

// Stub ELF-flavoured native library payload: a recognizable header plus a
// little deterministic filler. Content is irrelevant to the pipeline beyond
// the entry's existence.
std::vector<uint8_t> NativeLibStub(uint64_t seed) {
  std::vector<uint8_t> lib = {0x7f, 'E', 'L', 'F', 1, 1, 1, 0};
  util::Rng rng(seed);
  for (int i = 0; i < 56; ++i) {
    lib.push_back(static_cast<uint8_t>(rng.Next() & 0xFF));
  }
  return lib;
}

}  // namespace

std::vector<uint8_t> BuildApk(const Manifest& manifest, const DexFile& dex,
                              bool include_native_lib) {
  const std::vector<uint8_t> manifest_bytes = EncodeManifest(manifest);
  const std::vector<uint8_t> dex_bytes = EncodeDex(dex);

  // Digest covers the code-bearing entries, like a real signature digest.
  const std::string digest = ContentDigest({manifest_bytes, dex_bytes});

  ZipWriter writer;
  writer.AddEntry(kManifestEntry, manifest_bytes);
  writer.AddEntry(kDexEntry, dex_bytes);
  if (include_native_lib) {
    writer.AddEntry(kNativeLibEntry, NativeLibStub(dex.behavior_seed));
  }
  writer.AddEntry(kSignatureEntry,
                  std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(digest.data()),
                                           digest.size()));
  return writer.Finish();
}

util::Result<ApkFile> ParseApk(std::span<const uint8_t> bytes) {
  auto zip = ZipReader::Parse(bytes);
  if (!zip.ok()) {
    return util::Err("apk container: " + zip.error());
  }

  // Entry views borrow `bytes`; everything copied into the ApkFile below is
  // owned, so the result outlives the caller's buffer.
  const auto manifest_bytes = zip->Find(kManifestEntry);
  if (!manifest_bytes) {
    return util::Err("apk missing AndroidManifest.xml");
  }
  const auto dex_bytes = zip->Find(kDexEntry);
  if (!dex_bytes) {
    return util::Err("apk missing classes.dex");
  }
  const auto signature_bytes = zip->Find(kSignatureEntry);
  if (!signature_bytes) {
    return util::Err("apk missing signature entry");
  }

  auto manifest = ParseManifest(*manifest_bytes);
  if (!manifest.ok()) {
    return util::Err("apk manifest: " + manifest.error());
  }
  auto dex = ParseDex(*dex_bytes);
  if (!dex.ok()) {
    return util::Err("apk dex: " + dex.error());
  }

  const std::string expected_digest = ContentDigest({*manifest_bytes, *dex_bytes});
  std::string stored_digest(signature_bytes->begin(), signature_bytes->end());
  if (stored_digest != expected_digest) {
    return util::Err("apk signature digest mismatch");
  }

  ApkFile apk;
  apk.manifest = std::move(*manifest);
  apk.dex = std::move(*dex);
  apk.has_native_lib = zip->Find(kNativeLibEntry).has_value();
  apk.digest = std::move(stored_digest);
  return apk;
}

util::Result<std::vector<uint8_t>> PadApk(std::span<const uint8_t> bytes,
                                          size_t target_bytes, uint64_t seed) {
  if (bytes.size() >= target_bytes) {
    return std::vector<uint8_t>(bytes.begin(), bytes.end());
  }
  auto zip = ZipReader::Parse(bytes);
  if (!zip.ok()) {
    return util::Err("apk container: " + zip.error());
  }
  // Headroom for the padding entry's local header + central record (~150 B).
  const size_t overhead = 160;
  const size_t pad_size =
      target_bytes - std::min(target_bytes, bytes.size() + overhead);
  std::vector<uint8_t> filler(pad_size);
  util::Rng rng(seed);
  for (auto& byte : filler) {
    byte = static_cast<uint8_t>(rng.Next() & 0xFF);
  }
  ZipWriter writer;
  for (const ZipEntry& entry : zip->entries()) {
    writer.AddEntry(entry.name, entry.data);
  }
  writer.AddEntry("assets/padding.bin", filler);
  return writer.Finish();
}

}  // namespace apichecker::apk
