// Hand-rolled SHA-1 (FIPS 180-1), dependency-free. The serving layer keys its
// digest cache on the SHA-1 of the raw submitted APK bytes — the role the
// paper's MD5 content hash plays in §4.1 (same package + different digest is
// a different app; same digest is a resubmission and can skip re-analysis).
// Not a security boundary here: collisions only cost a stale cache entry.

#ifndef APICHECKER_UTIL_SHA1_H_
#define APICHECKER_UTIL_SHA1_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>

namespace apichecker::util {

inline constexpr size_t kSha1DigestSize = 20;

// Streaming hasher: Update() as chunks arrive (any sizes, including zero),
// Final() once to pad and extract the digest. After Final() the hasher is
// reset and may be reused for a fresh message. The ingest layer feeds this
// from a chunked reader so an 8 MB APK is hashed while it streams in instead
// of requiring the full buffer up front.
//
// Update() hands every whole run of 64-byte blocks to one compression call:
// the SHA extensions kernel on x86-64 CPUs that have it (chosen once per
// process), the portable rounds otherwise. The buffered partial block and
// the Final() padding always take the portable ProcessBlock.
class Sha1Hasher {
 public:
  Sha1Hasher() { Reset(); }

  void Update(std::span<const uint8_t> data);
  std::array<uint8_t, kSha1DigestSize> Final();
  // 40 lowercase hex characters; same reset-on-completion semantics.
  std::string FinalHex();
  void Reset();

 private:
  void ProcessBlock(const uint8_t* block);

  uint32_t h_[5];
  uint8_t buffer_[64];
  size_t buffer_len_ = 0;
  uint64_t total_bytes_ = 0;
};

std::array<uint8_t, kSha1DigestSize> Sha1(std::span<const uint8_t> data);

// 40 lowercase hex characters.
std::string Sha1Hex(std::span<const uint8_t> data);

std::string Sha1DigestHex(const std::array<uint8_t, kSha1DigestSize>& digest);

}  // namespace apichecker::util

#endif  // APICHECKER_UTIL_SHA1_H_
