#include "util/sha1.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "util/sha1_detail.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace apichecker::util {

namespace {

inline uint32_t Rotl(uint32_t value, int bits) { return std::rotl(value, bits); }

#if defined(__x86_64__)

// SHA extensions kernel (Intel's published round structure). Each call to
// Sha1Round handles four rounds: fold the next message quad into E, run
// SHA1RNDS4 with the round-group function G/5, and advance the message
// schedule three quads ahead (MSG1 / XOR / MSG2 steps). Templating on the
// group index keeps every register index and the SHA1RNDS4 immediate a
// compile-time constant; the compiler unrolls all twenty groups.
#define APICHECKER_SHA_TARGET __attribute__((target("sha,sse4.1")))

template <int G>
APICHECKER_SHA_TARGET __attribute__((always_inline)) inline void Sha1Round(
    __m128i& abcd, __m128i (&e)[2], __m128i (&msg)[4]) {
  constexpr int kCur = G & 1;
  if constexpr (G == 0) {
    e[kCur] = _mm_add_epi32(e[kCur], msg[0]);
  } else {
    e[kCur] = _mm_sha1nexte_epu32(e[kCur], msg[G % 4]);
  }
  e[kCur ^ 1] = abcd;
  abcd = _mm_sha1rnds4_epu32(abcd, e[kCur], G / 5);
  if constexpr (G >= 3 && G <= 18) {
    msg[(G + 1) % 4] = _mm_sha1msg2_epu32(msg[(G + 1) % 4], msg[G % 4]);
  }
  if constexpr (G >= 1 && G <= 16) {
    msg[(G + 3) % 4] = _mm_sha1msg1_epu32(msg[(G + 3) % 4], msg[G % 4]);
  }
  if constexpr (G >= 2 && G <= 17) {
    msg[(G + 2) % 4] = _mm_xor_si128(msg[(G + 2) % 4], msg[G % 4]);
  }
}

template <int... G>
APICHECKER_SHA_TARGET __attribute__((always_inline)) inline void Sha1Rounds(
    __m128i& abcd, __m128i (&e)[2], __m128i (&msg)[4],
    std::integer_sequence<int, G...>) {
  (Sha1Round<G>(abcd, e, msg), ...);
}

APICHECKER_SHA_TARGET void Sha1CompressShaNi(uint32_t state[5], const uint8_t* blocks,
                                              size_t num_blocks) {
  // Byte-reverses the whole vector: big-endian message words land in the
  // lane order SHA1RNDS4 expects (word 0 in the top lane).
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
  __m128i abcd = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0x1B);
  __m128i e0 = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);
  for (; num_blocks > 0; --num_blocks, blocks += 64) {
    const __m128i abcd_save = abcd;
    const __m128i e_save = e0;
    __m128i msg[4];
    for (int i = 0; i < 4; ++i) {
      msg[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)),
          kByteSwap);
    }
    __m128i e[2] = {e0, _mm_setzero_si128()};
    Sha1Rounds(abcd, e, msg, std::make_integer_sequence<int, 20>{});
    // After group 19 the pre-round ABCD sits in e[0]; SHA1NEXTE rotates its
    // A into the E position and adds the saved E.
    e0 = _mm_sha1nexte_epu32(e[0], e_save);
    abcd = _mm_add_epi32(abcd, abcd_save);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_shuffle_epi32(abcd, 0x1B));
  state[4] = static_cast<uint32_t>(_mm_extract_epi32(e0, 3));
}

#undef APICHECKER_SHA_TARGET

#endif  // defined(__x86_64__)

// Whole-block runs go to the fastest kernel this CPU has; chosen once.
detail::Sha1CompressFn BulkCompress() {
  static const detail::Sha1CompressFn kBulk = [] {
    const detail::Sha1CompressFn accelerated = detail::Sha1CompressAccelerated();
    return accelerated != nullptr ? accelerated : &detail::Sha1CompressPortable;
  }();
  return kBulk;
}

}  // namespace

namespace detail {

Sha1CompressFn Sha1CompressAccelerated() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1")) {
    return &Sha1CompressShaNi;
  }
#endif
  return nullptr;
}

void Sha1CompressPortable(uint32_t state[5], const uint8_t* blocks, size_t num_blocks) {
  for (const uint8_t* block = blocks; num_blocks > 0; --num_blocks, block += 64) {
    uint32_t w[80];
    for (int t = 0; t < 16; ++t) {
      w[t] = (static_cast<uint32_t>(block[t * 4]) << 24) |
             (static_cast<uint32_t>(block[t * 4 + 1]) << 16) |
             (static_cast<uint32_t>(block[t * 4 + 2]) << 8) |
             static_cast<uint32_t>(block[t * 4 + 3]);
    }
    for (int t = 16; t < 80; ++t) {
      w[t] = Rotl(w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16], 1);
    }
    uint32_t a = state[0], b = state[1], c = state[2], d = state[3], e = state[4];
    for (int t = 0; t < 80; ++t) {
      uint32_t f, k;
      if (t < 20) {
        f = (b & c) | ((~b) & d);
        k = 0x5A827999u;
      } else if (t < 40) {
        f = b ^ c ^ d;
        k = 0x6ED9EBA1u;
      } else if (t < 60) {
        f = (b & c) | (b & d) | (c & d);
        k = 0x8F1BBCDCu;
      } else {
        f = b ^ c ^ d;
        k = 0xCA62C1D6u;
      }
      const uint32_t temp = Rotl(a, 5) + f + e + k + w[t];
      e = d;
      d = c;
      c = Rotl(b, 30);
      b = a;
      a = temp;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
  }
}

}  // namespace detail

void Sha1Hasher::Reset() {
  h_[0] = 0x67452301u;
  h_[1] = 0xEFCDAB89u;
  h_[2] = 0x98BADCFEu;
  h_[3] = 0x10325476u;
  h_[4] = 0xC3D2E1F0u;
  buffer_len_ = 0;
  total_bytes_ = 0;
}

void Sha1Hasher::ProcessBlock(const uint8_t* block) {
  detail::Sha1CompressPortable(h_, block, 1);
}

void Sha1Hasher::Update(std::span<const uint8_t> data) {
  total_bytes_ += data.size();
  size_t offset = 0;
  if (buffer_len_ > 0) {
    const size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ < 64) {
      return;
    }
    ProcessBlock(buffer_);
    buffer_len_ = 0;
  }
  const size_t whole_blocks = (data.size() - offset) / 64;
  if (whole_blocks > 0) {
    BulkCompress()(h_, data.data() + offset, whole_blocks);
    offset += whole_blocks * 64;
  }
  const size_t rem = data.size() - offset;
  if (rem > 0) {
    std::memcpy(buffer_, data.data() + offset, rem);
    buffer_len_ = rem;
  }
}

std::array<uint8_t, kSha1DigestSize> Sha1Hasher::Final() {
  // Final block(s): 0x80 terminator, zero pad, 64-bit big-endian bit length.
  uint8_t tail[128] = {0};
  const size_t rem = buffer_len_;
  if (rem > 0) {
    std::memcpy(tail, buffer_, rem);
  }
  tail[rem] = 0x80;
  const size_t tail_len = rem + 1 + 8 <= 64 ? 64 : 128;
  const uint64_t bit_len = total_bytes_ * 8;
  for (int i = 0; i < 8; ++i) {
    tail[tail_len - 1 - i] = static_cast<uint8_t>(bit_len >> (8 * i));
  }
  ProcessBlock(tail);
  if (tail_len == 128) {
    ProcessBlock(tail + 64);
  }

  std::array<uint8_t, kSha1DigestSize> digest;
  for (int i = 0; i < 5; ++i) {
    digest[i * 4] = static_cast<uint8_t>(h_[i] >> 24);
    digest[i * 4 + 1] = static_cast<uint8_t>(h_[i] >> 16);
    digest[i * 4 + 2] = static_cast<uint8_t>(h_[i] >> 8);
    digest[i * 4 + 3] = static_cast<uint8_t>(h_[i]);
  }
  Reset();
  return digest;
}

std::string Sha1Hasher::FinalHex() { return Sha1DigestHex(Final()); }

std::array<uint8_t, kSha1DigestSize> Sha1(std::span<const uint8_t> data) {
  Sha1Hasher hasher;
  hasher.Update(data);
  return hasher.Final();
}

std::string Sha1DigestHex(const std::array<uint8_t, kSha1DigestSize>& digest) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string hex(kSha1DigestSize * 2, '0');
  for (size_t i = 0; i < digest.size(); ++i) {
    hex[i * 2] = kHex[digest[i] >> 4];
    hex[i * 2 + 1] = kHex[digest[i] & 0xF];
  }
  return hex;
}

std::string Sha1Hex(std::span<const uint8_t> data) {
  return Sha1DigestHex(Sha1(data));
}

}  // namespace apichecker::util
