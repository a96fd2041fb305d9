// SHA-1 compression functions behind util::Sha1Hasher, exposed so tests can
// check the accelerated kernel against the portable one block for block.
// Production code goes through Sha1Hasher, which picks the kernel once.

#ifndef APICHECKER_UTIL_SHA1_DETAIL_H_
#define APICHECKER_UTIL_SHA1_DETAIL_H_

#include <cstddef>
#include <cstdint>

namespace apichecker::util::detail {

// Folds `num_blocks` consecutive 64-byte blocks (any alignment) into the
// five-word chaining state.
using Sha1CompressFn = void (*)(uint32_t state[5], const uint8_t* blocks,
                                size_t num_blocks);

// FIPS 180-1 scalar rounds; runs everywhere.
void Sha1CompressPortable(uint32_t state[5], const uint8_t* blocks, size_t num_blocks);

// The x86-64 SHA extensions kernel when this CPU has them (checked once with
// __builtin_cpu_supports), otherwise null.
Sha1CompressFn Sha1CompressAccelerated();

}  // namespace apichecker::util::detail

#endif  // APICHECKER_UTIL_SHA1_DETAIL_H_
