// Deterministic, bounded benchmark inputs.
//
// Every input is a variant of a small pool of base APKs built from the seed:
// the variant appends a unique ZIP archive comment, which changes the SHA-1
// the service keys its digest cache on while leaving the parsed package (and
// so the reference verdict) identical to the base. A distinct 8 MB submission
// therefore costs one memcpy to produce, not a fresh 75 ms padding pass, and
// memory stays at the pool size however long the run is.
//
// Each measured phase draws its submissions from one ItemStream, shared by
// the generator threads. The stream lays its items out in blocks of 16 with
// exact per-block counts (resubmissions, interactive, corrupt), shuffled by
// the seed, so every seed offers the same mix and only the concrete APKs and
// their order change.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "android/api_universe.h"
#include "serve/types.h"
#include "util/rng.h"

namespace perfbench {

// What a workload offers, per block of 16 submissions.
struct MixSpec {
  size_t resubmits = 0;    // Byte-identical resubmissions of earlier items.
  size_t repeats = 0;      // Re-uploads of a digest vetted during set-up.
  size_t interactive = 0;  // Fresh, small, valid, interactive-class items.
  size_t corrupt_every_blocks = 0;  // One corrupt archive per N blocks; 0 = none.
  size_t large_every = 0;  // Every Nth distinct item is large; 0 = none.
  size_t large_bytes = 0;  // Padded size of the large bases.
  size_t body_bytes = 0;   // Padded size of every fresh body; 0 = unpadded.
};

enum class ItemKind : uint8_t { kFresh, kResubmit, kRepeat, kCorrupt };

// Which pool a base index points into.
enum class Pool : uint8_t { kSmall, kLarge, kBody, kCorrupt };

struct Item {
  ItemKind kind = ItemKind::kFresh;
  Pool pool = Pool::kSmall;
  uint32_t base = 0;
  uint64_t variant = 0;  // Unique tag written into the archive comment.
  apichecker::serve::Priority priority = apichecker::serve::Priority::kBulk;
};

struct Verdict {
  bool malicious = false;
  double score = 0.0;
  bool operator==(const Verdict&) const = default;
};

// Base APK pools plus their reference verdicts.
class InputSet {
 public:
  // Builds the pools for `mix` from `seed`; the universe must be the one the
  // serving model was trained against. Corrupt bases are checked to fail
  // apk::ParseApk here; the constructor aborts the run if one parses.
  InputSet(const apichecker::android::ApiUniverse& universe, const MixSpec& mix, uint64_t seed,
           size_t small_bases);

  // Writes the bytes of `item` into `out` (reusing its capacity).
  void Materialize(const Item& item, std::vector<uint8_t>& out) const;
  // The bytes of a base, as built (no variant comment).
  const std::vector<uint8_t>& Base(Pool pool, uint32_t base) const;
  size_t PoolSize(Pool pool) const;

  // Items that are not part of any stream: set-up warm-up batches, the
  // repeat set of upload workloads, hot-swap probes, trace probes. `tag`
  // keeps the groups' digests apart.
  std::vector<Item> Group(uint32_t tag, Pool pool, size_t count) const;

  const MixSpec& mix() const { return mix_; }
  uint64_t seed() const { return seed_; }

  // Reference verdicts, filled by the replay (see replay.h).
  std::vector<Verdict>& reference(Pool pool) { return reference_[static_cast<size_t>(pool)]; }
  const std::vector<Verdict>& reference(Pool pool) const {
    return reference_[static_cast<size_t>(pool)];
  }

 private:
  const apichecker::android::ApiUniverse& universe_;
  MixSpec mix_;
  uint64_t seed_;
  std::vector<std::vector<uint8_t>> pools_[4];
  std::vector<Verdict> reference_[4];
};

// The submission sequence of one phase. Same (seed, phase) -> same items,
// independent of timing.
class ItemStream {
 public:
  // `resubmit_gap`: a resubmission only targets an item at least this many
  // items back in the stream. With a closed loop of W in-flight items, a
  // gap of W + 1 guarantees the target has its verdict.
  ItemStream(const InputSet& inputs, uint32_t phase, size_t resubmit_gap,
             const std::vector<Item>& repeat_set);

  Item Next();

 private:
  void RefillBlock();

  const InputSet& inputs_;
  const std::vector<Item>& repeat_set_;
  uint64_t stream_tag_;
  size_t gap_;
  apichecker::util::Rng rng_;
  struct Slot {
    ItemKind kind = ItemKind::kFresh;
    bool interactive = false;
  };
  std::vector<Slot> block_;  // Remaining slots of the current block, back = next.
  uint64_t index_ = 0;
  uint64_t blocks_ = 0;
  uint64_t distinct_ = 0;
  bool large_due_ = false;
  struct Past {
    Item item;
    uint64_t index = 0;
  };
  std::vector<Past> history_;  // Ring of recent distinct valid items.
  size_t history_next_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
