#include "inputs.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "apk/apk.h"
#include "synth/corpus.h"

namespace perfbench {

namespace ac = apichecker;

namespace {

constexpr size_t kBlockItems = 16;
constexpr size_t kEocdBytes = 22;
constexpr size_t kCommentBytes = 16;
constexpr size_t kLargeBases = 4;
constexpr size_t kBodyBases = 64;
constexpr size_t kCorruptBases = 4;
constexpr size_t kHistory = 256;

[[noreturn]] void Die(const char* what) {
  std::fprintf(stderr, "perfbench: %s\n", what);
  std::exit(3);
}

uint64_t Mix(uint64_t a, uint64_t b) { return ac::util::SplitMix64(a ^ ac::util::SplitMix64(b)); }

// Flips one byte inside the archive's entry data so an entry CRC (or the
// container structure) no longer checks out.
std::vector<uint8_t> Corrupt(std::vector<uint8_t> bytes) {
  for (size_t at = bytes.size() / 2; at + kEocdBytes < bytes.size(); at += 97) {
    bytes[at] ^= 0x5a;
    if (!ac::apk::ParseApk(bytes).ok()) {
      return bytes;
    }
    bytes[at] ^= 0x5a;
  }
  Die("could not corrupt a base APK");
}

}  // namespace

InputSet::InputSet(const ac::android::ApiUniverse& universe, const MixSpec& mix, uint64_t seed,
                   size_t small_bases)
    : universe_(universe), mix_(mix), seed_(seed) {
  ac::synth::CorpusConfig corpus;
  corpus.seed = Mix(seed, 0xc0a9);
  ac::synth::CorpusGenerator generator(universe_, corpus);
  auto next_app = [&] { return ac::synth::BuildApkBytes(generator.Next(), universe_); };
  auto padded = [&](size_t bytes, uint64_t salt) {
    auto out = ac::apk::PadApk(next_app(), bytes, Mix(seed, salt));
    if (!out.ok()) {
      Die("PadApk failed");
    }
    return std::move(*out);
  };

  auto& small = pools_[static_cast<size_t>(Pool::kSmall)];
  for (size_t i = 0; i < small_bases; ++i) {
    small.push_back(next_app());
  }
  if (mix_.large_every > 0) {
    auto& large = pools_[static_cast<size_t>(Pool::kLarge)];
    for (size_t i = 0; i < kLargeBases; ++i) {
      large.push_back(padded(mix_.large_bytes, 0x1a7e + i));
    }
  }
  if (mix_.body_bytes > 0) {
    auto& body = pools_[static_cast<size_t>(Pool::kBody)];
    for (size_t i = 0; i < kBodyBases; ++i) {
      body.push_back(padded(mix_.body_bytes, 0xb0d7 + i));
    }
  }
  if (mix_.corrupt_every_blocks > 0) {
    auto& corrupt = pools_[static_cast<size_t>(Pool::kCorrupt)];
    for (size_t i = 0; i < kCorruptBases; ++i) {
      corrupt.push_back(Corrupt(next_app()));
    }
  }
  for (const auto& pool : pools_) {
    for (const auto& base : pool) {
      // Variants rewrite the end-of-central-directory comment length, so
      // every base must end in a comment-less EOCD record.
      if (base.size() < kEocdBytes) {
        Die("base APK shorter than an EOCD record");
      }
      const uint8_t* eocd = base.data() + base.size() - kEocdBytes;
      if (eocd[0] != 0x50 || eocd[1] != 0x4b || eocd[2] != 0x05 ||
          eocd[3] != 0x06 || eocd[20] != 0 || eocd[21] != 0) {
        Die("base APK does not end in an empty-comment EOCD record");
      }
    }
  }
}

const std::vector<uint8_t>& InputSet::Base(Pool pool, uint32_t base) const {
  return pools_[static_cast<size_t>(pool)].at(base);
}

size_t InputSet::PoolSize(Pool pool) const { return pools_[static_cast<size_t>(pool)].size(); }

void InputSet::Materialize(const Item& item, std::vector<uint8_t>& out) const {
  static constexpr char kHex[] = "0123456789abcdef";
  const std::vector<uint8_t>& base = Base(item.pool, item.base);
  out.resize(base.size() + kCommentBytes);
  std::memcpy(out.data(), base.data(), base.size());
  out[base.size() - 2] = static_cast<uint8_t>(kCommentBytes);
  out[base.size() - 1] = 0;
  // Hex digits never form the "PK\5\6" signature the reader scans for.
  for (size_t i = 0; i < kCommentBytes; ++i) {
    out[base.size() + i] = static_cast<uint8_t>(kHex[(item.variant >> (4 * i)) & 0xf]);
  }
}

std::vector<Item> InputSet::Group(uint32_t tag, Pool pool, size_t count) const {
  std::vector<Item> items(count);
  for (size_t i = 0; i < count; ++i) {
    items[i].kind = pool == Pool::kCorrupt ? ItemKind::kCorrupt : ItemKind::kFresh;
    items[i].pool = pool;
    items[i].base = static_cast<uint32_t>(i % PoolSize(pool));
    items[i].variant = Mix(Mix(seed_, 0x9e0u + tag), i);
  }
  return items;
}

ItemStream::ItemStream(const InputSet& inputs, uint32_t phase, size_t resubmit_gap,
                       const std::vector<Item>& repeat_set)
    : inputs_(inputs),
      repeat_set_(repeat_set),
      stream_tag_(Mix(Mix(inputs.seed(), phase), 1)),
      gap_(resubmit_gap),
      rng_(stream_tag_) {
  history_.reserve(kHistory);
}

void ItemStream::RefillBlock() {
  const MixSpec& mix = inputs_.mix();
  block_.assign(kBlockItems, Slot{});
  size_t at = 0;
  for (size_t i = 0; i < mix.resubmits; ++i) block_[at++].kind = ItemKind::kResubmit;
  for (size_t i = 0; i < mix.repeats; ++i) block_[at++].kind = ItemKind::kRepeat;
  for (size_t i = 0; i < mix.interactive; ++i) block_[at++].interactive = true;
  if (mix.corrupt_every_blocks > 0 && blocks_ % mix.corrupt_every_blocks == 0) {
    block_[at++].kind = ItemKind::kCorrupt;
  }
  for (size_t i = block_.size(); i > 1; --i) {
    std::swap(block_[i - 1], block_[rng_.NextBounded(i)]);
  }
  ++blocks_;
}

Item ItemStream::Next() {
  if (block_.empty()) {
    RefillBlock();
  }
  const Slot slot = block_.back();
  block_.pop_back();
  ++index_;
  const MixSpec& mix = inputs_.mix();

  Item item;
  item.variant = Mix(stream_tag_, index_);
  item.kind = slot.kind;
  if (slot.kind == ItemKind::kRepeat) {
    return repeat_set_[rng_.NextBounded(repeat_set_.size())];
  }
  if (slot.kind == ItemKind::kCorrupt) {
    item.pool = Pool::kCorrupt;
    item.base = static_cast<uint32_t>(rng_.NextBounded(inputs_.PoolSize(Pool::kCorrupt)));
    return item;
  }
  if (slot.kind == ItemKind::kResubmit) {
    // Eligible targets are at least gap_ items old; the ring is filled in
    // index order, so scan for the eligible ones and pick one uniformly.
    size_t eligible = 0;
    for (const Past& past : history_) {
      eligible += past.index + gap_ <= index_;
    }
    if (eligible > 0) {
      size_t pick = rng_.NextBounded(eligible);
      for (const Past& past : history_) {
        if (past.index + gap_ <= index_ && pick-- == 0) {
          Item again = past.item;
          again.kind = ItemKind::kResubmit;
          again.priority = ac::serve::Priority::kBulk;
          return again;
        }
      }
    }
    item.kind = ItemKind::kFresh;  // Too early in the stream: offer a fresh item.
  }

  ++distinct_;
  const bool large_slot = mix.large_every > 0 && distinct_ % mix.large_every == 0;
  if (slot.interactive) {
    item.priority = ac::serve::Priority::kInteractive;
    large_due_ = large_due_ || large_slot;
  }
  if (mix.body_bytes > 0) {
    item.pool = Pool::kBody;
  } else if (!slot.interactive && (large_slot || large_due_) && mix.large_every > 0) {
    item.pool = Pool::kLarge;
    large_due_ = false;
  } else {
    item.pool = Pool::kSmall;
  }
  item.base = static_cast<uint32_t>(rng_.NextBounded(inputs_.PoolSize(item.pool)));

  const Past past{item, index_};
  if (history_.size() < kHistory) {
    history_.push_back(past);
  } else {
    history_[history_next_] = past;
    history_next_ = (history_next_ + 1) % kHistory;
  }
  return item;
}

}  // namespace perfbench
