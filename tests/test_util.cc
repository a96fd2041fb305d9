// Unit tests for src/util: RNG, CRC-32 and SHA-1 kernels, byte IO, strings,
// tables, result, thread pool.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "util/bounded_queue.h"
#include "util/byte_io.h"
#include "util/sha1.h"
#include "util/sha1_detail.h"
#include "util/crc32.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace apichecker::util {
namespace {

TEST(SplitMix64, IsDeterministicAndMixes) {
  EXPECT_EQ(SplitMix64(0), SplitMix64(0));
  EXPECT_NE(SplitMix64(0), SplitMix64(1));
  // Single-bit input changes flip roughly half the output bits.
  const uint64_t a = SplitMix64(0x1234);
  const uint64_t b = SplitMix64(0x1235);
  const int differing = std::popcount(a ^ b);
  EXPECT_GT(differing, 16);
  EXPECT_LT(differing, 48);
}

TEST(Rng, SameSeedSameStream) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(7), b(8);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.Next() == b.Next() ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBoundedInRange) {
  Rng rng(3);
  for (uint64_t bound : {1ull, 2ull, 7ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(Rng, UniformIntCoversEndpoints) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(5);
  double sum = 0.0;
  for (int i = 0; i < 10'000; ++i) {
    const double v = rng.NextDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10'000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 20'000; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(hits / 20'000.0, 0.3, 0.02);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(23);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal(2.0, 3.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.1);
}

TEST(Rng, LogNormalMedian) {
  Rng rng(29);
  std::vector<double> vs;
  for (int i = 0; i < 20'001; ++i) {
    vs.push_back(rng.LogNormal(5.0, 0.7));
  }
  std::nth_element(vs.begin(), vs.begin() + 10'000, vs.end());
  EXPECT_NEAR(vs[10'000], 5.0, 0.25);
}

TEST(Rng, PoissonMean) {
  Rng rng(31);
  for (double mean : {0.5, 4.0, 120.0}) {
    double sum = 0.0;
    for (int i = 0; i < 20'000; ++i) {
      sum += static_cast<double>(rng.Poisson(mean));
    }
    EXPECT_NEAR(sum / 20'000.0, mean, mean * 0.05 + 0.05);
  }
  EXPECT_EQ(rng.Poisson(0.0), 0u);
}

TEST(Rng, WeightedIndexFollowsWeights) {
  Rng rng(37);
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  std::array<int, 3> counts{};
  for (int i = 0; i < 20'000; ++i) {
    ++counts[rng.WeightedIndex(weights)];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(41);
  const auto perm = rng.Permutation(257);
  std::set<uint32_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 257u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 256u);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(43);
  const auto sample = rng.SampleWithoutReplacement(100, 30);
  std::set<uint32_t> seen(sample.begin(), sample.end());
  EXPECT_EQ(seen.size(), 30u);
  for (uint32_t v : seen) {
    EXPECT_LT(v, 100u);
  }
  EXPECT_EQ(rng.SampleWithoutReplacement(5, 10).size(), 5u);
  EXPECT_TRUE(rng.SampleWithoutReplacement(5, 0).empty());
}

TEST(Rng, ForkIsIndependentOfParentState) {
  Rng a(99);
  const Rng fork_before = a.Fork(1);
  a.Next();
  a.Next();
  Rng fork_after = a.Fork(1);
  Rng fork_before_copy = fork_before;
  // Forking depends only on the origin seed and stream id, not on how much
  // of the parent stream was consumed.
  EXPECT_EQ(fork_before_copy.Next(), fork_after.Next());
  EXPECT_NE(a.Fork(1).Next(), a.Fork(2).Next());
}

TEST(ZipfSampler, HeadDominates) {
  ZipfSampler zipf(1000, 1.0);
  Rng rng(47);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 50'000; ++i) {
    ++counts[zipf.Sample(rng)];
  }
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[500]);
  double pmf_sum = 0.0;
  for (size_t r = 0; r < zipf.size(); ++r) {
    pmf_sum += zipf.Pmf(r);
  }
  EXPECT_NEAR(pmf_sum, 1.0, 1e-9);
}

TEST(Crc32, KnownVector) {
  // The canonical CRC-32 check value: CRC of "123456789" is 0xCBF43926.
  const std::string s = "123456789";
  EXPECT_EQ(Crc32({reinterpret_cast<const uint8_t*>(s.data()), s.size()}), 0xCBF43926u);
}

TEST(Crc32, EmptyInput) {
  EXPECT_EQ(Crc32({}), 0u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  std::vector<uint8_t> data(1000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 31);
  }
  uint32_t state = Crc32Init();
  state = Crc32Update(state, std::span<const uint8_t>(data).subspan(0, 100));
  state = Crc32Update(state, std::span<const uint8_t>(data).subspan(100));
  EXPECT_EQ(Crc32Final(state), Crc32(data));
}

TEST(ByteIo, RoundTripsPrimitives) {
  ByteWriter w;
  w.PutU8(0xAB);
  w.PutU16(0x1234);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutString("hello");
  const auto bytes = w.TakeBytes();
  ByteReader r(bytes);
  EXPECT_EQ(*r.ReadU8(), 0xAB);
  EXPECT_EQ(*r.ReadU16(), 0x1234);
  EXPECT_EQ(*r.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(*r.ReadU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(*r.ReadString(), "hello");
  EXPECT_TRUE(r.AtEnd());
}

class Uleb128RoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Uleb128RoundTrip, RoundTrips) {
  ByteWriter w;
  w.PutUleb128(GetParam());
  const auto bytes = w.TakeBytes();
  ByteReader r(bytes);
  EXPECT_EQ(*r.ReadUleb128(), GetParam());
  EXPECT_TRUE(r.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(EdgeValues, Uleb128RoundTrip,
                         ::testing::Values(0ull, 1ull, 127ull, 128ull, 129ull, 16'383ull,
                                           16'384ull, 0xFFFFFFFFull, 0xFFFFFFFFFFFFFFFFull));

TEST(ByteIo, UnderrunIsError) {
  const std::vector<uint8_t> bytes = {1, 2};
  ByteReader r(bytes);
  EXPECT_FALSE(r.ReadU32().ok());
  ByteReader r2(bytes);
  EXPECT_FALSE(r2.ReadBytes(3).ok());
}

TEST(ByteIo, TruncatedUlebIsError) {
  const std::vector<uint8_t> bytes = {0x80, 0x80};  // Continuation never ends.
  ByteReader r(bytes);
  EXPECT_FALSE(r.ReadUleb128().ok());
}

TEST(ByteIo, PatchU32Overwrites) {
  ByteWriter w;
  w.PutU32(0);
  w.PutU32(42);
  w.PatchU32(0, 0xCAFEBABE);
  ByteReader r(w.bytes());
  EXPECT_EQ(*r.ReadU32(), 0xCAFEBABEu);
  EXPECT_EQ(*r.ReadU32(), 42u);
}

TEST(ByteIo, SeekBoundsChecked) {
  const std::vector<uint8_t> bytes = {1, 2, 3};
  ByteReader r(bytes);
  EXPECT_TRUE(r.Seek(3).ok());
  EXPECT_FALSE(r.Seek(4).ok());
}

TEST(Result, ValueAndError) {
  Result<int> ok = 5;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 5);
  Result<int> bad = Err("nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), "nope");
}

TEST(Strings, FormatAndSplitJoin) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(Split("a,b,,c", ','), (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Join({"a", "b"}, "::"), "a::b");
  EXPECT_TRUE(StartsWith("android.permission.SEND_SMS", "android."));
  EXPECT_TRUE(EndsWith("android.permission.SEND_SMS", "SEND_SMS"));
  EXPECT_FALSE(EndsWith("x", "xyz"));
  EXPECT_EQ(FormatPercent(0.986), "98.6%");
  EXPECT_EQ(FormatCount(42'300'000.0), "42.3M");
  EXPECT_EQ(FormatCount(1'500.0), "1.5K");
}

TEST(Table, RendersAlignedAndCsv) {
  Table t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "22,2"});
  std::ostringstream text, csv;
  t.Print(text);
  t.PrintCsv(csv);
  EXPECT_NE(text.str().find("| alpha"), std::string::npos);
  EXPECT_NE(csv.str().find("\"22,2\""), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(0, hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, SubmitAndWait) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, TrySubmitRejectsAboveMaxPending) {
  ThreadPool pool(1);
  std::atomic<bool> release{false};
  // Occupy the single worker so further tasks stay pending.
  ASSERT_TRUE(pool.TrySubmit(
      [&] {
        while (!release.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      },
      /*max_pending=*/4));
  int accepted = 0;
  while (pool.TrySubmit([] {}, /*max_pending=*/4)) {
    ++accepted;
    ASSERT_LT(accepted, 100);  // Must hit the cap, not loop forever.
  }
  EXPECT_EQ(accepted, 3);  // Blocker + 3 queued == max_pending of 4.
  release.store(true);
  pool.Wait();
  // Capacity freed up again after the drain.
  EXPECT_TRUE(pool.TrySubmit([] {}, /*max_pending=*/4));
  pool.Wait();
}

TEST(Sha1, KnownVectors) {
  const auto hex = [](const char* s) {
    return Sha1Hex(std::span<const uint8_t>(
        reinterpret_cast<const uint8_t*>(s), std::char_traits<char>::length(s)));
  };
  EXPECT_EQ(hex(""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(hex("abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
  // 1000 'a's: exercises multi-block input and the two-block length tail.
  const std::string a1000(1000, 'a');
  EXPECT_EQ(hex(a1000.c_str()), "291e9a6c66994949b57ba5e650361e98fc36b1ba");
}

TEST(Sha1, DistinctInputsDistinctDigests) {
  std::vector<uint8_t> a = {1, 2, 3, 4};
  std::vector<uint8_t> b = {1, 2, 3, 5};
  EXPECT_NE(Sha1Hex(a), Sha1Hex(b));
  EXPECT_EQ(Sha1Hex(a).size(), 2 * kSha1DigestSize);
}

// --- Kernel cross-checks: the sliced CRC-32 and the block-run SHA-1 against
// plain byte-at-a-time references kept here, so a kernel bug cannot hide
// behind a matching bug in a shared helper.

uint32_t ReferenceCrc32(std::span<const uint8_t> data) {
  uint32_t crc = 0xFFFFFFFFu;
  for (uint8_t byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

std::string ReferenceSha1Hex(std::span<const uint8_t> data) {
  std::vector<uint8_t> msg(data.begin(), data.end());
  msg.push_back(0x80);
  while (msg.size() % 64 != 56) {
    msg.push_back(0);
  }
  const uint64_t bits = static_cast<uint64_t>(data.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    msg.push_back(static_cast<uint8_t>(bits >> (8 * i)));
  }
  uint32_t h[5] = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};
  const auto rotl = [](uint32_t v, int n) { return (v << n) | (v >> (32 - n)); };
  for (size_t off = 0; off < msg.size(); off += 64) {
    uint32_t w[80];
    for (int t = 0; t < 16; ++t) {
      w[t] = 0;
      for (int k = 0; k < 4; ++k) {
        w[t] = (w[t] << 8) | msg[off + static_cast<size_t>(4 * t + k)];
      }
    }
    for (int t = 16; t < 80; ++t) {
      w[t] = rotl(w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16], 1);
    }
    uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
    for (int t = 0; t < 80; ++t) {
      const uint32_t f = t < 20   ? (b & c) | (~b & d)
                         : t < 40 ? b ^ c ^ d
                         : t < 60 ? (b & c) | (b & d) | (c & d)
                                  : b ^ c ^ d;
      const uint32_t k = t < 20   ? 0x5A827999u
                         : t < 40 ? 0x6ED9EBA1u
                         : t < 60 ? 0x8F1BBCDCu
                                  : 0xCA62C1D6u;
      const uint32_t next = rotl(a, 5) + f + e + k + w[t];
      e = d;
      d = c;
      c = rotl(b, 30);
      b = a;
      a = next;
    }
    h[0] += a;
    h[1] += b;
    h[2] += c;
    h[3] += d;
    h[4] += e;
  }
  std::array<uint8_t, kSha1DigestSize> digest;
  for (int i = 0; i < 5; ++i) {
    for (int k = 0; k < 4; ++k) {
      digest[static_cast<size_t>(4 * i + k)] = static_cast<uint8_t>(h[i] >> (24 - 8 * k));
    }
  }
  return Sha1DigestHex(digest);
}

std::vector<uint8_t> PatternBytes(size_t n, uint64_t seed) {
  std::vector<uint8_t> out(n);
  Rng rng(seed);
  for (auto& byte : out) {
    byte = static_cast<uint8_t>(rng.Next());
  }
  return out;
}

// Every length 0..1024 at every start offset 0..7: covers each CRC tail
// length against each load alignment, and each SHA-1 block/partial split.
TEST(ByteKernels, MatchReferenceAtEveryLengthAndAlignment) {
  const std::vector<uint8_t> bytes = PatternBytes(1024 + 8, 5);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 1024; ++len) {
      const auto view = std::span<const uint8_t>(bytes).subspan(offset, len);
      ASSERT_EQ(Crc32(view), ReferenceCrc32(view)) << "len " << len << " offset " << offset;
      ASSERT_EQ(Sha1Hex(view), ReferenceSha1Hex(view))
          << "len " << len << " offset " << offset;
    }
  }
}

TEST(ByteKernels, StreamingSplitAtEveryBoundaryMatchesOneShot) {
  const std::vector<uint8_t> bytes = PatternBytes(200, 6);
  const std::span<const uint8_t> all(bytes);
  const uint32_t crc = Crc32(all);
  const std::string sha = Sha1Hex(all);
  for (size_t i = 0; i <= all.size(); ++i) {
    for (size_t j = i; j <= all.size(); ++j) {
      uint32_t state = Crc32Init();
      Sha1Hasher hasher;
      for (auto part : {all.first(i), all.subspan(i, j - i), all.subspan(j)}) {
        state = Crc32Update(state, part);
        hasher.Update(part);
      }
      ASSERT_EQ(Crc32Final(state), crc) << "split " << i << "/" << j;
      ASSERT_EQ(hasher.FinalHex(), sha) << "split " << i << "/" << j;
    }
  }
}

TEST(ByteKernels, StreamingLargeInputInChunksMatchesOneShot) {
  const std::vector<uint8_t> bytes = PatternBytes(1 << 20, 7);
  const std::span<const uint8_t> all(bytes);
  const std::string reference = ReferenceSha1Hex(all);
  ASSERT_EQ(Sha1Hex(all), reference);
  ASSERT_EQ(Crc32(all), ReferenceCrc32(all));
  // 64 KB chunks keep block alignment; 64 KB + 1 shifts every chunk start
  // so each Update carries a buffered partial block into the bulk kernel.
  for (size_t chunk : {size_t{64} << 10, (size_t{64} << 10) + 1}) {
    uint32_t state = Crc32Init();
    Sha1Hasher hasher;
    for (size_t off = 0; off < all.size(); off += chunk) {
      const auto part = all.subspan(off, std::min(chunk, all.size() - off));
      state = Crc32Update(state, part);
      hasher.Update(part);
    }
    EXPECT_EQ(Crc32Final(state), ReferenceCrc32(all)) << "chunk " << chunk;
    EXPECT_EQ(hasher.FinalHex(), reference) << "chunk " << chunk;
  }
}

TEST(ByteKernels, AcceleratedSha1CompressMatchesPortable) {
  const detail::Sha1CompressFn accelerated = detail::Sha1CompressAccelerated();
  if (accelerated == nullptr) {
    GTEST_SKIP() << "no SHA extensions on this CPU; Sha1Hasher uses the portable kernel";
  }
  const std::vector<uint8_t> bytes = PatternBytes(64 * 64 + 3, 8);
  Rng rng(9);
  for (size_t blocks = 1; blocks <= 64; ++blocks) {
    for (size_t offset : {size_t{0}, size_t{3}}) {
      uint32_t fast[5];
      uint32_t slow[5];
      for (int i = 0; i < 5; ++i) {
        fast[i] = slow[i] = static_cast<uint32_t>(rng.Next());
      }
      accelerated(fast, bytes.data() + offset, blocks);
      detail::Sha1CompressPortable(slow, bytes.data() + offset, blocks);
      for (int i = 0; i < 5; ++i) {
        ASSERT_EQ(fast[i], slow[i]) << blocks << " blocks, offset " << offset;
      }
    }
  }
}

TEST(BoundedQueue, TryPushRejectsWhenFull) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_FALSE(queue.TryPush(3));  // Backpressure: reject, don't grow.
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.capacity(), 2u);
}

// Priority ordering moved up into serve::SubmissionShards' per-class lanes
// (weighted-fair pop); the queue itself is strict FIFO.
TEST(BoundedQueue, PopsInStrictFifoOrder) {
  BoundedQueue<int> queue(4);
  ASSERT_TRUE(queue.TryPush(1));
  ASSERT_TRUE(queue.TryPush(2));
  ASSERT_TRUE(queue.TryPush(99));
  EXPECT_EQ(queue.TryPop(), 1);
  EXPECT_EQ(queue.TryPop(), 2);
  EXPECT_EQ(queue.TryPop(), 99);
  EXPECT_EQ(queue.TryPop(), std::nullopt);
}

TEST(BoundedQueue, CloseDrainsRemainingThenReturnsNullopt) {
  BoundedQueue<int> queue(4);
  ASSERT_TRUE(queue.TryPush(7));
  ASSERT_TRUE(queue.TryPush(8));
  queue.Close();
  EXPECT_TRUE(queue.closed());
  EXPECT_FALSE(queue.TryPush(9));  // No new work after close.
  EXPECT_EQ(queue.Pop(), 7);       // Existing work still drains.
  EXPECT_EQ(queue.Pop(), 8);
  EXPECT_EQ(queue.Pop(), std::nullopt);
  EXPECT_EQ(queue.PopFor(std::chrono::milliseconds(1)), std::nullopt);
}

TEST(BoundedQueue, PopForTimesOutOnEmptyQueue) {
  BoundedQueue<int> queue(2);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(queue.PopFor(std::chrono::milliseconds(10)), std::nullopt);
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(5));
}

TEST(BoundedQueue, MpmcStressAccountsForEveryItem) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 500;
  BoundedQueue<int> queue(16);
  std::atomic<long> sum{0};
  std::atomic<int> popped{0};

  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (auto item = queue.Pop()) {
        sum.fetch_add(*item);
        popped.fetch_add(1);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        queue.Push(p * kPerProducer + i);  // Blocking push: never drops.
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  queue.Close();
  for (auto& t : consumers) {
    t.join();
  }
  constexpr long kTotal = kProducers * kPerProducer;
  EXPECT_EQ(popped.load(), kTotal);
  EXPECT_EQ(sum.load(), kTotal * (kTotal - 1) / 2);
}

}  // namespace
}  // namespace apichecker::util
