// Unit tests for src/apk: the ZIP container codec (zero-copy entry views and
// hostile archives), manifest and dex codecs, APK assembly/parsing, and
// tamper detection, and both signature digest versions.

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "apk/apk.h"
#include "apk/dex.h"
#include "apk/manifest.h"
#include "apk/zip.h"
#include "util/rng.h"

namespace apichecker::apk {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

TEST(Zip, RoundTripsEntries) {
  ZipWriter writer;
  writer.AddEntry("a.txt", Bytes("hello"));
  writer.AddEntry("dir/b.bin", Bytes(std::string(1000, 'x')));
  writer.AddEntry("empty", {});
  const auto archive = writer.Finish();

  auto reader = ZipReader::Parse(archive);
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(reader->entries().size(), 3u);
  ASSERT_TRUE(reader->Find("a.txt").has_value());
  EXPECT_TRUE(std::ranges::equal(*reader->Find("a.txt"), Bytes("hello")));
  EXPECT_EQ(reader->Find("dir/b.bin")->size(), 1000u);
  ASSERT_TRUE(reader->Find("empty").has_value());  // Present, and empty.
  EXPECT_TRUE(reader->Find("empty")->empty());
  EXPECT_FALSE(reader->Find("missing").has_value());
}

class ZipManyEntries : public ::testing::TestWithParam<size_t> {};

TEST_P(ZipManyEntries, RoundTripsNEntries) {
  ZipWriter writer;
  for (size_t i = 0; i < GetParam(); ++i) {
    writer.AddEntry("entry" + std::to_string(i), Bytes(std::string(i % 50, 'a' + i % 26)));
  }
  const auto archive = writer.Finish();
  auto reader = ZipReader::Parse(archive);
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(reader->entries().size(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sizes, ZipManyEntries, ::testing::Values(1, 2, 17, 100));

TEST(Zip, DetectsCrcCorruption) {
  ZipWriter writer;
  writer.AddEntry("a", Bytes("payload-payload"));
  auto archive = writer.Finish();
  // Flip one payload byte (local header is 30 bytes + 1 name byte).
  archive[35] ^= 0xFF;
  const auto reader = ZipReader::Parse(archive);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("CRC"), std::string::npos);
}

TEST(Zip, RejectsTruncatedAndGarbage) {
  EXPECT_FALSE(ZipReader::Parse({}).ok());
  const auto garbage = Bytes(std::string(64, 'z'));
  EXPECT_FALSE(ZipReader::Parse(garbage).ok());
  ZipWriter writer;
  writer.AddEntry("a", Bytes("x"));
  auto archive = writer.Finish();
  archive.resize(archive.size() - 4);  // Chop the EOCD tail.
  EXPECT_FALSE(ZipReader::Parse(archive).ok());
}

// --- Zero-copy reader: entries are views into the caller's bytes, and the
// CRC check still covers every byte of every entry.

// Byte offset of `view` inside `whole`, or SIZE_MAX when it is not inside.
size_t OffsetWithin(std::span<const uint8_t> whole, std::span<const uint8_t> view) {
  const auto base = reinterpret_cast<uintptr_t>(whole.data());
  const auto start = reinterpret_cast<uintptr_t>(view.data());
  if (start < base || start + view.size() > base + whole.size()) {
    return SIZE_MAX;
  }
  return static_cast<size_t>(start - base);
}

TEST(ZipZeroCopy, EntrySpansLieInsideTheInput) {
  ZipWriter writer;
  writer.AddEntry("a.txt", Bytes("hello"));
  writer.AddEntry("dir/b.bin", Bytes(std::string(1000, 'x')));
  writer.AddEntry("empty", {});
  writer.AddEntry("odd", Bytes("zzz"));
  const auto archive = writer.Finish();
  auto reader = ZipReader::Parse(archive);
  ASSERT_TRUE(reader.ok()) << reader.error();
  for (const ZipEntry& entry : reader->entries()) {
    EXPECT_NE(OffsetWithin(archive, entry.data), SIZE_MAX) << entry.name;
  }
  EXPECT_TRUE(std::ranges::equal(*reader->Find("odd"), Bytes("zzz")));
}

// A 1003-byte entry: 125 eight-byte strides of the sliced CRC plus a 3-byte
// tail. A flip in either part must be caught.
TEST(ZipZeroCopy, CrcFlipCaughtInStrideBodyAndTail) {
  ZipWriter writer;
  std::vector<uint8_t> payload(1003);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 7 + 1);
  }
  writer.AddEntry("body", payload);
  const auto archive = writer.Finish();
  auto pristine = ZipReader::Parse(archive);
  ASSERT_TRUE(pristine.ok()) << pristine.error();
  const size_t data_offset = OffsetWithin(archive, *pristine->Find("body"));
  ASSERT_NE(data_offset, SIZE_MAX);

  for (size_t at : {size_t{0}, size_t{500}, size_t{999}, size_t{1000}, size_t{1002}}) {
    auto flipped = archive;
    flipped[data_offset + at] ^= 0x01;
    const auto reader = ZipReader::Parse(flipped);
    ASSERT_FALSE(reader.ok()) << "flip at payload byte " << at;
    EXPECT_NE(reader.error().find("CRC mismatch"), std::string::npos);
  }
}

TEST(ZipZeroCopy, EntryDataAtOddOffsetParses) {
  // A 3-character name puts the data at 30 + 3 = 33: an odd, unaligned
  // start for the 8-byte CRC loads.
  ZipWriter writer;
  std::vector<uint8_t> payload(257);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(255 - i);
  }
  writer.AddEntry("abc", payload);
  const auto archive = writer.Finish();
  auto reader = ZipReader::Parse(archive);
  ASSERT_TRUE(reader.ok()) << reader.error();
  const auto data = reader->Find("abc");
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(OffsetWithin(archive, *data), 33u);
  EXPECT_TRUE(std::ranges::equal(*data, payload));
}

// --- Hostile-input suite: attacker-shaped archives must come back as Result
// errors, never crashes or out-of-range reads (ci.sh runs these under ASan).

// Overwrites the little-endian u32 at `offset`.
void PutU32At(std::vector<uint8_t>& bytes, size_t offset, uint32_t value) {
  ASSERT_LE(offset + 4, bytes.size());
  bytes[offset] = static_cast<uint8_t>(value & 0xFF);
  bytes[offset + 1] = static_cast<uint8_t>((value >> 8) & 0xFF);
  bytes[offset + 2] = static_cast<uint8_t>((value >> 16) & 0xFF);
  bytes[offset + 3] = static_cast<uint8_t>((value >> 24) & 0xFF);
}

// One-entry archive plus the offsets an attacker would aim at. The EOCD is the
// last 22 bytes (no comment); its central_size/central_offset u32s sit at
// EOCD+12 and EOCD+16. The entry's central record starts at central_offset;
// its uncompressed-size field is 24 bytes in.
struct HostileArchive {
  std::vector<uint8_t> bytes;
  size_t eocd;
  size_t central;

  static HostileArchive Make() {
    ZipWriter writer;
    writer.AddEntry("a.txt", Bytes("attack surface payload"));
    HostileArchive archive;
    archive.bytes = writer.Finish();
    archive.eocd = archive.bytes.size() - 22;
    archive.central = archive.eocd - 46 - 5;  // One record + "a.txt".
    return archive;
  }
};

TEST(ZipHostile, ZeroEntryArchiveRejected) {
  ZipWriter writer;
  const auto archive = writer.Finish();  // Structurally valid, zero entries.
  const auto reader = ZipReader::Parse(archive);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("zero-entry"), std::string::npos);
}

TEST(ZipHostile, TruncatedCentralDirectoryRejected) {
  // Shrinking the advertised central size truncates the record mid-field.
  HostileArchive archive = HostileArchive::Make();
  PutU32At(archive.bytes, archive.eocd + 12, 10);
  EXPECT_FALSE(ZipReader::Parse(archive.bytes).ok());

  // Growing it past the archive end must be caught by the bounds check.
  HostileArchive oversized = HostileArchive::Make();
  PutU32At(oversized.bytes, oversized.eocd + 12, 1u << 20);
  const auto reader = ZipReader::Parse(oversized.bytes);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("out of bounds"), std::string::npos);
}

TEST(ZipHostile, Eocd32BitWrapDoesNotBypassBoundsCheck) {
  // offset + size wraps past 2^32 to a small number: with 32-bit arithmetic
  // the bounds check would pass and the subspan would read out of range.
  HostileArchive archive = HostileArchive::Make();
  PutU32At(archive.bytes, archive.eocd + 16, 0xFFFFFFF0u);  // central_offset
  PutU32At(archive.bytes, archive.eocd + 12, 0x20u);        // central_size
  const auto reader = ZipReader::Parse(archive.bytes);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("out of bounds"), std::string::npos);
}

TEST(ZipHostile, TornLocalHeaderRejected) {
  // Corrupt the local header signature the central record points at.
  HostileArchive torn = HostileArchive::Make();
  torn.bytes[0] ^= 0xFF;
  auto reader = ZipReader::Parse(torn.bytes);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("local header"), std::string::npos);

  // Point the central record's local-header offset past the archive.
  HostileArchive wild = HostileArchive::Make();
  PutU32At(wild.bytes, wild.central + 42, 1u << 24);
  reader = ZipReader::Parse(wild.bytes);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("offset out of bounds"), std::string::npos);
}

TEST(ZipHostile, EntrySizeOverrunRejected) {
  // Inflate the uncompressed size so extraction would run past the payload
  // into the central directory and beyond.
  HostileArchive archive = HostileArchive::Make();
  PutU32At(archive.bytes, archive.central + 24, 1u << 16);
  const auto reader = ZipReader::Parse(archive.bytes);
  ASSERT_FALSE(reader.ok());
  // Either the data read or the CRC cross-check trips — both are clean errors.
}

TEST(ZipHostile, CrcMismatchNamesTheEntry) {
  HostileArchive archive = HostileArchive::Make();
  // Flip one payload byte (30-byte local header + 5-byte name).
  archive.bytes[35] ^= 0xFF;
  const auto reader = ZipReader::Parse(archive.bytes);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("CRC mismatch"), std::string::npos);
  EXPECT_NE(reader.error().find("a.txt"), std::string::npos);
}

TEST(Manifest, RoundTrips) {
  Manifest m;
  m.package_name = "com.example.app";
  m.version_code = 42;
  m.min_sdk = 21;
  m.target_sdk = 27;
  m.permissions = {"android.permission.SEND_SMS", "android.permission.INTERNET"};
  m.activities = {"com.example.app.ui.Activity0", "com.example.app.ui.Activity1"};
  m.intent_filters = {"android.provider.Telephony.SMS_RECEIVED"};
  const auto bytes = EncodeManifest(m);
  auto parsed = ParseManifest(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(*parsed, m);
}

TEST(Manifest, EmptyListsRoundTrip) {
  Manifest m;
  m.package_name = "a";
  auto parsed = ParseManifest(EncodeManifest(m));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->permissions.empty());
  EXPECT_TRUE(parsed->activities.empty());
}

TEST(Manifest, RejectsBadMagicAndTruncation) {
  EXPECT_FALSE(ParseManifest(Bytes("not a manifest")).ok());
  Manifest m;
  m.package_name = "com.x";
  m.permissions = {"p1", "p2"};
  auto bytes = EncodeManifest(m);
  bytes.resize(bytes.size() - 1);
  EXPECT_FALSE(ParseManifest(bytes).ok());
}

DexFile MakeDex() {
  DexFile dex;
  dex.behavior_seed = 0xfeed;
  dex.crash_prob_q8 = 12;
  dex.runtime_flags = DexFile::kFlagDetectsEmulator | DexFile::kFlagNativeCode;
  const uint32_t s_api = dex.InternString("android.telephony.SmsManager.sendTextMessage");
  const uint32_t s_cls = dex.InternString("com.x.ui.Activity0");
  const uint32_t s_intent = dex.InternString("android.intent.action.SENDTO");
  dex.method_name_idx.push_back(s_api);
  dex.activity_class_idx.push_back(s_cls);
  DexBehavior b;
  b.method_idx = 0;
  b.invocations_per_kevent = 6.5f;
  b.activity = 0;
  b.flags = DexBehavior::kFlagGuarded;
  b.intent_string_idx = s_intent;
  dex.behaviors.push_back(b);
  DexBehavior b2;
  b2.method_idx = 0;
  b2.invocations_per_kevent = 1.0f;
  dex.behaviors.push_back(b2);
  return dex;
}

// Assembles an APK the way BuildApk does, but with a caller-chosen signature
// entry: a v1 APK from an older build, or a malformed one.
std::vector<uint8_t> BuildApkWithSignature(const Manifest& manifest, const DexFile& dex,
                                           bool include_native_lib,
                                           const std::string& signature) {
  const auto original = BuildApk(manifest, dex, include_native_lib);
  auto reader = ZipReader::Parse(original);  // Entry views borrow `original`.
  EXPECT_TRUE(reader.ok());
  ZipWriter writer;
  for (const ZipEntry& entry : reader->entries()) {
    if (entry.name == kSignatureEntry) {
      writer.AddEntry(entry.name, Bytes(signature));
    } else {
      writer.AddEntry(entry.name, entry.data);
    }
  }
  return writer.Finish();
}

// 1000 bytes covering every value 0..255: the digests' shared pin input.
std::vector<uint8_t> DigestPattern() {
  std::vector<uint8_t> pattern(1000);
  for (size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  return pattern;
}

TEST(Dex, RoundTrips) {
  const DexFile dex = MakeDex();
  auto parsed = ParseDex(EncodeDex(dex));
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed->strings, dex.strings);
  EXPECT_EQ(parsed->method_name_idx, dex.method_name_idx);
  EXPECT_EQ(parsed->activity_class_idx, dex.activity_class_idx);
  ASSERT_EQ(parsed->behaviors.size(), 2u);
  EXPECT_EQ(parsed->behaviors[0].intent_string_idx, dex.behaviors[0].intent_string_idx);
  EXPECT_TRUE(parsed->behaviors[0].guarded());
  EXPECT_FALSE(parsed->behaviors[0].sensor_gated());
  EXPECT_EQ(parsed->behaviors[1].intent_string_idx, DexFile::kNoIntent);
  EXPECT_FLOAT_EQ(parsed->behaviors[0].invocations_per_kevent, 6.5f);
  EXPECT_TRUE(parsed->detects_emulator());
  EXPECT_TRUE(parsed->has_native_code());
  EXPECT_FALSE(parsed->needs_real_sensors());
  EXPECT_NEAR(parsed->crash_probability(), 12.0 / 255.0, 1e-9);
  EXPECT_EQ(parsed->MethodName(0), "android.telephony.SmsManager.sendTextMessage");
}

TEST(Dex, InternStringDeduplicates) {
  DexFile dex;
  const uint32_t a = dex.InternString("x");
  const uint32_t b = dex.InternString("y");
  const uint32_t c = dex.InternString("x");
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
  EXPECT_EQ(dex.strings.size(), 2u);
}

TEST(Dex, RejectsOutOfRangeIndices) {
  DexFile dex = MakeDex();
  dex.method_name_idx.push_back(99);  // Points past the string pool.
  EXPECT_FALSE(ParseDex(EncodeDex(dex)).ok());

  DexFile dex2 = MakeDex();
  dex2.behaviors[0].method_idx = 5;  // Points past the method table.
  EXPECT_FALSE(ParseDex(EncodeDex(dex2)).ok());

  DexFile dex3 = MakeDex();
  dex3.behaviors[0].intent_string_idx = 1000;  // Unknown intent string.
  EXPECT_FALSE(ParseDex(EncodeDex(dex3)).ok());
}

TEST(Dex, RejectsBadMagic) {
  EXPECT_FALSE(ParseDex(Bytes("DEXBAD")).ok());
}

TEST(Apk, RoundTripsWithNativeLib) {
  Manifest m;
  m.package_name = "com.x";
  m.version_code = 3;
  m.permissions = {"android.permission.INTERNET"};
  const DexFile dex = MakeDex();

  const auto bytes = BuildApk(m, dex, /*include_native_lib=*/true);
  auto apk = ParseApk(bytes);
  ASSERT_TRUE(apk.ok()) << apk.error();
  EXPECT_EQ(apk->manifest, m);
  EXPECT_EQ(apk->dex.strings, dex.strings);
  EXPECT_TRUE(apk->has_native_lib);
  EXPECT_EQ(apk->digest.size(), 32u);
}

TEST(Apk, OmitsNativeLibWhenNotRequested) {
  Manifest m;
  m.package_name = "com.x";
  auto apk = ParseApk(BuildApk(m, MakeDex(), false));
  ASSERT_TRUE(apk.ok());
  EXPECT_FALSE(apk->has_native_lib);
}

TEST(Apk, DigestChangesWithContent) {
  Manifest m;
  m.package_name = "com.x";
  m.version_code = 1;
  const DexFile dex = MakeDex();
  auto apk1 = ParseApk(BuildApk(m, dex, false));
  m.version_code = 2;  // Same code, bumped version: different APK identity.
  auto apk2 = ParseApk(BuildApk(m, dex, false));
  ASSERT_TRUE(apk1.ok());
  ASSERT_TRUE(apk2.ok());
  EXPECT_NE(apk1->digest, apk2->digest);
}

TEST(Apk, DetectsTamperedDex) {
  Manifest m;
  m.package_name = "com.x";
  auto bytes = BuildApk(m, MakeDex(), false);
  // Re-assemble the archive with a modified dex but the old signature entry.
  auto reader = ZipReader::Parse(bytes);
  ASSERT_TRUE(reader.ok());
  DexFile tampered = MakeDex();
  tampered.crash_prob_q8 = 200;
  ZipWriter writer;
  for (const ZipEntry& entry : reader->entries()) {
    if (entry.name == kDexEntry) {
      writer.AddEntry(entry.name, EncodeDex(tampered));
    } else {
      writer.AddEntry(entry.name, entry.data);
    }
  }
  const auto result = ParseApk(writer.Finish());
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().find("digest"), std::string::npos);
}

TEST(Apk, PadApkGrowsToTargetAndStillParses) {
  Manifest m;
  m.package_name = "com.x";
  const auto original = BuildApk(m, MakeDex(), /*include_native_lib=*/false);
  ASSERT_LT(original.size(), 64u * 1024);

  auto padded = PadApk(original, 64 * 1024, /*seed=*/9);
  ASSERT_TRUE(padded.ok()) << padded.error();
  EXPECT_GE(padded->size(), 63u * 1024);  // Within the entry-overhead slack.
  EXPECT_LE(padded->size(), 65u * 1024);

  // The signature digest covers only manifest+dex, so padding never breaks
  // parsing — and the parsed identity digest is unchanged.
  auto before = ParseApk(original);
  auto after = ParseApk(*padded);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok()) << after.error();
  EXPECT_EQ(before->digest, after->digest);
  EXPECT_EQ(after->manifest, m);

  // Deterministic: same seed, same bytes; the filler entry is present.
  auto again = PadApk(original, 64 * 1024, /*seed=*/9);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*padded, *again);
  auto zip = ZipReader::Parse(*padded);
  ASSERT_TRUE(zip.ok());
  EXPECT_TRUE(zip->Find("assets/padding.bin").has_value());
}

TEST(Apk, PadApkIsANoOpAtOrAboveTarget) {
  Manifest m;
  m.package_name = "com.x";
  const auto original = BuildApk(m, MakeDex(), false);
  auto padded = PadApk(original, original.size() / 2, 1);
  ASSERT_TRUE(padded.ok());
  EXPECT_EQ(*padded, original);  // Already large enough: bytes unchanged.
  EXPECT_FALSE(PadApk(Bytes("not a zip"), 4096, 1).ok());
}

TEST(Apk, MissingEntriesRejected) {
  ZipWriter writer;
  writer.AddEntry("random.txt", Bytes("x"));
  EXPECT_FALSE(ParseApk(writer.Finish()).ok());
}

// Property test: random single-byte corruptions of a valid APK must never
// crash the parser — every mutation either still parses (rare; e.g. a flip
// in the unused date fields) or returns a structured error.
class ApkMutationRobustness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ApkMutationRobustness, ParserNeverCrashes) {
  Manifest m;
  m.package_name = "com.fuzz.target";
  m.permissions = {"android.permission.INTERNET", "android.permission.SEND_SMS"};
  m.activities = {"com.fuzz.target.ui.Activity0"};
  const auto pristine = BuildApk(m, MakeDex(), true);

  util::Rng rng(GetParam());
  for (int trial = 0; trial < 300; ++trial) {
    auto mutated = pristine;
    const size_t flips = 1 + rng.NextBounded(4);
    for (size_t f = 0; f < flips; ++f) {
      mutated[rng.NextBounded(mutated.size())] ^=
          static_cast<uint8_t>(1u << rng.NextBounded(8));
    }
    const auto result = ParseApk(mutated);  // Must not crash or hang.
    if (result.ok()) {
      EXPECT_FALSE(result->manifest.package_name.empty());
    } else {
      EXPECT_FALSE(result.error().empty());
    }
  }
  // Truncations at every prefix length are equally survivable.
  for (size_t len = 0; len < pristine.size(); len += 97) {
    const std::vector<uint8_t> prefix(pristine.begin(),
                                      pristine.begin() + static_cast<ptrdiff_t>(len));
    (void)ParseApk(prefix);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApkMutationRobustness, ::testing::Values(1, 2, 3, 4, 5));

// ContentDigest is stored in every APK's signature entry, so its value is
// part of the format: these pins catch any change to the fold.
TEST(Apk, ContentDigestGoldenValues) {
  EXPECT_EQ(ContentDigest(Bytes("abc")), "a9a0e1e4b5b0544822e0d71c3537c3c2");
  std::vector<uint8_t> pattern(1000);
  for (size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  EXPECT_EQ(ContentDigest(pattern), "a7029fe3f95525c5e2f2fb15a67df9f6");
  EXPECT_EQ(ContentDigest(std::span<const uint8_t>()), "6a09e667f3bcc908bb67ae8584caa73b");

  const std::span<const uint8_t> all(pattern);
  for (size_t split : {size_t{0}, size_t{1}, size_t{499}, size_t{1000}}) {
    EXPECT_EQ(ContentDigest({all.first(split), all.subspan(split)}), ContentDigest(all))
        << "split at " << split;
  }
}

TEST(Apk, ContentDigestIsStableAndSensitive) {
  const auto a = ContentDigest(Bytes("abc"));
  const auto b = ContentDigest(Bytes("abc"));
  const auto c = ContentDigest(Bytes("abd"));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.size(), 32u);
}

// ContentDigestV2 is the first 128 bits of SHA-1, so its pins are the
// published SHA-1 test vectors cut to 32 hex characters.
TEST(Apk, ContentDigestV2GoldenValues) {
  EXPECT_EQ(ContentDigestV2(Bytes("abc")), "a9993e364706816aba3e25717850c26c");
  EXPECT_EQ(ContentDigestV2(std::span<const uint8_t>()), "da39a3ee5e6b4b0d3255bfef95601890");
  const std::vector<uint8_t> pattern = DigestPattern();
  EXPECT_EQ(ContentDigestV2(pattern), "2c4169b2993df842a68ce33d5a112033");
}

TEST(Apk, ContentDigestV2OfEverySplitEqualsTheWhole) {
  const std::vector<uint8_t> pattern = DigestPattern();
  const std::span<const uint8_t> all(pattern);
  const std::string whole = ContentDigestV2(all);
  for (size_t split = 0; split <= all.size(); ++split) {
    ASSERT_EQ(ContentDigestV2({all.first(split), all.subspan(split)}), whole)
        << "split at " << split;
  }
}

TEST(Apk, BuildApkWritesAV2SignatureEntry) {
  Manifest m;
  m.package_name = "com.x";
  const DexFile dex = MakeDex();
  const auto bytes = BuildApk(m, dex, false);
  auto zip = ZipReader::Parse(bytes);
  ASSERT_TRUE(zip.ok());
  const auto entry = zip->Find(kSignatureEntry);
  ASSERT_TRUE(entry.has_value());
  const std::string digest = ContentDigestV2({EncodeManifest(m), EncodeDex(dex)});
  EXPECT_EQ(std::string(entry->begin(), entry->end()), "v2:" + digest);

  auto apk = ParseApk(bytes);
  ASSERT_TRUE(apk.ok()) << apk.error();
  EXPECT_EQ(apk->digest, digest);  // Without the prefix.
}

TEST(Apk, MixedVersionCorpusParses) {
  std::vector<std::vector<uint8_t>> corpus;
  for (uint32_t i = 0; i < 8; ++i) {
    Manifest m;
    m.package_name = "com.mixed.app" + std::to_string(i);
    m.version_code = i;
    DexFile dex = MakeDex();
    dex.behavior_seed = i;
    const bool native = i % 3 == 0;
    if (i % 2 == 0) {
      corpus.push_back(BuildApkWithSignature(
          m, dex, native, ContentDigest({EncodeManifest(m), EncodeDex(dex)})));
    } else {
      corpus.push_back(BuildApk(m, dex, native));
    }
  }
  for (size_t i = 0; i < corpus.size(); ++i) {
    auto apk = ParseApk(corpus[i]);
    ASSERT_TRUE(apk.ok()) << "apk " << i << ": " << apk.error();
    EXPECT_EQ(apk->manifest.package_name, "com.mixed.app" + std::to_string(i));
    EXPECT_EQ(apk->has_native_lib, i % 3 == 0);
    EXPECT_EQ(apk->digest.size(), kContentDigestHexChars);
  }
}

TEST(Apk, SignatureVersionConfusionRejected) {
  Manifest m;
  m.package_name = "com.x";
  const DexFile dex = MakeDex();
  const std::vector<uint8_t> manifest_bytes = EncodeManifest(m);
  const std::vector<uint8_t> dex_bytes = EncodeDex(dex);
  const std::string v1 = ContentDigest({manifest_bytes, dex_bytes});
  const std::string v2 = ContentDigestV2({manifest_bytes, dex_bytes});

  std::string upper_v2 = v2;
  std::ranges::transform(upper_v2, upper_v2.begin(),
                         [](char c) { return static_cast<char>(std::toupper(c)); });
  std::string upper_v1 = v1;
  std::ranges::transform(upper_v1, upper_v1.begin(),
                         [](char c) { return static_cast<char>(std::toupper(c)); });
  std::string non_hex_v2 = v2;
  non_hex_v2[5] = 'g';
  std::string non_hex_v1 = v1;
  non_hex_v1[5] = 'z';

  const struct {
    const char* what;
    std::string entry;
  } cases[] = {
      {"v2 prefix on a v1 value", "v2:" + v1},
      {"v2 value without its prefix", v2},
      {"unknown version", "v3:" + v2},
      {"v2 with 31 hex", "v2:" + v2.substr(0, 31)},
      {"v2 with 33 hex", "v2:" + v2 + "0"},
      {"v1 with 31 hex", v1.substr(0, 31)},
      {"v1 with 33 hex", v1 + "0"},
      {"uppercase v2", "v2:" + upper_v2},
      {"uppercase v1", upper_v1},
      {"non-hex v2", "v2:" + non_hex_v2},
      {"non-hex v1", non_hex_v1},
      {"bare prefix", "v2:"},
      {"empty entry", ""},
  };
  for (const auto& c : cases) {
    const auto result = ParseApk(BuildApkWithSignature(m, dex, false, c.entry));
    ASSERT_FALSE(result.ok()) << c.what;
    EXPECT_NE(result.error().find("digest"), std::string::npos) << c.what << ": "
                                                                 << result.error();
  }
  // The two honest entries for the same content both parse to their digest.
  auto as_v1 = ParseApk(BuildApkWithSignature(m, dex, false, v1));
  auto as_v2 = ParseApk(BuildApkWithSignature(m, dex, false, "v2:" + v2));
  ASSERT_TRUE(as_v1.ok()) << as_v1.error();
  ASSERT_TRUE(as_v2.ok()) << as_v2.error();
  EXPECT_EQ(as_v1->digest, v1);
  EXPECT_EQ(as_v2->digest, v2);
}

}  // namespace
}  // namespace apichecker::apk
