#include "src/util/serialization.h"

#include <gtest/gtest.h>

#include "src/core/local_eval.h"
#include "src/util/random.h"

namespace pereach {
namespace {

TEST(SerializationTest, PrimitivesRoundTrip) {
  Encoder enc;
  enc.PutU8(0xAB);
  enc.PutU32(0xDEADBEEF);
  enc.PutU64(0x0123456789ABCDEFull);
  enc.PutDouble(3.14159);
  enc.PutString("hello");
  enc.PutString("");

  Decoder dec(enc.buffer());
  EXPECT_EQ(dec.GetU8(), 0xAB);
  EXPECT_EQ(dec.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(dec.GetU64(), 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(dec.GetDouble(), 3.14159);
  EXPECT_EQ(dec.GetString(), "hello");
  EXPECT_EQ(dec.GetString(), "");
  EXPECT_TRUE(dec.Done());
}

TEST(SerializationTest, VarintBoundaries) {
  const std::vector<uint64_t> values = {
      0,   1,    127,        128,         16383,      16384,
      ~0u, 1u << 31, uint64_t{1} << 32, uint64_t{1} << 63, ~uint64_t{0}};
  Encoder enc;
  for (uint64_t v : values) enc.PutVarint(v);
  Decoder dec(enc.buffer());
  for (uint64_t v : values) EXPECT_EQ(dec.GetVarint(), v);
  EXPECT_TRUE(dec.Done());
}

TEST(SerializationTest, VarintIsCompactForSmallValues) {
  Encoder enc;
  enc.PutVarint(5);
  EXPECT_EQ(enc.size(), 1u);
  enc.PutVarint(127);
  EXPECT_EQ(enc.size(), 2u);
  enc.PutVarint(128);
  EXPECT_EQ(enc.size(), 4u);  // two bytes for 128
}

TEST(SerializationTest, BitsetRoundTrip) {
  Bitset b(77);
  b.Set(0);
  b.Set(7);
  b.Set(8);
  b.Set(63);
  b.Set(64);
  b.Set(76);
  Encoder enc;
  enc.PutBitset(b);
  Decoder dec(enc.buffer());
  EXPECT_EQ(dec.GetBitset(), b);
  EXPECT_TRUE(dec.Done());
}

TEST(SerializationTest, BitsetWireSizeIsCeilBitsOver8) {
  // The paper's traffic bound counts |F_i.O| bits per equation; verify the
  // codec stays within one varint of that.
  Bitset b(1000);
  for (size_t i = 0; i < 1000; i += 2) b.Set(i);
  Encoder enc;
  enc.PutBitset(b);
  EXPECT_LE(enc.size(), 1000 / 8 + 3u);
}

TEST(SerializationTest, EmptyBitsetRoundTrip) {
  Bitset b(0);
  Encoder enc;
  enc.PutBitset(b);
  Decoder dec(enc.buffer());
  EXPECT_EQ(dec.GetBitset().size(), 0u);
  EXPECT_TRUE(dec.Done());
}

TEST(SerializationTest, RandomBitsetsRoundTrip) {
  Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t n = rng.Uniform(500);
    Bitset b(n);
    for (size_t i = 0; i < n; ++i) {
      if (rng.Bernoulli(0.3)) b.Set(i);
    }
    Encoder enc;
    enc.PutBitset(b);
    Decoder dec(enc.buffer());
    EXPECT_EQ(dec.GetBitset(), b);
  }
}

TEST(SerializationTest, MixedRandomStreamRoundTrips) {
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<uint64_t> varints;
    std::vector<std::string> strings;
    Encoder enc;
    for (int i = 0; i < 100; ++i) {
      const uint64_t v = rng.engine()();
      varints.push_back(v);
      enc.PutVarint(v);
      std::string s;
      const size_t len = rng.Uniform(20);
      for (size_t c = 0; c < len; ++c) {
        s.push_back(static_cast<char>('a' + rng.Uniform(26)));
      }
      strings.push_back(s);
      enc.PutString(s);
    }
    Decoder dec(enc.buffer());
    for (int i = 0; i < 100; ++i) {
      EXPECT_EQ(dec.GetVarint(), varints[i]);
      EXPECT_EQ(dec.GetString(), strings[i]);
    }
    EXPECT_TRUE(dec.Done());
  }
}

TEST(SerializationTest, TakeBufferMovesContent) {
  Encoder enc;
  enc.PutU32(42);
  std::vector<uint8_t> buf = enc.TakeBuffer();
  EXPECT_EQ(buf.size(), 4u);
  Decoder dec(buf);
  EXPECT_EQ(dec.GetU32(), 42u);
}

TEST(SerializationTest, FramesRoundTrip) {
  Encoder inner1, inner2;
  inner1.PutVarint(1234);
  inner2.PutString("frame two");
  Encoder enc;
  enc.PutFrame(inner1.buffer());
  enc.PutFrame(inner2.buffer());
  enc.PutFrame({});  // empty frame

  Decoder dec(enc.buffer());
  Decoder f1 = dec.GetFrame();
  EXPECT_EQ(f1.GetVarint(), 1234u);
  EXPECT_TRUE(f1.Done());
  Decoder f2 = dec.GetFrame();
  EXPECT_EQ(f2.GetString(), "frame two");
  EXPECT_TRUE(f2.Done());
  Decoder f3 = dec.GetFrame();
  EXPECT_TRUE(f3.Done());
  EXPECT_TRUE(dec.Done());
}

// Regression: a declared string length near SIZE_MAX used to overflow the
// `pos + n` bounds check and read out of range; the remaining()-relative
// check must abort cleanly instead.
TEST(SerializationDeathTest, HugeStringLengthAbortsWithoutOverflow) {
  Encoder enc;
  enc.PutVarint(~uint64_t{0});  // length that would wrap pos_ + n
  enc.PutU8(0);
  const std::vector<uint8_t> buf = enc.buffer();
  Decoder dec(buf);
  EXPECT_DEATH(dec.GetString(), "CHECK failed");
}

// Regression: a malformed bitset bit-count must abort before allocating,
// not attempt a multi-gigabyte Bitset.
TEST(SerializationDeathTest, HugeBitsetLengthAbortsBeforeAllocation) {
  Encoder enc;
  enc.PutVarint(uint64_t{1} << 60);
  const std::vector<uint8_t> buf = enc.buffer();
  Decoder dec(buf);
  EXPECT_DEATH(dec.GetBitset(), "CHECK failed");
}

// Regression: a bit count near UINT64_MAX used to wrap (num_bits + 7) / 8
// to zero bytes and slip past the bounds check, returning a corrupt bitset
// claiming 2^64-1 bits backed by no words.
TEST(SerializationDeathTest, OverflowingBitsetLengthAborts) {
  Encoder enc;
  enc.PutVarint(~uint64_t{0});
  const std::vector<uint8_t> buf = enc.buffer();
  Decoder dec(buf);
  EXPECT_DEATH(dec.GetBitset(), "CHECK failed");
}

// Regression: element counts are validated against the remaining payload
// before any container resize (a corrupted count used to surface as
// bad_alloc far from the decode site).
TEST(SerializationDeathTest, CountExceedingPayloadAborts) {
  Encoder enc;
  enc.PutVarint(1000);  // claims 1000 elements, provides 2 bytes
  enc.PutU8(1);
  enc.PutU8(2);
  const std::vector<uint8_t> buf = enc.buffer();
  Decoder dec(buf);
  EXPECT_DEATH((void)dec.GetCount(), "CHECK failed");
}

TEST(SerializationTest, CountWithinPayloadSucceeds) {
  Encoder enc;
  enc.PutVarint(3);
  enc.PutU8(1);
  enc.PutU8(2);
  enc.PutU8(3);
  Decoder dec(enc.buffer());
  EXPECT_EQ(dec.GetCount(), 3u);
  EXPECT_EQ(dec.remaining(), 3u);
}

TEST(SerializationDeathTest, TruncatedFrameAborts) {
  Encoder enc;
  enc.PutVarint(50);  // frame claims 50 bytes, provides 1
  enc.PutU8(9);
  const std::vector<uint8_t> buf = enc.buffer();
  Decoder dec(buf);
  EXPECT_DEATH((void)dec.GetFrame(), "CHECK failed");
}

// A frame decoder is confined to its slice: reads past the frame end abort
// even though the outer buffer continues.
TEST(SerializationDeathTest, FrameDecoderCannotReadPastFrameEnd) {
  Encoder inner;
  inner.PutU8(1);
  Encoder enc;
  enc.PutFrame(inner.buffer());
  enc.PutU32(0xDEADBEEF);  // outer bytes after the frame
  const std::vector<uint8_t> buf = enc.buffer();
  Decoder dec(buf);
  Decoder frame = dec.GetFrame();
  EXPECT_EQ(frame.GetU8(), 1u);
  EXPECT_DEATH((void)frame.GetU8(), "CHECK failed");
}

// Require is a semantic check with the read checks' error modes: sticky
// Corruption in kStatus mode (first message wins, the buffer is exhausted),
// abort in kAbort mode.
TEST(SerializationTest, RequireFailsAStatusDecoder) {
  Encoder enc;
  enc.PutVarint(7);
  enc.PutVarint(8);
  Decoder dec(enc.buffer(), Decoder::OnError::kStatus);
  EXPECT_TRUE(dec.Require(dec.GetVarint() == 7, "first"));
  EXPECT_FALSE(dec.Require(false, "index out of range"));
  EXPECT_FALSE(dec.Require(false, "second"));
  EXPECT_FALSE(dec.ok());
  EXPECT_EQ(dec.remaining(), 0u);
  EXPECT_EQ(dec.GetVarint(), 0u);
  EXPECT_NE(dec.status().ToString().find("index out of range"),
            std::string::npos);
}

TEST(SerializationDeathTest, RequireAbortsAnAbortDecoder) {
  Encoder enc;
  enc.PutU8(1);
  const std::vector<uint8_t> buf = enc.buffer();
  Decoder dec(buf);
  EXPECT_DEATH((void)dec.Require(false, "index out of range"),
               "index out of range");
}

// End-to-end: a reply payload whose equation count was corrupted to exceed
// the remaining bytes aborts in the decoder bounds checks instead of
// fabricating equations or resizing to a bogus size.
TEST(SerializationDeathTest, MalformedReplyPayloadFailsCleanly) {
  Encoder enc;
  enc.PutVarint(0);    // site
  enc.PutVarint(3);    // oset count
  for (int i = 0; i < 3; ++i) enc.PutVarint(10 + i);
  enc.PutVarint(0);    // no aliases
  enc.PutVarint(200);  // corrupt equation count, only 0 bytes follow
  const std::vector<uint8_t> payload = enc.buffer();
  Decoder dec(payload);
  EXPECT_DEATH(ReachPartialAnswer::Deserialize(&dec), "CHECK failed");
}

}  // namespace
}  // namespace pereach
