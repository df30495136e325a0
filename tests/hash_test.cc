#include "common/hash.h"

#include <cstring>

#include <gtest/gtest.h>

namespace approxmem {
namespace {

// The published FNV-1a 64 test vectors.
TEST(HashTest, Fnv1a64MatchesPublishedVectors) {
  EXPECT_EQ(Fnv1a64("", 0), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a64("a", 1), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a64("foobar", 6), 0x85944171f73967e8ULL);
}

TEST(HashTest, Fnv1a64ContinuesFromSeed) {
  EXPECT_EQ(Fnv1a64("bar", 3, Fnv1a64("foo", 3)), Fnv1a64("foobar", 6));
}

TEST(HashTest, Fnv1a64WordHashesTheValueBytes) {
  const uint64_t value = 0x0102030405060708ULL;
  unsigned char bytes[sizeof(value)];
  std::memcpy(bytes, &value, sizeof(value));
  EXPECT_EQ(Fnv1a64Word(kFnv1a64Offset, value),
            Fnv1a64(bytes, sizeof(bytes)));
}

// The first output of SplitMix64 seeded with 0.
TEST(HashTest, Mix64MatchesSplitMix64) {
  EXPECT_EQ(Mix64(kSplitMix64Gamma), 0xe220a8397b1dcdafULL);
}

}  // namespace
}  // namespace approxmem
