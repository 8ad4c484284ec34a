// Property test for the dispatched CRC-32 (common/binio). The
// byte-at-a-time table walk of crc32_oracle.hpp is the oracle: the
// PCLMULQDQ folding kernel, the slicing-by-8 portable path and whatever
// crc32_update dispatches to must agree with it on every length, every
// alignment and every way of chaining a buffer into spans. Every
// persisted format's CRC values depend on this agreement.
#include <cstdint>
#include <vector>

#include "common/binio.hpp"
#include "common/rng.hpp"
#include "crc32_oracle.hpp"
#include "gtest/gtest.h"

namespace slm {
namespace {

using oracle::oracle_crc32_update;

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next());
  return v;
}

using Crc32Fn = std::uint32_t (*)(std::uint32_t, const std::uint8_t*,
                                  std::size_t);

struct Path {
  const char* name;
  Crc32Fn fn;
};

// Every path this CPU can run: the dispatched entry point, the portable
// slicing-by-8 walk and, where the CPU has carry-less multiply, the
// PCLMULQDQ kernel called directly.
std::vector<Path> paths() {
  std::vector<Path> p = {{"dispatched", &crc32_update},
                         {"portable", &crc32_update_portable}};
  if (crc32_has_pclmul()) p.push_back({"pclmul", &crc32_update_pclmul});
  return p;
}

TEST(Crc32Test, KnownAnswer) {
  const auto* s = reinterpret_cast<const std::uint8_t*>("123456789");
  EXPECT_EQ(crc32(s, 9), 0xcbf43926u);
  EXPECT_EQ(oracle_crc32_update(0, s, 9), 0xcbf43926u);
  for (const Path& p : paths()) {
    EXPECT_EQ(p.fn(0, s, 9), 0xcbf43926u) << p.name;
  }
}

TEST(Crc32Test, EveryLengthAndOffsetMatchesOracle) {
  // Lengths 0..1024 cover the table-only tail (< 64 bytes), the 4-lane
  // fold's first block and every residue mod 16 and mod 64; offsets
  // 0..15 cover every misalignment of the unaligned vector loads. The
  // buffer is allocated to the exact end of each span so an overread
  // would land outside it (and trip ASan).
  const auto bytes = random_bytes(1024 + 16, 0xc4c32);
  const auto all = paths();
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      const std::vector<std::uint8_t> exact(
          bytes.begin() + static_cast<long>(offset),
          bytes.begin() + static_cast<long>(offset + len));
      const std::uint32_t want = oracle_crc32_update(0, exact.data(), len);
      for (const Path& p : all) {
        ASSERT_EQ(p.fn(0, exact.data(), len), want)
            << p.name << " len=" << len << " offset=" << offset;
        // A non-zero incoming CRC exercises the register seeding.
        ASSERT_EQ(p.fn(0x5a5a1234u, exact.data(), len),
                  oracle_crc32_update(0x5a5a1234u, exact.data(), len))
            << p.name << " seeded, len=" << len << " offset=" << offset;
      }
    }
  }
}

TEST(Crc32Test, MultiMegabyteBufferMatchesOracle) {
  // 3 MiB + 37 bytes: ~49k 64-byte folds and a ragged tail.
  const auto bytes = random_bytes((std::size_t{3} << 20) + 37, 0xb16);
  const std::uint32_t want =
      oracle_crc32_update(0, bytes.data(), bytes.size());
  for (const Path& p : paths()) {
    EXPECT_EQ(p.fn(0, bytes.data(), bytes.size()), want) << p.name;
    EXPECT_EQ(p.fn(0, bytes.data() + 3, bytes.size() - 3),
              oracle_crc32_update(0, bytes.data() + 3, bytes.size() - 3))
        << p.name << " misaligned";
  }
}

TEST(Crc32Test, ChainedSpansEqualOneCallOverConcatenation) {
  const auto bytes = random_bytes(5000, 0x5ca1ab1e);
  const std::uint32_t whole =
      oracle_crc32_update(0, bytes.data(), bytes.size());
  // Cut points include empty spans (repeated cuts), spans shorter than
  // one 16-byte fold and spans that straddle the 64-byte block size.
  const std::vector<std::size_t> cuts = {0,   0,    1,    17,   17,   80,
                                         143, 1000, 1000, 1064, 4999, 5000};
  for (const Path& p : paths()) {
    std::uint32_t chained = 0;
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      chained = p.fn(chained, bytes.data() + cuts[i], cuts[i + 1] - cuts[i]);
    }
    EXPECT_EQ(chained, whole) << p.name;
    EXPECT_EQ(p.fn(whole, bytes.data(), 0), whole) << p.name << " empty";
  }
}

}  // namespace
}  // namespace slm
