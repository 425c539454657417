#include "util/divisor.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace ppm {
namespace {

constexpr uint64_t kMax = ~uint64_t{0};

void expect_exact(const Divisor& div, uint64_t n) {
  const uint64_t d = div.divisor();
  const auto [q, r] = div.divmod(n);
  EXPECT_EQ(q, n / d) << "n=" << n << " d=" << d;
  EXPECT_EQ(r, n % d) << "n=" << n << " d=" << d;
  EXPECT_EQ(div.div(n), n / d) << "n=" << n << " d=" << d;
  EXPECT_EQ(div.mod(n), n % d) << "n=" << n << " d=" << d;
}

// Divisors at the edges of the estimate: 1 (reciprocal 2^64 − 1), small
// odd and even values, the array shapes the runtime sees (68 is the
// 240-byte element's cache block at 16 KiB), both sides of 2^32, the
// largest power of two and the largest divisor.
const std::vector<uint64_t> kDivisors = {
    1, 2, 3, 68, (uint64_t{1} << 32) - 1, uint64_t{1} << 32,
    (uint64_t{1} << 32) + 1, uint64_t{1} << 63, kMax};

TEST(Divisor, MatchesHardwareDivideAtTheEdges) {
  for (const uint64_t d : kDivisors) {
    const Divisor div(d);
    ASSERT_EQ(div.divisor(), d);
    std::vector<uint64_t> dividends = {0, d - 1, d, kMax};
    // k·d ± 1 for small k, for k just below the largest multiple, and
    // the largest multiple itself.
    const uint64_t kmax = kMax / d;
    for (const uint64_t k : {uint64_t{1}, uint64_t{2}, uint64_t{3},
                             uint64_t{1000}, kmax - 1, kmax}) {
      if (k == 0 || k > kmax) continue;
      const uint64_t m = k * d;
      dividends.push_back(m);
      dividends.push_back(m - 1);
      if (m != kMax) dividends.push_back(m + 1);
    }
    for (const uint64_t n : dividends) expect_exact(div, n);
  }
}

TEST(Divisor, DefaultDividesByOne) {
  const Divisor div;
  EXPECT_EQ(div.divisor(), 1u);
  for (const uint64_t n : {uint64_t{0}, uint64_t{1}, uint64_t{12345}, kMax}) {
    expect_exact(div, n);
  }
}

// Seeded sweep: random divisors of every bit length, each against random
// dividends of every bit length and the dividends around its multiples.
TEST(Divisor, MatchesHardwareDivideOnSeededSweep) {
  Rng rng(20091);
  for (int trial = 0; trial < 2000; ++trial) {
    const int dbits = 1 + static_cast<int>(rng.next_below(64));
    uint64_t d = rng.next_u64() >> (64 - dbits);
    if (d == 0) d = 1;
    const Divisor div(d);
    for (int j = 0; j < 32; ++j) {
      const int nbits = 1 + static_cast<int>(rng.next_below(64));
      const uint64_t n = rng.next_u64() >> (64 - nbits);
      expect_exact(div, n);
      const uint64_t k = rng.next_below(kMax / d) + 1;
      expect_exact(div, k * d - 1);
      expect_exact(div, k * d);
    }
  }
}

}  // namespace
}  // namespace ppm
