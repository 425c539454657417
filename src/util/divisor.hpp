// Division by a divisor fixed at set-up, without a hardware divide.
//
// The shared-array element paths divide every index by one of a few
// per-array constants (chunk length, node count, cache-block and
// migration-block length). A 64-bit `div` costs tens of cycles; this
// multiplies by a reciprocal computed once instead.
#pragma once

#include <cstdint>

namespace ppm {

/// Exact n / d and n % d for every 64-bit n and fixed d >= 1.
///
/// With m = floor((2^64 - 1) / d), the estimate q' = floor(n·m / 2^64)
/// (one multiply-high) satisfies n/d − 1 < n·m/2^64 < n/d, so q' is
/// floor(n/d) or one less; a single compare of the remainder against d
/// corrects it.
class Divisor {
 public:
  struct QuotRem {
    uint64_t quot;
    uint64_t rem;
  };

  Divisor() = default;  // divides by 1
  explicit Divisor(uint64_t d) : d_(d), inv_(~uint64_t{0} / d) {}

  uint64_t divisor() const { return d_; }

  QuotRem divmod(uint64_t n) const {
    uint64_t q = static_cast<uint64_t>(
        (static_cast<unsigned __int128>(n) * inv_) >> 64);
    uint64_t r = n - q * d_;
    if (r >= d_) {
      ++q;
      r -= d_;
    }
    return {q, r};
  }
  uint64_t div(uint64_t n) const { return divmod(n).quot; }
  uint64_t mod(uint64_t n) const { return divmod(n).rem; }

 private:
  uint64_t d_ = 1;
  uint64_t inv_ = ~uint64_t{0};
};

}  // namespace ppm
