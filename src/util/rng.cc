#include "util/rng.h"

#include <cmath>

namespace holim {

uint64_t Rng::SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

uint64_t Rng::NextBounded(uint64_t n) {
  // Lemire's nearly-divisionless bounded sampling with rejection.
  uint64_t x = Next64();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < n) {
    uint64_t t = -n % n;
    while (l < t) {
      x = Next64();
      m = static_cast<__uint128_t>(x) * n;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

double Rng::NextGaussian() {
  if (has_gauss_) {
    has_gauss_ = false;
    return gauss_;
  }
  // Box–Muller on two uniforms; cache the second variate.
  double u1 = NextDouble();
  double u2 = NextDouble();
  while (u1 <= 1e-300) u1 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  gauss_ = r * std::sin(theta);
  has_gauss_ = true;
  return r * std::cos(theta);
}

Rng Rng::Split(uint64_t salt) {
  uint64_t state = Next64() ^ (salt * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL);
  return Rng(SplitMix64(state));
}

}  // namespace holim
