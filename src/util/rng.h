#ifndef HOLIM_UTIL_RNG_H_
#define HOLIM_UTIL_RNG_H_

#include <cstdint>

namespace holim {

/// \brief Fast, reproducible 64-bit PRNG (xoshiro256**), seeded via SplitMix64.
///
/// All stochastic components in holim take an explicit seed and derive
/// per-task streams with `Split()`, so results are reproducible regardless
/// of thread count or scheduling.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit value. Defined here, with NextDouble, so the hot
  /// samplers inline their draws.
  uint64_t Next64() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): 53 random mantissa bits.
  double NextDouble() {
    return static_cast<double>(Next64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). n must be > 0.
  uint64_t NextBounded(uint64_t n);

  /// Standard normal via Box–Muller (stateless variant; discards the pair).
  double NextGaussian();

  /// Bernoulli trial with success probability p.
  bool NextBernoulli(double p) { return NextDouble() < p; }

  /// Derives an independent stream; deterministic in (this stream, salt).
  Rng Split(uint64_t salt);

  /// SplitMix64 hash step; exposed for seed derivation elsewhere.
  static uint64_t SplitMix64(uint64_t& state);

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
  bool has_gauss_ = false;
  double gauss_ = 0.0;
};

}  // namespace holim

#endif  // HOLIM_UTIL_RNG_H_
