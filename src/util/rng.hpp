// Deterministic random number generation.
//
// The framework never uses std::random_device or global RNG state: every
// stochastic component receives an explicit Rng (or a seed) so that every
// test, example and bench is exactly reproducible. The generator is
// xoshiro256** (Blackman & Vigna), seeded via SplitMix64.
#pragma once

#include <array>
#include <cstdint>

namespace nlft::util {

/// SplitMix64 step; used for seeding and as a cheap stateless mixer.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** generator with distribution helpers.
///
/// Satisfies std::uniform_random_bit_generator so it can also be used with
/// <random> distributions, but the members below are preferred: they are
/// stable across standard library implementations.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds deterministically from a single 64-bit value.
  explicit Rng(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() { return next(); }
  std::uint64_t next();

  /// Creates an independent child stream; `label` distinguishes children.
  [[nodiscard]] Rng fork(std::uint64_t label);

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform01();
  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi);
  /// Uniform integer in [0, n). Requires n > 0. Unbiased (rejection method).
  [[nodiscard]] std::uint64_t uniformInt(std::uint64_t n);
  /// Bernoulli trial with success probability p (clamped to [0, 1]).
  [[nodiscard]] bool bernoulli(double p);
  /// Exponentially distributed value with the given rate (mean 1/rate).
  [[nodiscard]] double exponential(double rate);
  /// Standard normal via Box-Muller (no cached spare: keeps state minimal).
  [[nodiscard]] double normal(double mean = 0.0, double stddev = 1.0);

 private:
  std::array<std::uint64_t, 4> s_{};
};

}  // namespace nlft::util
