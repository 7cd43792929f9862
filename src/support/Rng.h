//===- Rng.h - Deterministic pseudo-random number generation ----*- C++ -*-===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic, seedable PRNG (splitmix64-seeded xoshiro256**) used
/// throughout kernel generation, EMI pruning and VM scheduling. All
/// randomness in the project flows through this class so that every test
/// kernel and every schedule is reproducible from a 64-bit seed, matching
/// the paper's requirement that "random" means "pseudo-random".
///
//===----------------------------------------------------------------------===//

#ifndef CLFUZZ_SUPPORT_RNG_H
#define CLFUZZ_SUPPORT_RNG_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace clfuzz {

/// Deterministic random source. Cheap to copy; copies evolve
/// independently.
class Rng {
public:
  explicit Rng(uint64_t Seed) { reseed(Seed); }

  /// Re-initializes the state from a 64-bit seed via splitmix64.
  void reseed(uint64_t Seed);

  /// Returns the next 64 pseudo-random bits.
  uint64_t next();

  /// Returns a uniformly distributed value in [0, Bound). \p Bound must
  /// be nonzero. Uses rejection sampling to avoid modulo bias.
  uint64_t below(uint64_t Bound);

  /// Returns a uniformly distributed value in [Lo, Hi] inclusive.
  int64_t range(int64_t Lo, int64_t Hi);

  /// Flips a coin that comes up true with probability \p P in [0,1].
  bool chance(double P);

  /// Picks a uniformly random element of \p Choices.
  template <typename T> const T &pick(const std::vector<T> &Choices) {
    assert(!Choices.empty() && "pick() from an empty vector");
    return Choices[below(Choices.size())];
  }

  /// Picks an index in [0, Weights.size()) with probability proportional
  /// to the (non-negative) weights. At least one weight must be positive.
  size_t pickWeighted(const std::vector<unsigned> &Weights);

  /// Returns a uniformly random permutation of {0, ..., N-1}
  /// (Fisher-Yates).
  std::vector<unsigned> permutation(unsigned N);

  /// Derives an independent child generator. Streams produced by the
  /// child are decorrelated from the parent's subsequent output.
  Rng fork();

  /// Derives an independent child generator for job \p JobIndex without
  /// advancing this generator's state. Use this at every site that
  /// hands random state to a backend job: unlike a plain copy
  /// (which would give every job the same stream) or sharing (which
  /// would race), the child stream depends only on the parent state and
  /// the index, so results are identical regardless of how many worker
  /// threads run the jobs or in which order they finish.
  Rng forkForJob(uint64_t JobIndex) const;

private:
  uint64_t State[4];
};

} // namespace clfuzz

#endif // CLFUZZ_SUPPORT_RNG_H
