/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic choice in sstsim (workload data layouts, random
 * replacement, fuzz tests) flows through Rng so that runs are exactly
 * reproducible from a 64-bit seed. The generator is xoshiro256** seeded
 * via SplitMix64, which is the reference seeding procedure.
 */

#ifndef SSTSIM_COMMON_RNG_HH
#define SSTSIM_COMMON_RNG_HH

#include <cstdint>

namespace sst
{

/**
 * One SplitMix64 step: advances @p state and returns the next output.
 * This is the reference seeding generator; exposed so that seed
 * derivation (below) and Rng::reseed share one implementation.
 */
std::uint64_t splitmix64(std::uint64_t &state);

/**
 * Derive the seed for child stream @p index from @p base.
 *
 * Scheme (the per-job seeding contract for parallel sweeps): the child
 * seed is the second SplitMix64 output of the state
 *
 *     base + (index + 1) * 0x9e3779b97f4a7c15   (golden-ratio stride)
 *
 * Two SplitMix64 outputs fully mix the 64-bit state, so children of the
 * same base are statistically independent of each other and of the base
 * stream itself, while remaining a pure O(1) function of (base, index).
 * Every parallel job MUST seed its private Rng / FaultInjector /
 * workload generator this way rather than sharing or splitting a live
 * Rng: a shared generator would make the stream depend on job scheduling
 * order, breaking the "-j N is bit-identical to -j 1" guarantee.
 *
 * Distinct consumers deriving from the same base MUST carve out
 * disjoint index subspaces (e.g. the sweep expander uses even indices
 * for fault streams and odd ones for workload streams): two consumers
 * passing the same (base, index) get the identical seed, silently
 * correlating streams that the contract promises are independent.
 */
std::uint64_t deriveSeed(std::uint64_t base, std::uint64_t index);

/** Self-contained xoshiro256** generator. */
class Rng
{
  public:
    /** Construct from a seed; equal seeds yield equal streams. */
    explicit Rng(std::uint64_t seed = 0x5eedbeefULL) { reseed(seed); }

    /** Reset the stream to the state derived from @p seed. */
    void reseed(std::uint64_t seed);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound) using Lemire reduction. @p bound>0. */
    std::uint64_t below(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t range(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1). */
    double real();

    /** Bernoulli trial with probability @p p of returning true. */
    bool chance(double p) { return real() < p; }

    /**
     * Zipf-distributed index in [0, n) with skew @p s (s=0 is uniform).
     * Uses rejection-inversion; suitable for hot/cold key popularity in
     * the OLTP-style workload generators.
     */
    std::uint64_t zipf(std::uint64_t n, double s);

    /** Snapshot the generator state mid-stream (defined in src/snap/). */
    template <class Io> void io(Io &s);

  private:
    std::uint64_t state_[4];
};

} // namespace sst

#endif // SSTSIM_COMMON_RNG_HH
