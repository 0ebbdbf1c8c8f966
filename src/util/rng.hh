/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * We use xoshiro256** rather than std::mt19937 because (a) it is faster
 * for the trace-generation inner loop and (b) its output is identical
 * across standard library implementations, which keeps experiment
 * results bit-reproducible on any platform.
 */

#ifndef NVMCACHE_UTIL_RNG_HH
#define NVMCACHE_UTIL_RNG_HH

#include <cstdint>
#include <vector>

namespace nvmcache {

/**
 * xoshiro256** generator with splitmix64 seeding.
 *
 * Satisfies UniformRandomBitGenerator so it can also be plugged into
 * <random> distributions when convenient.
 */
/**
 * Derive a statistically independent seed for sub-stream @p stream of
 * a generator family seeded with @p base (splitmix64 over the pair).
 *
 * This is the one sanctioned way to seed per-thread / per-job
 * generators: every (base, stream) pair maps to a well-mixed seed, so
 * parallel experiment jobs can each own an Rng whose output is
 * independent of job scheduling and identical across reruns.
 */
std::uint64_t deriveSeed(std::uint64_t base, std::uint64_t stream);

/**
 * Map raw 64-bit randomness onto [0, 1) with full double precision
 * (53 high bits). This is the shared uniform-mapping used by
 * Rng::uniform() and by counter-based draw schemes (sim/faults.hh)
 * that hash an event index instead of advancing generator state.
 */
inline double
toUnitInterval(std::uint64_t bits)
{
    return double(bits >> 11) * 0x1.0p-53;
}

class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Seed deterministically; two Rng(seed) instances always agree. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ull; }

    /** Next raw 64-bit value. */
    std::uint64_t operator()();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform integer in [0, bound) with rejection to avoid bias. */
    std::uint64_t below(std::uint64_t bound);

    /** Uniform integer in [lo, hi]. */
    std::uint64_t inRange(std::uint64_t lo, std::uint64_t hi);

    /** Bernoulli trial with probability p of true. */
    bool chance(double p);

    /** Geometric-ish gap: 1 + floor of exponential with given mean. */
    std::uint64_t exponentialGap(double mean);

  private:
    std::uint64_t state_[4];
};

/**
 * O(1) Zipf(s) sampler over {0, ..., n-1} using the rejection-inversion
 * method of Hormann and Derflinger. Rank 0 is the most popular item.
 *
 * Used to draw "hot set" addresses whose popularity skew (and hence
 * address entropy) is controlled by the exponent: s -> 0 approaches
 * uniform (maximum entropy), larger s concentrates mass on few
 * addresses (low entropy).
 */
class ZipfSampler
{
  public:
    /**
     * @param n Number of items; must be >= 1.
     * @param s Skew exponent; s >= 0, s == 1 handled specially.
     */
    ZipfSampler(std::uint64_t n, double s);

    /**
     * Draw one rank in [0, n). Not const: the first draws of each
     * small rank fill the acceptance table.
     */
    std::uint64_t operator()(Rng &rng);

    std::uint64_t items() const { return n_; }
    double skew() const { return s_; }

    /** Shannon entropy (bits) of the exact Zipf pmf (O(n), for tests). */
    double exactEntropyBits() const;

    /** Ranks whose acceptance ratio is tabulated (32 KB of doubles). */
    static constexpr std::uint64_t kTableRanks = 4096;

  private:
    double h(double x) const;
    double hInv(double x) const;

    /** pmf/envelope acceptance ratio of rank @p k (1-based). */
    double acceptRatio(std::uint64_t k) const;

    std::uint64_t n_;
    double s_;
    double hx0_; ///< h(0.5), left edge of the envelope support
    double hn_;  ///< h(n + 0.5), right edge

    /**
     * acceptRatio(k) at [k - 1] for k <= min(n, kTableRanks), filled
     * on first use (negative = not yet computed; a ratio never is).
     * Same expression, so draws are bit-identical to computing it
     * every time, at one pow() per draw instead of four.
     */
    std::vector<double> accept_;
};

/**
 * Sampler over an arbitrary discrete distribution via the alias method.
 * Construction is O(n); each draw is O(1).
 */
class DiscreteSampler
{
  public:
    /** Weights need not be normalized; all must be >= 0, sum > 0. */
    explicit DiscreteSampler(const std::vector<double> &weights);

    std::size_t operator()(Rng &rng) const;

    std::size_t size() const { return prob_.size(); }

  private:
    std::vector<double> prob_;
    std::vector<std::uint32_t> alias_;
};

} // namespace nvmcache

#endif // NVMCACHE_UTIL_RNG_HH
