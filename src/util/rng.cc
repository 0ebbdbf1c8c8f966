#include "util/rng.hh"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "util/logging.hh"

namespace nvmcache {

namespace {

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

std::uint64_t
deriveSeed(std::uint64_t base, std::uint64_t stream)
{
    // Two dependent splitmix64 steps: mix the stream id into the base
    // state, then mix again so adjacent (base, stream) pairs land far
    // apart. Collisions between distinct pairs are as unlikely as for
    // any 64-bit hash.
    std::uint64_t x = base ^ (stream * 0xbf58476d1ce4e5b9ull);
    std::uint64_t s = splitmix64(x);
    x ^= s;
    return splitmix64(x);
}

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &s : state_)
        s = splitmix64(sm);
}

std::uint64_t
Rng::operator()()
{
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;

    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);

    return result;
}

double
Rng::uniform()
{
    return toUnitInterval((*this)());
}

std::uint64_t
Rng::below(std::uint64_t bound)
{
    if (bound == 0)
        panic("Rng::below(0)");
    // Lemire-style rejection.
    std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
        std::uint64_t r = (*this)();
        if (r >= threshold)
            return r % bound;
    }
}

std::uint64_t
Rng::inRange(std::uint64_t lo, std::uint64_t hi)
{
    if (hi < lo)
        panic("Rng::inRange: hi < lo");
    return lo + below(hi - lo + 1);
}

bool
Rng::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform() < p;
}

std::uint64_t
Rng::exponentialGap(double mean)
{
    if (mean <= 0.0)
        return 1;
    double u = uniform();
    // Guard log(0).
    if (u <= 0.0)
        u = 0x1.0p-53;
    return 1 + std::uint64_t(-mean * std::log(u));
}

// --- ZipfSampler -----------------------------------------------------

ZipfSampler::ZipfSampler(std::uint64_t n, double s)
    : n_(n), s_(s)
{
    if (n == 0)
        panic("ZipfSampler: n must be >= 1");
    if (s < 0.0)
        panic("ZipfSampler: negative skew");
    // Envelope: a continuous density over [0.5, n+0.5] whose mass on
    // [k-0.5, k+0.5] is h(k+0.5) - h(k-0.5) >= k^-s (x^-s is convex),
    // so plain rejection against the true pmf is valid.
    hx0_ = h(0.5);
    hn_ = h(double(n_) + 0.5);
    if (n_ > 1 && s_ != 0.0)
        accept_.assign(std::min(n_, kTableRanks), -1.0);
}

double
ZipfSampler::h(double x) const
{
    // Antiderivative of x^{-s}.
    if (s_ == 1.0)
        return std::log(x);
    return (std::pow(x, 1.0 - s_) - 1.0) / (1.0 - s_);
}

double
ZipfSampler::hInv(double x) const
{
    if (s_ == 1.0)
        return std::exp(x);
    return std::pow(1.0 + x * (1.0 - s_), 1.0 / (1.0 - s_));
}

double
ZipfSampler::acceptRatio(std::uint64_t k) const
{
    // The envelope assigns k a mass of h(k+0.5) - h(k-0.5); the true
    // (unnormalized) pmf is k^-s. Since x^-s is convex, the envelope
    // mass is always >= k^-s, so the ratio lies in (0, 1].
    const double envelope = h(double(k) + 0.5) - h(double(k) - 0.5);
    return std::pow(double(k), -s_) / envelope;
}

std::uint64_t
ZipfSampler::operator()(Rng &rng)
{
    if (n_ == 1)
        return 0;
    if (s_ == 0.0)
        return rng.below(n_);
    // Rejection-inversion over the continuous envelope.
    for (;;) {
        double u = hx0_ + rng.uniform() * (hn_ - hx0_);
        double x = hInv(u);
        std::uint64_t k = std::uint64_t(x + 0.5);
        if (k < 1)
            k = 1;
        if (k > n_)
            k = n_;
        double accept;
        if (k <= accept_.size()) {
            double &slot = accept_[k - 1];
            if (slot < 0.0)
                slot = acceptRatio(k);
            accept = slot;
        } else {
            accept = acceptRatio(k);
        }
        if (rng.uniform() <= accept)
            return k - 1;
    }
}

double
ZipfSampler::exactEntropyBits() const
{
    double z = 0.0;
    for (std::uint64_t k = 1; k <= n_; ++k)
        z += std::pow(double(k), -s_);
    double hbits = 0.0;
    for (std::uint64_t k = 1; k <= n_; ++k) {
        double p = std::pow(double(k), -s_) / z;
        if (p > 0.0)
            hbits -= p * std::log2(p);
    }
    return hbits;
}

// --- DiscreteSampler -------------------------------------------------

DiscreteSampler::DiscreteSampler(const std::vector<double> &weights)
{
    const std::size_t n = weights.size();
    if (n == 0)
        panic("DiscreteSampler: empty weights");
    double sum = 0.0;
    for (double w : weights) {
        if (w < 0.0)
            panic("DiscreteSampler: negative weight");
        sum += w;
    }
    if (sum <= 0.0)
        panic("DiscreteSampler: zero total weight");

    prob_.assign(n, 0.0);
    alias_.assign(n, 0);

    std::vector<double> scaled(n);
    std::vector<std::uint32_t> small, large;
    small.reserve(n);
    large.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        scaled[i] = weights[i] * double(n) / sum;
        (scaled[i] < 1.0 ? small : large).push_back(std::uint32_t(i));
    }
    while (!small.empty() && !large.empty()) {
        std::uint32_t s = small.back();
        small.pop_back();
        std::uint32_t l = large.back();
        large.pop_back();
        prob_[s] = scaled[s];
        alias_[s] = l;
        scaled[l] = (scaled[l] + scaled[s]) - 1.0;
        (scaled[l] < 1.0 ? small : large).push_back(l);
    }
    for (std::uint32_t i : large)
        prob_[i] = 1.0;
    for (std::uint32_t i : small)
        prob_[i] = 1.0;
}

std::size_t
DiscreteSampler::operator()(Rng &rng) const
{
    std::size_t i = rng.below(prob_.size());
    return rng.uniform() < prob_[i] ? i : alias_[i];
}

} // namespace nvmcache
