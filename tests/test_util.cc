/**
 * @file
 * Unit tests for the util module: RNG, samplers, statistics, tables.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "util/rng.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "util/units.hh"
#include "util/varint.hh"

using namespace nvmcache;

// --- Rng ---------------------------------------------------------------

TEST(Rng, DeterministicPerSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a() == b())
            ++same;
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 100000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, BelowIsUnbiased)
{
    Rng rng(11);
    const std::uint64_t bound = 7;
    std::vector<std::uint64_t> counts(bound, 0);
    const int n = 70000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.below(bound)];
    for (std::uint64_t c : counts)
        EXPECT_NEAR(double(c), n / double(bound), 0.05 * n / bound);
}

TEST(Rng, InRangeBoundsInclusive)
{
    Rng rng(3);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        auto v = rng.inRange(5, 8);
        ASSERT_GE(v, 5u);
        ASSERT_LE(v, 8u);
        saw_lo |= v == 5;
        saw_hi |= v == 8;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(5);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceProbability)
{
    Rng rng(9);
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, ExponentialGapMean)
{
    Rng rng(13);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += double(rng.exponentialGap(3.0));
    // gap = 1 + floor(Exp(3)); mean ~ 1 + (3 - 0.5)
    EXPECT_NEAR(sum / n, 3.5, 0.2);
}

// --- ZipfSampler -------------------------------------------------------

class ZipfTest : public ::testing::TestWithParam<std::tuple<int, double>>
{
};

TEST_P(ZipfTest, SamplesInRangeAndRankZeroMostPopular)
{
    const auto [n, s] = GetParam();
    ZipfSampler zipf(n, s);
    Rng rng(17);
    std::vector<int> counts(n, 0);
    for (int i = 0; i < 50000; ++i) {
        auto k = zipf(rng);
        ASSERT_LT(k, std::uint64_t(n));
        ++counts[k];
    }
    if (s > 0.2) {
        // Rank 0 should be (one of) the most frequent.
        int max_count = *std::max_element(counts.begin(), counts.end());
        EXPECT_GE(counts[0], int(max_count * 0.8));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ZipfTest,
    ::testing::Values(std::make_tuple(16, 0.0),
                      std::make_tuple(16, 0.8),
                      std::make_tuple(1024, 0.5),
                      std::make_tuple(1024, 1.0),
                      std::make_tuple(4096, 1.2),
                      std::make_tuple(1, 1.0)));

TEST(Zipf, EmpiricalEntropyTracksExact)
{
    const int n = 512;
    ZipfSampler zipf(n, 0.9);
    Rng rng(23);
    std::vector<double> counts(n, 0.0);
    const int draws = 400000;
    for (int i = 0; i < draws; ++i)
        counts[zipf(rng)] += 1.0;
    double h = 0.0;
    for (double c : counts) {
        if (c > 0) {
            double p = c / draws;
            h -= p * std::log2(p);
        }
    }
    EXPECT_NEAR(h, zipf.exactEntropyBits(), 0.15);
}

TEST(Zipf, SkewZeroIsUniform)
{
    ZipfSampler zipf(256, 0.0);
    EXPECT_NEAR(zipf.exactEntropyBits(), 8.0, 1e-9);
}

TEST(Zipf, HigherSkewLowersEntropy)
{
    ZipfSampler a(1024, 0.4), b(1024, 1.2);
    EXPECT_GT(a.exactEntropyBits(), b.exactEntropyBits());
}

/**
 * The untabulated rejection-inversion sampler, kept verbatim as the
 * oracle for ZipfSampler's acceptance table: four pow() per draw.
 */
class UntabulatedZipf
{
  public:
    UntabulatedZipf(std::uint64_t n, double s)
        : n_(n), s_(s), hx0_(h(0.5)), hn_(h(double(n) + 0.5))
    {
    }

    std::uint64_t
    operator()(Rng &rng) const
    {
        if (n_ == 1)
            return 0;
        if (s_ == 0.0)
            return rng.below(n_);
        for (;;) {
            double u = hx0_ + rng.uniform() * (hn_ - hx0_);
            double x = hInv(u);
            std::uint64_t k = std::uint64_t(x + 0.5);
            if (k < 1)
                k = 1;
            if (k > n_)
                k = n_;
            double envelope = h(double(k) + 0.5) - h(double(k) - 0.5);
            double accept = std::pow(double(k), -s_) / envelope;
            if (rng.uniform() <= accept)
                return k - 1;
        }
    }

  private:
    double
    h(double x) const
    {
        if (s_ == 1.0)
            return std::log(x);
        return (std::pow(x, 1.0 - s_) - 1.0) / (1.0 - s_);
    }

    double
    hInv(double x) const
    {
        if (s_ == 1.0)
            return std::exp(x);
        return std::pow(1.0 + x * (1.0 - s_), 1.0 / (1.0 - s_));
    }

    std::uint64_t n_;
    double s_;
    double hx0_;
    double hn_;
};

TEST(Zipf, TabulatedDrawsMatchUntabulatedFormula)
{
    // Same seed, same ranks, draw for draw — below, at and just above
    // the table's rank limit, where draws mix tabulated and computed
    // ratios — and the generators end in the same state.
    const std::uint64_t t = ZipfSampler::kTableRanks;
    for (double s : {0.0, 0.5, 0.85, 0.99, 1.0, 1.5}) {
        for (std::uint64_t n : {std::uint64_t(1), std::uint64_t(1000), t,
                                t + 1, t + 7}) {
            SCOPED_TRACE("s=" + std::to_string(s) +
                         " n=" + std::to_string(n));
            ZipfSampler zipf(n, s);
            const UntabulatedZipf oracle(n, s);
            Rng a(1000 + n), b(1000 + n);
            for (int i = 0; i < 100'000; ++i)
                ASSERT_EQ(zipf(a), oracle(b)) << "draw " << i;
            EXPECT_EQ(a(), b());
        }
    }
}

// --- DiscreteSampler ---------------------------------------------------

TEST(DiscreteSampler, MatchesWeights)
{
    DiscreteSampler pick({1.0, 2.0, 7.0});
    Rng rng(29);
    std::vector<int> counts(3, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[pick(rng)];
    EXPECT_NEAR(counts[0] / double(n), 0.1, 0.01);
    EXPECT_NEAR(counts[1] / double(n), 0.2, 0.015);
    EXPECT_NEAR(counts[2] / double(n), 0.7, 0.015);
}

TEST(DiscreteSampler, SingleItem)
{
    DiscreteSampler pick({5.0});
    Rng rng(1);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(pick(rng), 0u);
}

TEST(DiscreteSampler, ZeroWeightNeverPicked)
{
    DiscreteSampler pick({0.0, 1.0});
    Rng rng(2);
    for (int i = 0; i < 10000; ++i)
        EXPECT_EQ(pick(rng), 1u);
}

// --- stats --------------------------------------------------------------

TEST(Stats, MeanAndStdev)
{
    EXPECT_DOUBLE_EQ(mean({1, 2, 3, 4}), 2.5);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_NEAR(stdevPop({2, 4, 4, 4, 5, 5, 7, 9}), 2.0, 1e-12);
}

TEST(Stats, Geomean)
{
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Stats, PearsonPerfectPositive)
{
    EXPECT_NEAR(pearson({1, 2, 3}, {2, 4, 6}), 1.0, 1e-12);
}

TEST(Stats, PearsonPerfectNegative)
{
    EXPECT_NEAR(pearson({1, 2, 3}, {6, 4, 2}), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantSeriesIsZero)
{
    EXPECT_DOUBLE_EQ(pearson({1, 1, 1}, {2, 5, 9}), 0.0);
    EXPECT_DOUBLE_EQ(pearson({2, 5, 9}, {3, 3, 3}), 0.0);
}

TEST(Stats, PearsonKnownValue)
{
    // Hand-computed: cov = 6.4, sd_x = sqrt(10), sd_y = sqrt(17.2)
    // (sum-of-squares form) -> r = 6.4/sqrt(10*17.2) ~ 0.91499.
    std::vector<double> x{1, 2, 3, 4, 5};
    std::vector<double> y{2, 1, 4, 5, 6};
    EXPECT_NEAR(pearson(x, y), 0.91499, 5e-4);
}

TEST(Stats, SpearmanMonotonicNonlinear)
{
    std::vector<double> x{1, 2, 3, 4, 5};
    std::vector<double> y{1, 8, 27, 64, 125}; // monotone, nonlinear
    EXPECT_NEAR(spearman(x, y), 1.0, 1e-12);
    EXPECT_LT(pearson(x, y), 1.0);
}

TEST(Stats, SpearmanHandlesTies)
{
    std::vector<double> x{1, 2, 2, 3};
    std::vector<double> y{10, 20, 20, 30};
    EXPECT_NEAR(spearman(x, y), 1.0, 1e-12);
}

TEST(Stats, LinearFitRecoversLine)
{
    std::vector<double> x{0, 1, 2, 3};
    std::vector<double> y{5, 7, 9, 11}; // y = 5 + 2x
    LinearFit fit = linearFit(x, y);
    EXPECT_NEAR(fit.intercept, 5.0, 1e-12);
    EXPECT_NEAR(fit.slope, 2.0, 1e-12);
}

TEST(Stats, AccumulatorTracksMinMaxMean)
{
    Accumulator acc;
    for (double v : {3.0, -1.0, 7.0, 2.0})
        acc.add(v);
    EXPECT_EQ(acc.count(), 4u);
    EXPECT_DOUBLE_EQ(acc.minimum(), -1.0);
    EXPECT_DOUBLE_EQ(acc.maximum(), 7.0);
    EXPECT_DOUBLE_EQ(acc.average(), 2.75);
}

// --- units --------------------------------------------------------------

TEST(Units, Conversions)
{
    EXPECT_DOUBLE_EQ(20.0_ns, 20e-9);
    EXPECT_DOUBLE_EQ(0.75_pJ, 0.75e-12);
    EXPECT_DOUBLE_EQ(600.0_uA, 600e-6);
    EXPECT_DOUBLE_EQ(2_MB, 2097152ull);
    EXPECT_DOUBLE_EQ(toNs(1.5e-9), 1.5);
    EXPECT_DOUBLE_EQ(toNJ(2e-9), 2.0);
    EXPECT_DOUBLE_EQ(toMm2(6.548e-6), 6.548);
    EXPECT_DOUBLE_EQ(toMB(2ull << 20), 2.0);
}

// --- Table --------------------------------------------------------------

TEST(Table, CsvRoundTrip)
{
    Table t("demo");
    t.setHeader({"name", "a", "b"});
    t.startRow("row1");
    t.addCell(1.5, 1);
    t.addCell("x,y");
    std::string csv = t.toCsv();
    EXPECT_NE(csv.find("name,a,b"), std::string::npos);
    EXPECT_NE(csv.find("row1,1.5,\"x,y\""), std::string::npos);
}

TEST(Table, PrintContainsCells)
{
    Table t("demo");
    t.setHeader({"name", "v"});
    t.startRow("alpha");
    t.addCell(3.25, 2);
    std::ostringstream os;
    t.setColor(false);
    t.print(os);
    EXPECT_NE(os.str().find("alpha"), std::string::npos);
    EXPECT_NE(os.str().find("3.25"), std::string::npos);
}

TEST(Table, DimensionsTrack)
{
    Table t;
    t.setHeader({"h", "c1", "c2"});
    EXPECT_EQ(t.rows(), 0u);
    t.startRow("r");
    t.addCell("a");
    t.addCell("b");
    EXPECT_EQ(t.rows(), 1u);
    EXPECT_EQ(t.cols(), 3u);
}

TEST(Table, BlankCellsExcludedFromCsvQuoting)
{
    Table t;
    t.setHeader({"n", "v"});
    t.startRow("r");
    t.addBlank();
    EXPECT_NE(t.toCsv().find("r,"), std::string::npos);
}

// --- varint / zigzag edge cases (util/varint.hh) -------------------

namespace {

/** Encode @p v, pad per the fast-decoder contract, decode both ways. */
void
expectVarintRoundTrip(std::uint64_t v)
{
    std::vector<std::uint8_t> buf;
    putVarint(buf, v);
    const std::size_t encoded = buf.size();
    buf.resize(encoded + kVarintPad, 0);

    const std::uint8_t *slow = buf.data();
    EXPECT_EQ(getVarint(slow), v);
    EXPECT_EQ(std::size_t(slow - buf.data()), encoded);

    const std::uint8_t *fast = buf.data();
    EXPECT_EQ(getVarintFast(fast), v);
    // Both decoders must consume exactly the encoded bytes — a
    // length disagreement silently desynchronizes a whole stream.
    EXPECT_EQ(fast, slow);
}

} // namespace

TEST(Varint, EveryEncodedLengthRoundTrips)
{
    // One value per encoded length 1..10: the k*7-bit boundaries on
    // both sides. Length 9 is the first to take getVarintFast's
    // byte-loop fallback; length 10 is the 64-bit maximum.
    for (unsigned bits = 7; bits <= 63; bits += 7) {
        expectVarintRoundTrip((std::uint64_t(1) << bits) - 1);
        expectVarintRoundTrip(std::uint64_t(1) << bits);
    }
    expectVarintRoundTrip(0);
    expectVarintRoundTrip(~std::uint64_t(0)); // 10 bytes, all bits
}

TEST(Varint, MaxLengthEncodingIsTenBytes)
{
    std::vector<std::uint8_t> buf;
    putVarint(buf, ~std::uint64_t(0));
    EXPECT_EQ(buf.size(), 10u);
    // Continuation bit set on all but the final byte.
    for (std::size_t i = 0; i + 1 < buf.size(); ++i)
        EXPECT_TRUE(buf[i] & 0x80) << "byte " << i;
    EXPECT_FALSE(buf.back() & 0x80);
}

TEST(Varint, FastDecoderMatchesSlowOnDenseStream)
{
    // A stream mixing every length class back to back, decoded by
    // both decoders in lockstep. Catches any window-masking bug that
    // a single-varint test would miss (the next varint's bytes are
    // live data here, not padding).
    std::vector<std::uint64_t> values;
    for (unsigned bits = 0; bits < 64; ++bits) {
        values.push_back((std::uint64_t(1) << bits) - 1);
        values.push_back(std::uint64_t(1) << bits);
        values.push_back((std::uint64_t(1) << bits) | 0x55);
    }
    std::vector<std::uint8_t> buf;
    for (std::uint64_t v : values)
        putVarint(buf, v);
    buf.resize(buf.size() + kVarintPad, 0);

    const std::uint8_t *slow = buf.data();
    const std::uint8_t *fast = buf.data();
    for (std::uint64_t v : values) {
        EXPECT_EQ(getVarint(slow), v);
        EXPECT_EQ(getVarintFast(fast), v);
        EXPECT_EQ(fast, slow);
    }
}

TEST(Varint, FastDecoderStaysInsidePaddedBuffer)
{
    // The fast decoder's contract: exactly kVarintPad zero bytes
    // after the last varint suffice. Decode a stream whose final
    // varint ends flush against the pad from a heap buffer sized to
    // the byte — under ASan, any over-read past the pad faults.
    std::vector<std::uint8_t> stream;
    putVarint(stream, 1);               // 1-byte path
    putVarint(stream, ~std::uint64_t(0)); // 10-byte fallback path
    putVarint(stream, 0x80);            // 2-byte path, last varint
    const std::size_t bytes = stream.size() + kVarintPad;
    auto buf = std::make_unique<std::uint8_t[]>(bytes);
    std::memcpy(buf.get(), stream.data(), stream.size());
    std::memset(buf.get() + stream.size(), 0, kVarintPad);

    const std::uint8_t *p = buf.get();
    EXPECT_EQ(getVarintFast(p), 1u);
    EXPECT_EQ(getVarintFast(p), ~std::uint64_t(0));
    EXPECT_EQ(getVarintFast(p), 0x80u);
    EXPECT_EQ(std::size_t(p - buf.get()), stream.size());
}

TEST(Varint, ZigzagExtremes)
{
    const std::int64_t cases[] = {
        0,
        1,
        -1,
        std::numeric_limits<std::int64_t>::max(),
        std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::min() + 1,
    };
    for (std::int64_t d : cases) {
        EXPECT_EQ(unzigzag(zigzag(d)), d) << d;
        expectVarintRoundTrip(zigzag(d));
    }
    // Small magnitudes stay small — the property the delta encoding
    // of the trace stores relies on for density.
    EXPECT_EQ(zigzag(0), 0u);
    EXPECT_EQ(zigzag(-1), 1u);
    EXPECT_EQ(zigzag(1), 2u);
    EXPECT_EQ(zigzag(-2), 3u);
}
