// Tests for Welford accumulation, merging, confidence intervals, and the
// log-linear sojourn histogram.
#include "support/statistics.hpp"
#include "support/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

namespace mflb {
namespace {

TEST(RunningStat, MatchesNaiveMeanAndVariance) {
    const std::vector<double> xs{1.0, 2.0, 4.5, -3.0, 0.25, 10.0};
    RunningStat stat;
    for (double x : xs) {
        stat.add(x);
    }
    EXPECT_EQ(stat.count(), xs.size());
    EXPECT_NEAR(stat.mean(), mean_of(xs), 1e-12);
    EXPECT_NEAR(stat.variance(), variance_of(xs), 1e-12);
    EXPECT_DOUBLE_EQ(stat.min(), -3.0);
    EXPECT_DOUBLE_EQ(stat.max(), 10.0);
}

TEST(RunningStat, SingleObservationHasZeroVariance) {
    RunningStat stat;
    stat.add(5.0);
    EXPECT_DOUBLE_EQ(stat.variance(), 0.0);
    EXPECT_DOUBLE_EQ(stat.standard_error(), 0.0);
}

TEST(RunningStat, MergeEqualsSequential) {
    RunningStat all, left, right;
    for (int i = 0; i < 50; ++i) {
        const double x = std::sin(static_cast<double>(i)) * 3.0 + 1.0;
        all.add(x);
        (i < 20 ? left : right).add(x);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), all.count());
    EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
    EXPECT_NEAR(left.variance(), all.variance(), 1e-10);
    EXPECT_DOUBLE_EQ(left.min(), all.min());
    EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStat, MergeWithEmptyIsNoop) {
    RunningStat a, b;
    a.add(1.0);
    a.add(2.0);
    const double mean_before = a.mean();
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.mean(), mean_before);
    b.merge(a);
    EXPECT_DOUBLE_EQ(b.mean(), mean_before);
}

TEST(ConfidenceInterval, WidthScalesWithSampleSize) {
    RunningStat small, big;
    for (int i = 0; i < 10; ++i) {
        small.add(i % 2 == 0 ? 1.0 : -1.0);
    }
    for (int i = 0; i < 1000; ++i) {
        big.add(i % 2 == 0 ? 1.0 : -1.0);
    }
    const auto ci_small = confidence_interval_95(small);
    const auto ci_big = confidence_interval_95(big);
    EXPECT_GT(ci_small.half_width, ci_big.half_width);
    EXPECT_NEAR(ci_big.mean, 0.0, 1e-12);
    EXPECT_LE(ci_big.lower(), ci_big.mean);
    EXPECT_GE(ci_big.upper(), ci_big.mean);
}

TEST(ConfidenceInterval, CoversTrueMeanApproximately) {
    // Property: over repeated experiments, the 95% CI covers the true mean
    // about 95% of the time (allow generous slack for 200 trials).
    std::uint64_t seed = 12345;
    int covered = 0;
    const int trials = 200;
    for (int trial = 0; trial < trials; ++trial) {
        RunningStat stat;
        for (int i = 0; i < 40; ++i) {
            // Deterministic pseudo-random uniform in [0, 1) via splitmix64.
            const double u =
                static_cast<double>(splitmix64(seed) >> 11) * 0x1.0p-53;
            stat.add(u);
        }
        const auto ci = confidence_interval_95(stat);
        if (ci.lower() <= 0.5 && 0.5 <= ci.upper()) {
            ++covered;
        }
    }
    EXPECT_GE(covered, static_cast<int>(trials * 0.88));
}

TEST(StudentT, CriticalValuesDecreaseToNormal) {
    EXPECT_GT(student_t_975(1), student_t_975(2));
    EXPECT_GT(student_t_975(5), student_t_975(30));
    EXPECT_NEAR(student_t_975(10000), 1.959964, 1e-6);
}

// --- LogLinearHistogram ------------------------------------------------------

using LogHist = LogLinearHistogram;

/// The exact nearest-rank p-quantile of a sorted sample: the value of
/// 1-based rank max(1, ⌈p·n⌉), the definition `LogLinearHistogram` bins.
double nearest_rank(const std::vector<double>& sorted, double p) {
    const auto n = static_cast<double>(sorted.size());
    const auto rank = std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(p * n)));
    return sorted[rank - 1];
}

TEST(LogLinearHistogram, LayoutIsExponentPlusTopSixMantissaBits) {
    EXPECT_EQ(LogHist::kBuckets, 40u * 64u);
    EXPECT_EQ(LogHist::bucket_lower(0), std::ldexp(1.0, LogHist::kMinExponent));
    EXPECT_EQ(LogHist::bucket_lower(LogHist::kBuckets), std::ldexp(1.0, LogHist::kMaxExponent + 1));
    // 1.0 opens the octave 20 octaves above 2^-20; 1 + 1/64 is its next bucket.
    EXPECT_EQ(LogHist::bucket_of(1.0), 20u * 64u);
    EXPECT_EQ(LogHist::bucket_of(1.0 + 1.0 / 64.0), 20u * 64u + 1u);
    EXPECT_EQ(LogHist::bucket_of(std::nextafter(1.0 + 1.0 / 64.0, 0.0)), 20u * 64u);
    EXPECT_EQ(LogHist::bucket_of(std::nextafter(2.0, 0.0)), 21u * 64u - 1u);
    // Every in-range value lies in its bucket, and no bucket is wider than
    // 2^-6 of its lower edge.
    Rng rng(5);
    for (int i = 0; i < 20000; ++i) {
        const double x = std::exp2(rng.uniform(LogHist::kMinExponent, LogHist::kMaxExponent + 1));
        const std::size_t b = LogHist::bucket_of(x);
        ASSERT_LT(b, LogHist::kBuckets);
        ASSERT_LE(LogHist::bucket_lower(b), x);
        ASSERT_LT(x, LogHist::bucket_lower(b + 1));
        ASSERT_LE(LogHist::bucket_lower(b + 1) - LogHist::bucket_lower(b),
                  std::ldexp(LogHist::bucket_lower(b), -6));
    }
}

TEST(LogLinearHistogram, ExactNearestRankQuantileLiesInTheReturnedBucket) {
    Rng rng(71);
    const int n = 50000;
    // The short stream has n·p off the integers, so the rank must round up.
    std::vector<std::pair<const char*, std::vector<double>>> streams = {
        {"exponential", {}}, {"normal", {}},
        {"constant", {}},    {"sorted", {}},
        {"pareto", {}},      {"short", {3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0}}};
    for (int i = 0; i < n; ++i) {
        streams[0].second.push_back(rng.exponential(1.0));
        streams[1].second.push_back(rng.normal(10.0, 2.0));
        streams[2].second.push_back(5.0);
        streams[3].second.push_back(static_cast<double>(i + 1));
        // Pareto(x_m = 1, shape 1.5): infinite variance, max ~ n^(2/3).
        streams[4].second.push_back(std::pow(1.0 - rng.uniform(), -1.0 / 1.5));
    }
    const double lowest = LogHist::bucket_lower(0);
    for (auto& [name, xs] : streams) {
        SCOPED_TRACE(name);
        LogHist h;
        for (const double x : xs) {
            h.add(x);
        }
        EXPECT_EQ(h.count(), xs.size());
        std::sort(xs.begin(), xs.end());
        double previous = 0.0;
        for (const double p : {0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
            SCOPED_TRACE(p);
            const double exact = nearest_rank(xs, p);
            const double q = h.quantile(p);
            EXPECT_EQ(LogHist::bucket_of(q), LogHist::bucket_of(exact));
            if (exact >= lowest) { // the 2^-7 bound holds for in-range values.
                EXPECT_LE(std::abs(q - exact), std::ldexp(exact, -7));
            }
            EXPECT_GE(q, previous); // monotone in p.
            previous = q;
        }
    }
}

TEST(LogLinearHistogram, MergeOfAnySplitInAnyOrderIsBitIdentical) {
    // A stream with in-range values over many octaves plus out-of-range
    // ones, dealt at random to 7 parts; merged forward, backward and as a
    // pairwise tree, every result equals the histogram of the whole stream.
    Rng rng(77);
    LogHist whole;
    std::vector<LogHist> parts(7);
    for (int i = 0; i < 30000; ++i) {
        double x = rng.exponential(0.7) * std::exp2(rng.uniform(-8.0, 8.0));
        if (i % 1000 == 0) {
            x = i % 2000 == 0 ? 0.0 : 1e9; // both edge buckets.
        }
        whole.add(x);
        parts[static_cast<std::size_t>(rng.uniform_below(parts.size()))].add(x);
    }
    LogHist forward;
    for (const LogHist& part : parts) {
        forward.merge(part);
    }
    LogHist backward;
    for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
        backward.merge(*it);
    }
    std::vector<LogHist> level = parts;
    while (level.size() > 1) {
        std::vector<LogHist> next;
        for (std::size_t i = 0; i < level.size(); i += 2) {
            next.push_back(level[i]);
            if (i + 1 < level.size()) {
                next.back().merge(level[i + 1]);
            }
        }
        level = std::move(next);
    }
    EXPECT_TRUE(forward == whole);
    EXPECT_TRUE(backward == whole);
    EXPECT_TRUE(level.front() == whole);
    EXPECT_EQ(forward.count(), 30000u);
    forward.merge(LogHist{}); // merging an empty histogram is a no-op.
    EXPECT_TRUE(forward == whole);
    for (const double p : {0.5, 0.95, 0.99}) {
        EXPECT_EQ(backward.quantile(p), whole.quantile(p));
    }
}

TEST(LogLinearHistogram, EmptyZeroAndOutOfRangeValues) {
    LogHist h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.quantile(0.5), 0.0); // empty reads 0.
    EXPECT_EQ(h.quantile(1.0), 0.0);
    EXPECT_THROW((void)h.quantile(-0.1), std::invalid_argument);
    EXPECT_THROW((void)h.quantile(1.1), std::invalid_argument);
    EXPECT_THROW((void)h.quantile(std::nan("")), std::invalid_argument);

    // Below 2^kMinExponent — zero, negatives, subnormals, NaN — counts in
    // the lowest bucket; 2^(kMaxExponent+1) and above, +inf included, in
    // the highest.
    for (const double x : {0.0, -0.0, -3.0, 1e-300, std::ldexp(1.0, LogHist::kMinExponent - 1),
                           std::nan("")}) {
        EXPECT_EQ(LogHist::bucket_of(x), 0u) << x;
    }
    for (const double x : {std::ldexp(1.0, LogHist::kMaxExponent + 1), 1e300,
                           std::numeric_limits<double>::infinity()}) {
        EXPECT_EQ(LogHist::bucket_of(x), LogHist::kBuckets - 1) << x;
    }
    const auto midpoint = [](std::size_t b) {
        return 0.5 * (LogHist::bucket_lower(b) + LogHist::bucket_lower(b + 1));
    };
    h.add(0.0);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.bucket_count(0), 1u);
    EXPECT_EQ(h.quantile(0.5), midpoint(0)); // 2^-20·(1 + 2^-7), not 0.
    h.add(1e12);
    EXPECT_EQ(h.quantile(1.0), midpoint(LogHist::kBuckets - 1));
    EXPECT_EQ(h.quantile(0.0), midpoint(0));
    h.clear();
    EXPECT_TRUE(h == LogHist{});
    EXPECT_EQ(h.quantile(0.99), 0.0);
}

} // namespace
} // namespace mflb
