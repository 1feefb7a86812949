// Tests for the guide-table destination search (math/guide_table.hpp): a
// differential fuzz against std::upper_bound, index for index, and the
// rounding-overshoot rule of the destination draw.
#include "math/guide_table.hpp"

#include "support/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

namespace mflb {
namespace {

std::size_t reference_upper_bound(const std::vector<double>& cum, double target) {
    return static_cast<std::size_t>(std::upper_bound(cum.begin(), cum.end(), target) -
                                    cum.begin());
}

/// Prefix sums of n weights: integer counts (ties) or real weights, with
/// zero-weight runs, a zero-weight head and tail, and at least one positive
/// weight.
std::vector<double> random_prefix_sums(std::size_t n, bool integer_weights, Rng& rng) {
    std::vector<double> w(n, 0.0);
    std::size_t i = 0;
    while (i < n) {
        const std::size_t run = 1 + rng.uniform_below(6);
        const bool zero = rng.uniform() < 0.4;
        for (std::size_t k = 0; k < run && i < n; ++k, ++i) {
            if (!zero) {
                w[i] = integer_weights ? static_cast<double>(1 + rng.uniform_below(3))
                                       : rng.uniform() + 1e-3;
            }
        }
    }
    if (rng.uniform() < 0.5) { // zero-weight tail
        std::fill(w.begin() + static_cast<std::ptrdiff_t>(n - n / 4), w.end(), 0.0);
    }
    w[rng.uniform_below(n / 2 + 1)] += 1.0;
    std::vector<double> cum(n);
    double running = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        running += w[k];
        cum[k] = running;
    }
    return cum;
}

/// Every target the search could get wrong: each bucket edge g·step and its
/// floating-point neighbours, each prefix sum and its neighbours, 0, W, and
/// uniform draws.
std::vector<double> probe_targets(const std::vector<double>& cum, std::size_t buckets,
                                  Rng& rng) {
    const double total = cum.back();
    const double step = total / static_cast<double>(buckets);
    std::vector<double> targets{0.0, total, std::nextafter(total, 0.0)};
    const auto add_with_neighbours = [&](double x) {
        for (const double t : {std::nextafter(x, -1.0), x, std::nextafter(x, 2.0 * total + 1.0)}) {
            if (t >= 0.0 && t <= total) {
                targets.push_back(t);
            }
        }
    };
    for (std::size_t g = 0; g <= buckets; ++g) {
        add_with_neighbours(static_cast<double>(g) * step);
    }
    for (const double c : cum) {
        add_with_neighbours(c);
    }
    for (int k = 0; k < 64; ++k) {
        targets.push_back(rng.uniform() * total);
    }
    return targets;
}

TEST(GuideTable, MatchesUpperBoundIndexForIndex) {
    Rng rng(2024);
    GuideTable guide;
    std::size_t checked = 0;
    for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{5},
                                std::size_t{13}, std::size_t{50}, std::size_t{300},
                                std::size_t{4000}}) {
        for (int trial = 0; trial < 12; ++trial) {
            const std::vector<double> cum = random_prefix_sums(n, trial % 2 == 0, rng);
            // G in {1, n/7, n}; n/7 is raised to 1 for n < 7.
            for (const std::size_t g : {std::size_t{1}, std::max<std::size_t>(n / 7, 1), n}) {
                guide.build(cum, g);
                ASSERT_EQ(guide.buckets(), g);
                for (const double target : probe_targets(cum, guide.buckets(), rng)) {
                    ASSERT_EQ(guide.upper_bound(cum, target), reference_upper_bound(cum, target))
                        << "n=" << n << " G=" << guide.buckets() << " target=" << target;
                    ++checked;
                }
            }
        }
    }
    EXPECT_GT(checked, 100000u);
}

TEST(GuideTable, SingleEntryAndAllTies) {
    GuideTable guide;
    const std::vector<double> one{2.5};
    guide.build(one, 1);
    EXPECT_EQ(guide.upper_bound(one, 0.0), 0u);
    EXPECT_EQ(guide.upper_bound(one, 2.4), 0u);
    EXPECT_EQ(guide.upper_bound(one, 2.5), 1u);
    EXPECT_EQ(guide.sample(one, 2.5), 0u);

    // All mass on the first entry: every in-range target picks it.
    const std::vector<double> head{4.0, 4.0, 4.0, 4.0};
    for (const std::size_t g : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
        guide.build(head, g);
        EXPECT_EQ(guide.upper_bound(head, 0.0), 0u);
        EXPECT_EQ(guide.upper_bound(head, 3.999), 0u);
        EXPECT_EQ(guide.sample(head, 4.0), 0u);
    }
}

TEST(GuideTable, RoundingOvershootLandsOnLastPositiveWeight) {
    // Weights {1, 1, 1, 0, 0}: target == W (u·W rounded up to W) must land
    // on index 2, the last queue with positive weight, not on the
    // zero-weight tail that a plain clamp to the last index would pick.
    const std::vector<double> cum{1.0, 2.0, 3.0, 3.0, 3.0};
    GuideTable guide;
    for (const std::size_t g : {std::size_t{1}, std::size_t{2}, std::size_t{5}}) {
        guide.build(cum, g);
        EXPECT_EQ(guide.upper_bound(cum, 3.0), cum.size());
        EXPECT_EQ(guide.sample(cum, 3.0), 2u);
        // In range, sample is upper_bound.
        EXPECT_EQ(guide.sample(cum, 0.0), 0u);
        EXPECT_EQ(guide.sample(cum, 1.0), 1u);
        EXPECT_EQ(guide.sample(cum, std::nextafter(3.0, 0.0)), 2u);
    }
    // Without a zero-weight tail the overshoot stays on the last index.
    const std::vector<double> full{1.0, 1.0, 2.0};
    guide.build(full, 3);
    EXPECT_EQ(guide.sample(full, 2.0), 2u);
}

TEST(GuideTable, RejectsEmptyOrMasslessInput) {
    GuideTable guide;
    EXPECT_THROW(guide.build(std::vector<double>{}, 1), std::invalid_argument);
    EXPECT_THROW(guide.build(std::vector<double>{0.0, 0.0}, 1), std::invalid_argument);
    EXPECT_THROW(guide.build(std::vector<double>{std::numeric_limits<double>::quiet_NaN()}, 1),
                 std::invalid_argument);
    EXPECT_THROW(guide.build(std::vector<double>{1.0, 2.0}, 0), std::invalid_argument);
    EXPECT_THROW(guide.build(std::vector<double>{1.0, 2.0}, 3), std::invalid_argument);
}

} // namespace
} // namespace mflb
