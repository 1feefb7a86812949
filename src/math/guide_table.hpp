/// \file guide_table.hpp
/// Guide-table (indexed) search over a nondecreasing prefix-sum array: the
/// sharded DES's per-arrival destination draw on its shard-local weight
/// prefix sums.
///
/// With total W = cum.back() cut into G equal buckets of width step = W/G,
/// guide[g] is the first index i with cum[i] > g·step. A query for `target`
/// maps it to a bucket g, steps g down while g·step > target (so the
/// bucket's lower edge is at or below the target whatever the rounding of
/// target/step), then scans forward from guide[g]. Every index below
/// guide[g] has cum[i] <= g·step <= target, so the first index the scan
/// stops at is exactly `std::upper_bound(cum, target)` — the answer never
/// depends on G, only the scan length does (about n/G entries, plus
/// zero-weight runs). Building is one O(n + G) merge pass; the sharded DES
/// uses G = n, one bucket per queue.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace mflb {

class GuideTable {
public:
    /// Reserves room for up to `max_buckets` buckets, so later builds with
    /// G <= max_buckets never allocate.
    void reserve(std::size_t max_buckets) { guide_.reserve(max_buckets); }

    /// Rebuilds over `cum` (nondecreasing, cum.back() > 0, fewer than 2^32
    /// entries) with G = `buckets` buckets, 1 <= G <= cum.size().
    void build(std::span<const double> cum, std::size_t buckets);

    std::size_t buckets() const noexcept { return guide_.size(); }

    /// First index i with target < cum[i] (cum.size() if none): equal to
    /// `std::upper_bound(cum.begin(), cum.end(), target) - cum.begin()`.
    /// `cum` must be the array of the last build, and target >= 0.
    std::size_t upper_bound(std::span<const double> cum, double target) const noexcept {
        // The guess may overshoot (rounding, or target == W): clamp it to
        // the last bucket. The comparison also catches an infinite scale.
        const double guess = target * scale_;
        std::size_t g = guess < static_cast<double>(guide_.size())
                            ? static_cast<std::size_t>(guess)
                            : guide_.size() - 1;
        while (g > 0 && static_cast<double>(g) * step_ > target) {
            --g;
        }
        std::size_t i = guide_[g];
        while (i < cum.size() && !(target < cum[i])) {
            ++i;
        }
        return i;
    }

    /// The destination draw for target = u·W, u in [0, 1): `upper_bound`,
    /// except that a rounding overshoot (u·W rounding up to W, so no entry
    /// exceeds the target) lands on the last index with positive weight —
    /// the first one whose prefix sum reaches the total — never on a
    /// zero-weight tail.
    std::size_t sample(std::span<const double> cum, double target) const noexcept {
        std::size_t i = upper_bound(cum, target);
        if (i == cum.size()) {
            i = cum.size() - 1;
            while (i > 0 && !(cum[i - 1] < cum[i])) {
                --i;
            }
        }
        return i;
    }

private:
    std::vector<std::uint32_t> guide_; ///< G entries: first i with cum[i] > g·step.
    double step_ = 0.0;                ///< W / G.
    double scale_ = 0.0;               ///< G / W (bucket guess; exactness comes
                                       ///< from the step-down against step_).
};

} // namespace mflb
