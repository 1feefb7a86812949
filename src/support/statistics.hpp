/// \file statistics.hpp
/// Streaming statistics and confidence intervals for Monte Carlo estimates.
///
/// Every figure in the paper reports means with 95% confidence intervals over
/// n = 100 independent simulations; `RunningStat` (Welford) accumulates the
/// replications and `confidence_interval_95` turns them into the shaded
/// regions / error bars of Figures 4-6.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

namespace mflb {

/// Numerically stable streaming mean/variance accumulator (Welford).
class RunningStat {
public:
    /// Adds one observation.
    void add(double x) noexcept;
    /// Merges another accumulator (parallel reduction; Chan et al.).
    void merge(const RunningStat& other) noexcept;

    std::size_t count() const noexcept { return count_; }
    double mean() const noexcept { return mean_; }
    /// Unbiased sample variance; 0 for fewer than two observations.
    double variance() const noexcept;
    double stddev() const noexcept;
    /// Standard error of the mean; 0 for fewer than two observations.
    double standard_error() const noexcept;
    double min() const noexcept { return min_; }
    double max() const noexcept { return max_; }

private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/// Symmetric confidence half-width around the mean.
struct ConfidenceInterval {
    double mean = 0.0;
    double half_width = 0.0;
    std::size_t n = 0;

    double lower() const noexcept { return mean - half_width; }
    double upper() const noexcept { return mean + half_width; }
};

/// 95% CI using the Student-t critical value (normal for large n).
ConfidenceInterval confidence_interval_95(const RunningStat& stat) noexcept;

/// Two-sided Student-t critical value at 97.5% for `dof` degrees of freedom.
/// Exact tabulated values for small dof, asymptotic 1.959964 beyond.
double student_t_975(std::size_t dof) noexcept;

/// Mean of a sample.
double mean_of(std::span<const double> xs) noexcept;
/// Unbiased sample variance.
double variance_of(std::span<const double> xs) noexcept;

/// Log-linear histogram with a fixed layout (HDR-style): a value's bucket is
/// its binary exponent plus the top `kMantissaBits` bits of its mantissa,
/// read straight from the IEEE-754 bits. Every octave [2^e, 2^(e+1)) thus
/// splits into 64 equal-width buckets, each at most 2^-6 of its lower edge
/// wide, and `quantile` returns the midpoint of the bucket that holds the
/// nearest-rank sample: a relative error of at most 2^-7 for in-range
/// values. Counts are integers, so `merge` is exact: merging any split of a
/// stream, in any order, gives a histogram bit-identical to one fed the
/// whole stream. This is how the event-driven simulator reports p50/p95/p99
/// sojourn times over millions of jobs without keeping them.
///
/// The exponent range is a compile-time constant. Values below
/// 2^kMinExponent (zero, negatives and NaN included) count in the lowest
/// bucket, and values at or above 2^(kMaxExponent + 1) (+inf included) in
/// the highest, so their quantile reads that edge bucket's midpoint. Fixed
/// size (`kBuckets` counters inline); nothing allocates.
class LogLinearHistogram {
public:
    static constexpr int kMantissaBits = 6;
    static constexpr int kMinExponent = -20; ///< lowest bucket starts at 2^-20 ≈ 9.5e-7.
    static constexpr int kMaxExponent = 19;  ///< highest octave ends at 2^20 ≈ 1.05e6.
    static constexpr std::size_t kBuckets =
        static_cast<std::size_t>(kMaxExponent - kMinExponent + 1) << kMantissaBits;

    /// Counts one observation: one increment.
    void add(double x) noexcept { ++counts_[bucket_of(x)]; }
    /// Adds `other`'s counts bucket by bucket (exact, order-independent).
    void merge(const LogLinearHistogram& other) noexcept;
    /// Discards every observation.
    void clear() noexcept { counts_.fill(0); }

    /// Number of observations.
    std::uint64_t count() const noexcept;
    /// Midpoint of the bucket holding the nearest-rank p-quantile, i.e. the
    /// sample of 1-based rank max(1, ⌈p·n⌉); 0 when empty. Throws
    /// std::invalid_argument unless 0 <= p <= 1.
    double quantile(double p) const;

    /// Index of the bucket `x` counts in.
    static std::size_t bucket_of(double x) noexcept {
        if (!(x >= kLowest)) {
            return 0;
        }
        if (x >= kPastHighest) {
            return kBuckets - 1;
        }
        return static_cast<std::size_t>((std::bit_cast<std::uint64_t>(x) >> kKeyShift) -
                                        kFirstKey);
    }
    /// Bucket b covers [bucket_lower(b), bucket_lower(b + 1)) (b <= kBuckets).
    static double bucket_lower(std::size_t b) noexcept {
        return std::bit_cast<double>((kFirstKey + b) << kKeyShift);
    }
    std::uint64_t bucket_count(std::size_t b) const { return counts_.at(b); }

    bool operator==(const LogLinearHistogram&) const = default;

private:
    /// Dropping the low mantissa bits of a positive double leaves the biased
    /// exponent and the top kMantissaBits: the bucket key, monotone in x.
    static constexpr int kKeyShift = 52 - kMantissaBits;
    static constexpr std::uint64_t kFirstKey = static_cast<std::uint64_t>(kMinExponent + 1023)
                                               << kMantissaBits;
    static constexpr double kLowest =
        std::bit_cast<double>(static_cast<std::uint64_t>(kMinExponent + 1023) << 52);
    static constexpr double kPastHighest =
        std::bit_cast<double>(static_cast<std::uint64_t>(kMaxExponent + 1024) << 52);

    std::array<std::uint64_t, kBuckets> counts_{};
};

} // namespace mflb
