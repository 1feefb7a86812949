#include "support/statistics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace mflb {

void RunningStat::add(double x) noexcept {
    if (count_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

void RunningStat::merge(const RunningStat& other) noexcept {
    if (other.count_ == 0) {
        return;
    }
    if (count_ == 0) {
        *this = other;
        return;
    }
    const double na = static_cast<double>(count_);
    const double nb = static_cast<double>(other.count_);
    const double delta = other.mean_ - mean_;
    const double total = na + nb;
    mean_ += delta * nb / total;
    m2_ += other.m2_ + delta * delta * na * nb / total;
    count_ += other.count_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

double RunningStat::variance() const noexcept {
    if (count_ < 2) {
        return 0.0;
    }
    return m2_ / static_cast<double>(count_ - 1);
}

double RunningStat::stddev() const noexcept {
    return std::sqrt(variance());
}

double RunningStat::standard_error() const noexcept {
    if (count_ < 2) {
        return 0.0;
    }
    return stddev() / std::sqrt(static_cast<double>(count_));
}

double student_t_975(std::size_t dof) noexcept {
    // Two-sided 95% critical values; the tail of the table converges quickly.
    static constexpr double kTable[] = {
        0.0,    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
        2.201,  2.179,  2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080,
        2.074,  2.069,  2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
    if (dof == 0) {
        return std::numeric_limits<double>::infinity();
    }
    if (dof < std::size(kTable)) {
        return kTable[dof];
    }
    if (dof < 60) {
        return 2.00;
    }
    if (dof < 120) {
        return 1.98;
    }
    return 1.959964;
}

ConfidenceInterval confidence_interval_95(const RunningStat& stat) noexcept {
    ConfidenceInterval ci;
    ci.mean = stat.mean();
    ci.n = stat.count();
    if (stat.count() >= 2) {
        ci.half_width = student_t_975(stat.count() - 1) * stat.standard_error();
    }
    return ci;
}

double mean_of(std::span<const double> xs) noexcept {
    RunningStat s;
    for (double x : xs) {
        s.add(x);
    }
    return s.mean();
}

double variance_of(std::span<const double> xs) noexcept {
    RunningStat s;
    for (double x : xs) {
        s.add(x);
    }
    return s.variance();
}

void LogLinearHistogram::merge(const LogLinearHistogram& other) noexcept {
    for (std::size_t b = 0; b < kBuckets; ++b) {
        counts_[b] += other.counts_[b];
    }
}

std::uint64_t LogLinearHistogram::count() const noexcept {
    std::uint64_t total = 0;
    for (const std::uint64_t c : counts_) {
        total += c;
    }
    return total;
}

double LogLinearHistogram::quantile(double p) const {
    if (!(p >= 0.0 && p <= 1.0)) {
        throw std::invalid_argument("LogLinearHistogram::quantile: p must be in [0, 1]");
    }
    const std::uint64_t n = count();
    if (n == 0) {
        return 0.0;
    }
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(n))));
    std::uint64_t seen = 0;
    std::size_t b = 0;
    while ((seen += counts_[b]) < rank) {
        ++b;
    }
    return 0.5 * (bucket_lower(b) + bucket_lower(b + 1));
}

} // namespace mflb
