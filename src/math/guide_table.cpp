#include "math/guide_table.hpp"

#include <stdexcept>

namespace mflb {

void GuideTable::build(std::span<const double> cum, std::size_t buckets) {
    const std::size_t n = cum.size();
    if (n == 0 || n > std::size_t{0xffffffff} || !(cum.back() > 0.0)) {
        throw std::invalid_argument(
            "GuideTable::build: need 1..2^32-1 prefix sums with a positive total");
    }
    if (buckets < 1 || buckets > n) {
        throw std::invalid_argument("GuideTable::build: need 1 <= buckets <= cum.size()");
    }
    const double total = cum.back();
    step_ = total / static_cast<double>(buckets);
    scale_ = static_cast<double>(buckets) / total;
    guide_.resize(buckets);
    // One merge pass of the thresholds g·step against the prefix sums. The
    // thresholds are computed exactly as upper_bound computes them, which
    // is what makes the step-down test there sound.
    std::size_t i = 0;
    for (std::size_t g = 0; g < buckets; ++g) {
        const double threshold = static_cast<double>(g) * step_;
        while (i < n && !(threshold < cum[i])) {
            ++i;
        }
        guide_[g] = static_cast<std::uint32_t>(i);
    }
}

} // namespace mflb
