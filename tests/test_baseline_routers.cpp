// Classical routers against analytic queueing oracles. A single-queue fleet
// (M = 1, constant arrival level) reduces every router to the same M/M/1/B
// queue, so the end-to-end simulated blocking / mean length / mean sojourn
// must match the mm1b_* closed forms; with a large buffer and non-exponential
// service the same reduction yields M/G/1 against Pollaczek-Khinchine; and
// the bounded-Pareto sampler is checked against its closed-form mean and CDF.
#include "core/mflb.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace mflb {
namespace {

FiniteSystemConfig single_queue(RouterKind kind, double lambda, int buffer, double dt,
                                int horizon) {
    FiniteSystemConfig config;
    config.queue = QueueParams{buffer, 1.0};
    config.arrivals = ArrivalProcess::constant(lambda);
    config.dt = dt;
    config.horizon = horizon;
    config.num_queues = 1;
    config.router.kind = kind;
    config.track_sojourn = true;
    return config;
}

struct Measured {
    double blocking = 0.0;
    double mean_length = 0.0;
    double mean_sojourn = 0.0;
};

template <class System>
Measured run_episodes(const FiniteSystemConfig& config, std::size_t episodes,
                      std::uint64_t seed) {
    const Rng root(seed);
    double dropped = 0.0;
    double offered = 0.0;
    double length = 0.0;
    double sojourn_weighted = 0.0;
    double jobs = 0.0;
    for (std::size_t i = 0; i < episodes; ++i) {
        Rng rng = root.fork(i);
        System system(config);
        system.reset(rng);
        const EpisodeStats ep = system.run_episode(rng);
        dropped += static_cast<double>(ep.dropped_packets);
        offered += static_cast<double>(ep.dropped_packets + ep.accepted_packets);
        length += ep.mean_queue_length;
        sojourn_weighted += ep.mean_sojourn * static_cast<double>(ep.completed_jobs);
        jobs += static_cast<double>(ep.completed_jobs);
    }
    Measured m;
    m.blocking = offered > 0.0 ? dropped / offered : 0.0;
    m.mean_length = length / static_cast<double>(episodes);
    m.mean_sojourn = jobs > 0.0 ? sojourn_weighted / jobs : 0.0;
    return m;
}

TEST(BaselineRouterOracles, SingleQueueMatchesMm1bOnDes) {
    // M = 1: every discipline routes every job to the one queue, which is
    // then exactly M/M/1/B at rate lambda. 24000 simulated time units per
    // router (~19000 arrivals; blocking events cluster in busy periods, so
    // the effective sample is the ~3000 regeneration cycles).
    const double lambda = 0.8;
    const int buffer = 5;
    const double p_block = mm1b_blocking_probability(lambda, 1.0, buffer);
    const double length = mm1b_mean_length(lambda, 1.0, buffer);
    const double sojourn = mm1b_mean_sojourn(lambda, 1.0, buffer);
    for (const RouterKind kind : {RouterKind::Jsq, RouterKind::Random,
                                  RouterKind::RoundRobin, RouterKind::JsqD,
                                  RouterKind::SqStale}) {
        const FiniteSystemConfig config = single_queue(kind, lambda, buffer, 4.0, 1000);
        const Measured m =
            run_episodes<ShardedDesSystem>(config, 6, 20240 + static_cast<int>(kind));
        EXPECT_NEAR(m.blocking, p_block, 0.015) << router_name(kind);
        EXPECT_NEAR(m.mean_length, length, 0.12) << router_name(kind);
        EXPECT_NEAR(m.mean_sojourn / sojourn, 1.0, 0.05) << router_name(kind);
    }
}

TEST(BaselineRouterOracles, SingleQueueMatchesMm1bOnFinite) {
    // Same reduction on the epoch-synchronous backend (no per-job sojourns
    // there; blocking and time-averaged length are observable).
    const double lambda = 0.8;
    const int buffer = 5;
    const FiniteSystemConfig config = single_queue(RouterKind::Jsq, lambda, buffer, 4.0, 500);
    const Measured m = run_episodes<FiniteSystem>(config, 4, 77);
    EXPECT_NEAR(m.blocking, mm1b_blocking_probability(lambda, 1.0, buffer), 0.02);
    EXPECT_NEAR(m.mean_length, mm1b_mean_length(lambda, 1.0, buffer), 0.15);
}

TEST(BaselineRouterOracles, Mg1SojournMatchesPollaczekKhinchine) {
    // Large buffer, rho = 0.6: blocking is negligible (~rho^B), so the DES
    // single queue is effectively M/G/1 and its measured mean sojourn must
    // land on E[T] = E[S] + lambda E[S^2] / (2 (1 - rho)) for laws on both
    // sides of exponential variability. The SCV-4 hyperexponential needs a
    // long run: sojourns autocorrelate within its rare giant busy periods,
    // so ~144k jobs buy roughly a 2% standard error.
    const double lambda = 0.6;
    for (const ServiceDistKind kind :
         {ServiceDistKind::Deterministic, ServiceDistKind::HyperExp}) {
        FiniteSystemConfig config = single_queue(RouterKind::Random, lambda, 60, 5.0, 8000);
        config.service.kind = kind;
        const ServiceDistribution law(config.service, config.queue.service_rate);
        const double oracle = mg1_mean_sojourn(lambda, law);
        const Measured m = run_episodes<ShardedDesSystem>(config, 6, 5 + static_cast<int>(kind));
        EXPECT_LT(m.blocking, 1e-4) << service_dist_name(kind);
        EXPECT_NEAR(m.mean_sojourn / oracle, 1.0, 0.08) << service_dist_name(kind);
    }
    // And the ordering the PK formula dictates: deterministic service halves
    // the queueing delay of exponential; hyperexponential inflates it.
    FiniteSystemConfig det = single_queue(RouterKind::Random, lambda, 60, 5.0, 800);
    det.service.kind = ServiceDistKind::Deterministic;
    FiniteSystemConfig h2 = det;
    h2.service.kind = ServiceDistKind::HyperExp;
    const double t_det = run_episodes<ShardedDesSystem>(det, 3, 9).mean_sojourn;
    const double t_h2 = run_episodes<ShardedDesSystem>(h2, 3, 9).mean_sojourn;
    EXPECT_LT(t_det, t_h2);
}

TEST(BaselineRouterOracles, BoundedParetoSamplerMatchesClosedForm) {
    // KS-style check of the inverse-CDF sampler: empirical mean against the
    // truncated-moment formula, empirical CDF against the closed form on a
    // quantile grid (n = 200k; KS critical value ~0.003, tolerance 0.01).
    ServiceConfig config;
    config.kind = ServiceDistKind::BoundedPareto;
    config.pareto_alpha = 1.5;
    config.pareto_cap = 1000.0;
    const ServiceDistribution dist(config, 1.0);
    const std::size_t n = 200000;
    Rng rng(1234);
    std::vector<double> samples(n);
    double sum = 0.0;
    for (double& s : samples) {
        s = dist.sample(rng);
        sum += s;
    }
    EXPECT_NEAR(sum / static_cast<double>(n) / dist.mean(), 1.0, 0.03);
    std::sort(samples.begin(), samples.end());
    for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
        const double t = samples[static_cast<std::size_t>(q * static_cast<double>(n - 1))];
        EXPECT_NEAR(dist.cdf(t), q, 0.01) << "quantile " << q;
    }
}

} // namespace
} // namespace mflb
