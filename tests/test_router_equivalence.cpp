// Cross-backend equivalence of the classical routers. The weight-law routers
// (random, jsq, jsq-d, sq-stale) feed the identical epoch-barrier law to both
// backends — frozen Poisson rates on FiniteSystem, per-shard masses and
// thinned streams on ShardedDesSystem (one stream at K = 1, four at K = 4) —
// so their drop statistics must agree within Monte Carlo confidence
// intervals. sq-stale with a zero refresh period goes through the same code
// path as jsq and is pinned bit-identical to it; sharded results stay
// bit-identical across thread counts even when the service law consumes
// multiple draws per sample.
#include "core/mflb.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace mflb {
namespace {

FiniteSystemConfig fleet_config(RouterSpec router) {
    FiniteSystemConfig config;
    config.num_queues = 24;
    config.dt = 2.0;
    config.horizon = 60;
    config.shards = 4;
    config.threads = 1;
    config.router = router;
    return config;
}

/// The same fleet on one shard: a single FEL and one global arrival stream.
FiniteSystemConfig single_shard(FiniteSystemConfig config) {
    config.shards = 1;
    return config;
}

template <class System>
ConfidenceInterval drops_ci(const FiniteSystemConfig& config, std::size_t episodes,
                            std::uint64_t seed) {
    const auto drops = run_replications(episodes, seed, 0, [&](std::size_t, Rng& rng) {
        System system(config);
        system.reset(rng);
        return system.run_episode(rng).total_drops_per_queue;
    });
    RunningStat stat;
    for (const double d : drops) {
        stat.add(d);
    }
    return confidence_interval_95(stat);
}

void expect_overlap(const ConfidenceInterval& a, const ConfidenceInterval& b,
                    const char* label) {
    // Same distribution => the 95% intervals overlap (tiny slack absorbs the
    // case of two very tight intervals around the same mean).
    const double gap = std::abs(a.mean - b.mean);
    const double reach = a.half_width + b.half_width + 0.05 * std::max(a.mean, b.mean);
    EXPECT_LE(gap, reach) << label << ": " << a.mean << " +- " << a.half_width << " vs "
                          << b.mean << " +- " << b.half_width;
}

TEST(RouterEquivalence, WeightLawRoutersAgreeAcrossBackends) {
    const RouterSpec specs[] = {
        {RouterKind::Random, 2, 0.0},
        {RouterKind::Jsq, 2, 0.0},
        {RouterKind::JsqD, 2, 0.0},
        {RouterKind::SqStale, 2, 6.0},
    };
    for (const RouterSpec& spec : specs) {
        const FiniteSystemConfig config = fleet_config(spec);
        const std::size_t episodes = 12;
        const ConfidenceInterval finite = drops_ci<FiniteSystem>(config, episodes, 11);
        const ConfidenceInterval one =
            drops_ci<ShardedDesSystem>(single_shard(config), episodes, 11);
        const ConfidenceInterval sharded = drops_ci<ShardedDesSystem>(config, episodes, 11);
        const std::string label(router_name(spec.kind));
        expect_overlap(finite, one, (label + " finite/K=1").c_str());
        expect_overlap(finite, sharded, (label + " finite/K=4").c_str());
        expect_overlap(one, sharded, (label + " K=1/K=4").c_str());
    }
}

TEST(RouterEquivalence, RoundRobinAgreesOnEventBackends) {
    // Round-robin is a cyclic cursor, not a weight law: the one global cursor
    // at K = 1 and the shard-local cursors at K = 4 are distinct realizations
    // of the same near-deterministic cycle, so they agree in distribution
    // (FiniteSystem only carries its equal-split mean behavior and is
    // excluded by design — see queueing/router.hpp).
    const FiniteSystemConfig config = fleet_config({RouterKind::RoundRobin, 2, 0.0});
    const ConfidenceInterval one = drops_ci<ShardedDesSystem>(single_shard(config), 12, 23);
    const ConfidenceInterval sharded = drops_ci<ShardedDesSystem>(config, 12, 23);
    expect_overlap(one, sharded, "round-robin K=1/K=4");
}

template <class System>
void expect_same_episode(const FiniteSystemConfig& a, const FiniteSystemConfig& b,
                         std::uint64_t seed, const char* label) {
    System sys_a(a);
    System sys_b(b);
    Rng rng_a(seed);
    Rng rng_b(seed);
    sys_a.reset(rng_a);
    sys_b.reset(rng_b);
    const EpisodeStats ep_a = sys_a.run_episode(rng_a);
    const EpisodeStats ep_b = sys_b.run_episode(rng_b);
    EXPECT_DOUBLE_EQ(ep_a.total_drops_per_queue, ep_b.total_drops_per_queue) << label;
    EXPECT_DOUBLE_EQ(ep_a.discounted_return, ep_b.discounted_return) << label;
    EXPECT_EQ(ep_a.dropped_packets, ep_b.dropped_packets) << label;
    EXPECT_EQ(ep_a.accepted_packets, ep_b.accepted_packets) << label;
    EXPECT_DOUBLE_EQ(ep_a.mean_queue_length, ep_b.mean_queue_length) << label;
    EXPECT_DOUBLE_EQ(ep_a.server_utilization, ep_b.server_utilization) << label;
}

TEST(RouterEquivalence, SqStaleAtZeroPeriodIsExactlyJsq) {
    // stale_period = 0 refreshes the frozen snapshot every epoch, which must
    // reproduce jsq bit for bit on every backend (identical weight law,
    // identical draw order) — the regression pin for the staleness knob.
    const FiniteSystemConfig jsq = fleet_config({RouterKind::Jsq, 2, 0.0});
    const FiniteSystemConfig sq0 = fleet_config({RouterKind::SqStale, 2, 0.0});
    expect_same_episode<FiniteSystem>(jsq, sq0, 31, "finite");
    expect_same_episode<ShardedDesSystem>(single_shard(jsq), single_shard(sq0), 31, "K=1");
    expect_same_episode<ShardedDesSystem>(jsq, sq0, 31, "K=4");
}

template <class System>
void expect_router_ignores_the_rule(const FiniteSystemConfig& config, const char* label) {
    // step(policy) and step_with_rule(h) must both forward to the router
    // kernel, so each reproduces the router-only epochs exactly.
    const TupleSpace space(config.queue.num_states(), config.d);
    const FixedRulePolicy decoy = make_rnd_policy(space);
    System router_only(config);
    System with_policy(config);
    System with_rule(config);
    Rng rng_router(5);
    Rng rng_policy(5);
    Rng rng_rule(5);
    router_only.reset(rng_router);
    with_policy.reset(rng_policy);
    with_rule.reset(rng_rule);
    std::uint64_t accepted = 0;
    for (int t = 0; !router_only.done(); ++t) {
        const EpochStats want = router_only.step_router(rng_router);
        const auto expect_same = [&](const EpochStats& got, const char* path) {
            EXPECT_EQ(got.accepted_packets, want.accepted_packets)
                << label << ' ' << path << " epoch " << t;
            EXPECT_EQ(got.dropped_packets, want.dropped_packets)
                << label << ' ' << path << " epoch " << t;
            EXPECT_EQ(got.mean_queue_length, want.mean_queue_length)
                << label << ' ' << path << " epoch " << t;
        };
        expect_same(with_policy.step(decoy, rng_policy), "step(policy)");
        expect_same(with_rule.step_with_rule(decoy.rule(), rng_rule), "step_with_rule");
        accepted += want.accepted_packets;
    }
    EXPECT_GT(accepted, 0u) << label;
}

TEST(RouterEquivalence, RouterPathIgnoresThePolicyArgument) {
    // With a classical router configured, the policy and the explicit rule
    // are both ignored on every backend and client model.
    for (const ClientModel model :
         {ClientModel::PerClient, ClientModel::Aggregated, ClientModel::InfiniteClients}) {
        FiniteSystemConfig config = fleet_config({RouterKind::Jsq, 2, 0.0});
        config.client_model = model;
        const std::string label = std::to_string(static_cast<int>(model));
        expect_router_ignores_the_rule<FiniteSystem>(config, ("finite " + label).c_str());
        expect_router_ignores_the_rule<ShardedDesSystem>(single_shard(config),
                                                         ("K=1 " + label).c_str());
        expect_router_ignores_the_rule<ShardedDesSystem>(config, ("K=4 " + label).c_str());
    }
}

TEST(RouterEquivalence, ShardedThreadCountInvariantWithGeneralService) {
    // The (seed, K) determinism contract must survive multi-draw service
    // sampling: hyperexponential consumes two draws per service time and the
    // bounded Pareto reshapes every departure, so any cross-shard draw-order
    // leak would break bit-equality between thread counts.
    for (const ServiceDistKind kind :
         {ServiceDistKind::HyperExp, ServiceDistKind::BoundedPareto}) {
        FiniteSystemConfig config = fleet_config({RouterKind::Jsq, 2, 0.0});
        config.service.kind = kind;
        config.track_sojourn = true;
        FiniteSystemConfig two = config;
        two.threads = 2;
        FiniteSystemConfig eight = config;
        eight.threads = 8;
        expect_same_episode<ShardedDesSystem>(config, two, 47,
                                              service_dist_name(kind).data());
        expect_same_episode<ShardedDesSystem>(config, eight, 47,
                                              service_dist_name(kind).data());
    }
}

} // namespace
} // namespace mflb
