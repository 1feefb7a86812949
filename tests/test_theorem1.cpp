// Numerical verification of Theorem 1: the finite-system performance
// converges to the mean-field value as N, M grow (with N = M^2), on a
// conditioned arrival-rate path — exactly the coupling used in the proof.
// The event-driven backend extends the probe to system sizes (M = 10^4) the
// epoch-synchronous simulator cannot reach in test time.
#include "core/config.hpp"
#include "core/evaluator.hpp"
#include "des/sharded_des_system.hpp"
#include "policies/fixed.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace mflb {
namespace {

FiniteSystemConfig config_for(std::size_t m, double dt, ClientModel model) {
    ExperimentConfig experiment;
    experiment.dt = dt;
    experiment.num_queues = m;
    experiment.num_clients = static_cast<std::uint64_t>(m) * m;
    experiment.eval_total_time = 100.0;
    experiment.client_model = model;
    return experiment.finite_system();
}

double relative_gap(const CoupledEvaluation& coupled) {
    const double scale = std::max(1.0, coupled.mean_field_drops);
    return std::abs(coupled.finite_drops.mean - coupled.mean_field_drops) / scale;
}

TEST(Theorem1, FiniteDropsApproachMeanFieldAsMGrows) {
    const TupleSpace space(6, 2);
    const FixedRulePolicy policy = make_rnd_policy(space);
    const CoupledEvaluation small =
        evaluate_coupled(config_for(16, 5.0, ClientModel::Aggregated), policy, 24, 5);
    const CoupledEvaluation large =
        evaluate_coupled(config_for(256, 5.0, ClientModel::Aggregated), policy, 24, 5);
    // The large system must sit close to the mean-field value and closer
    // than the small one (allowing slack for Monte Carlo noise).
    EXPECT_LT(relative_gap(large), 0.06);
    EXPECT_LT(relative_gap(large), relative_gap(small) + 0.02);
}

TEST(Theorem1, InfiniteClientSystemIsCloserThanFiniteClients) {
    // The proof splits |J - J^{N,M}| <= |J - J^M| + |J^M - J^{N,M}|; the
    // N = ∞ intermediate system should also converge to the limit in M.
    const TupleSpace space(6, 2);
    const FixedRulePolicy policy = make_jsq_policy(space);
    const CoupledEvaluation m_system =
        evaluate_coupled(config_for(256, 5.0, ClientModel::InfiniteClients), policy, 24, 7);
    EXPECT_LT(relative_gap(m_system), 0.06);
}

TEST(Theorem1, HoldsAcrossDelays) {
    const TupleSpace space(6, 2);
    const FixedRulePolicy policy = make_rnd_policy(space);
    for (const double dt : {1.0, 10.0}) {
        const CoupledEvaluation coupled =
            evaluate_coupled(config_for(200, dt, ClientModel::Aggregated), policy, 16,
                             static_cast<std::uint64_t>(dt * 100));
        EXPECT_LT(relative_gap(coupled), 0.08) << "dt=" << dt;
    }
}

TEST(Theorem1, DesBackendConvergesAtTenThousandQueues) {
    // Same coupling, two orders of magnitude beyond the M of the finite
    // backend's tests: at M = 10^4 the event-driven system's drops must sit
    // within 2% of the mean-field value — and strictly closer than a small
    // system on the same paths (fluctuations shrink like 1/sqrt(M)).
    const TupleSpace space(6, 2);
    const FixedRulePolicy policy = make_rnd_policy(space);

    auto des_gap = [&](std::size_t m, std::uint64_t seed) {
        FiniteSystemConfig config = config_for(m, 5.0, ClientModel::InfiniteClients);
        config.horizon = 20;

        Rng path_rng(seed);
        std::vector<std::size_t> path;
        std::size_t state = config.arrivals.sample_initial(path_rng);
        for (int t = 0; t < config.horizon; ++t) {
            path.push_back(state);
            state = config.arrivals.step(state, path_rng);
        }

        MfcConfig mfc;
        mfc.dt = config.dt;
        mfc.horizon = config.horizon;
        MfcEnv env(mfc);
        env.reset_conditioned(path);
        Rng unused(seed);
        double limit = 0.0;
        while (!env.done()) {
            const DecisionRule h = policy.decide(env.nu(), env.lambda_state(), unused);
            limit += env.step(h, unused).drops;
        }

        ShardedDesSystem system(config);
        Rng rng(seed + 1);
        system.reset_conditioned(path, rng);
        double drops = 0.0;
        while (!system.done()) {
            drops += system.step(policy, rng).drops_per_queue;
        }
        return std::abs(drops - limit) / std::max(1.0, limit);
    };

    const double small_gap = des_gap(100, 23);
    const double large_gap = des_gap(10000, 23);
    EXPECT_LT(large_gap, 0.02);
    EXPECT_LT(large_gap, small_gap + 0.005);
}

TEST(Theorem1, MeanFieldCiContainsLimitForLargeSystem) {
    // For M = 400, N = M^2 the finite 95% CI should (nearly) cover the
    // mean-field value — the visual statement of Figure 4.
    const TupleSpace space(6, 2);
    const FixedRulePolicy policy = make_jsq_policy(space);
    const CoupledEvaluation coupled =
        evaluate_coupled(config_for(400, 5.0, ClientModel::Aggregated), policy, 16, 21);
    const double slack = 2.0 * coupled.finite_drops.half_width + 0.05 * coupled.mean_field_drops;
    EXPECT_NEAR(coupled.finite_drops.mean, coupled.mean_field_drops, slack);
}

} // namespace
} // namespace mflb
