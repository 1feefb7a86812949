// Tests for exact sojourn-time tracking and the M/M/1/B oracles — including
// the closing of the loop: the analytic oracle against sojourn times
// *measured* end-to-end by the event-driven system simulator.
#include "queueing/sojourn.hpp"

#include "core/evaluator.hpp"
#include "des/sharded_des_system.hpp"
#include "policies/fixed.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace mflb {
namespace {

TEST(JobTimestampSlab, FifoOrder) {
    JobTimestampSlab slab(1, 5);
    JobTimestampSlab::Row jobs = slab.row(0);
    jobs.push(1.0);
    jobs.push(2.5);
    jobs.push(3.0);
    EXPECT_EQ(jobs.size(), 3);
    EXPECT_DOUBLE_EQ(jobs.pop(4.0), 3.0);  // job from t=1.0
    EXPECT_DOUBLE_EQ(jobs.pop(4.0), 1.5);  // job from t=2.5
    EXPECT_EQ(jobs.size(), 1);
}

TEST(JobTimestampSlab, WrapAroundRing) {
    JobTimestampSlab slab(1, 2);
    for (int round = 0; round < 10; ++round) {
        slab.row(0).push(round);
        slab.row(0).push(round + 0.5);
        EXPECT_DOUBLE_EQ(slab.row(0).pop(round + 1.0), 1.0);
        EXPECT_DOUBLE_EQ(slab.row(0).pop(round + 1.0), 0.5);
    }
    // A ring holding B - 1 jobs keeps its order through every head position.
    JobTimestampSlab three(1, 3);
    three.row(0).push(0.0);
    three.row(0).push(1.0);
    for (int k = 2; k < 20; ++k) {
        three.row(0).push(k);
        EXPECT_DOUBLE_EQ(three.row(0).pop(k + 0.5), 2.5);
    }
}

TEST(JobTimestampSlab, RowsAreIndependent) {
    JobTimestampSlab slab(3, 2);
    slab.row(0).push(1.0);
    slab.row(2).push(5.0);
    slab.row(2).push(6.0);
    slab.row(1).push(3.0);
    EXPECT_EQ(slab.row(0).size(), 1);
    EXPECT_EQ(slab.row(1).size(), 1);
    EXPECT_EQ(slab.row(2).size(), 2);
    EXPECT_DOUBLE_EQ(slab.row(2).pop(10.0), 5.0);
    EXPECT_DOUBLE_EQ(slab.row(0).pop(10.0), 9.0);
    EXPECT_DOUBLE_EQ(slab.row(1).pop(10.0), 7.0);
    EXPECT_DOUBLE_EQ(slab.row(2).pop(10.0), 4.0);
}

TEST(JobTimestampSlab, GuardsMisuse) {
    JobTimestampSlab slab(2, 1);
    EXPECT_THROW(slab.row(0).pop(0.0), std::logic_error);
    slab.row(0).push(0.0);
    EXPECT_THROW(slab.row(0).push(0.0), std::logic_error); // B jobs at most
    EXPECT_EQ(slab.row(1).size(), 0);
    EXPECT_THROW(JobTimestampSlab(4, 0), std::invalid_argument);
    EXPECT_THROW(JobTimestampSlab(4, JobTimestampSlab::kMaxCapacity + 1),
                 std::invalid_argument);
    EXPECT_NO_THROW(JobTimestampSlab(1, JobTimestampSlab::kMaxCapacity));
    const std::vector<int> too_full{0, 2};
    EXPECT_THROW(slab.reset(too_full, 0.0), std::invalid_argument);
    const std::vector<int> wrong_size{0};
    EXPECT_THROW(slab.reset(wrong_size, 0.0), std::invalid_argument);
    EXPECT_FALSE(static_cast<bool>(JobTimestampSlab::Row{}));
}

TEST(JobTimestampSlab, ResetForgetsStaleStamps) {
    JobTimestampSlab slab(2, 3);
    for (int k = 0; k < 7; ++k) { // move both heads off slot 0
        slab.row(0).push(k);
        slab.row(1).push(k);
        slab.row(0).pop(k);
        slab.row(1).pop(k);
    }
    slab.row(0).push(100.0);
    const std::vector<int> fill{2, 0};
    slab.reset(fill, 0.0);
    EXPECT_EQ(slab.row(0).size(), 2);
    EXPECT_EQ(slab.row(1).size(), 0);
    slab.row(0).push(1.0);
    EXPECT_DOUBLE_EQ(slab.row(0).pop(4.0), 4.0);
    EXPECT_DOUBLE_EQ(slab.row(0).pop(4.0), 4.0);
    EXPECT_DOUBLE_EQ(slab.row(0).pop(4.0), 3.0);
    EXPECT_THROW(slab.row(1).pop(4.0), std::logic_error);
}

void expect_same_episode(const EpisodeStats& a, const EpisodeStats& b) {
    EXPECT_EQ(a.total_drops_per_queue, b.total_drops_per_queue);
    EXPECT_EQ(a.discounted_return, b.discounted_return);
    EXPECT_EQ(a.dropped_packets, b.dropped_packets);
    EXPECT_EQ(a.accepted_packets, b.accepted_packets);
    EXPECT_EQ(a.mean_queue_length, b.mean_queue_length);
    EXPECT_EQ(a.server_utilization, b.server_utilization);
    EXPECT_EQ(a.mean_sojourn, b.mean_sojourn);
    EXPECT_EQ(a.completed_jobs, b.completed_jobs);
    EXPECT_EQ(a.drops_per_epoch, b.drops_per_epoch);
}

/// A sojourn-tracking config that starts with loaded queues, so a reset
/// must overwrite stamps the previous episode left in every ring.
FiniteSystemConfig loaded_sojourn_config(ClientModel model) {
    FiniteSystemConfig config;
    config.num_queues = 48;
    config.num_clients = 4800;
    config.client_model = model;
    config.dt = 1.5;
    config.horizon = 12;
    config.track_sojourn = true;
    config.nu0 = {0.1, 0.1, 0.2, 0.2, 0.2, 0.2};
    config.shards = 3;
    config.threads = 1;
    return config;
}

// Reusing a system across episodes must not leak timestamps: reset() of a
// used system (its slab holds stale stamps at shifted heads) followed by an
// episode equals a fresh system's episode bit for bit, on both backends.
TEST(JobTimestampSlab, ResetOfUsedFiniteSystemMatchesFreshSystem) {
    for (const ServiceDistKind kind :
         {ServiceDistKind::Exponential, ServiceDistKind::Deterministic}) {
        FiniteSystemConfig config = loaded_sojourn_config(ClientModel::Aggregated);
        config.service.kind = kind; // Deterministic runs the general kernel.
        FiniteSystem used(config);
        FiniteSystem fresh(config);
        const FixedRulePolicy jsq = make_jsq_policy(used.tuple_space());
        Rng warm(5);
        used.reset(warm);
        (void)used.run_episode(jsq, warm);

        Rng a(6);
        Rng b(6);
        used.reset(a);
        fresh.reset(b);
        const EpisodeStats reused = used.run_episode(jsq, a);
        const EpisodeStats first = fresh.run_episode(jsq, b);
        EXPECT_GT(first.completed_jobs, 0u);
        expect_same_episode(reused, first);
    }
}

TEST(JobTimestampSlab, ResetOfUsedShardedSystemMatchesFreshSystem) {
    for (const ClientModel model :
         {ClientModel::Aggregated, ClientModel::PerClient, ClientModel::InfiniteClients}) {
        const FiniteSystemConfig config = loaded_sojourn_config(model);
        ShardedDesSystem used(config);
        ShardedDesSystem fresh(config);
        const FixedRulePolicy jsq = make_jsq_policy(used.tuple_space());
        Rng warm(7);
        used.reset(warm);
        (void)used.run_episode(jsq, warm);

        Rng a(8);
        Rng b(8);
        used.reset(a);
        fresh.reset(b);
        const DesEpisodeStats reused = used.run_episode(jsq, a);
        const DesEpisodeStats first = fresh.run_episode(jsq, b);
        EXPECT_GT(first.completed_jobs, 0u);
        expect_same_episode(reused, first);
        EXPECT_EQ(reused.sojourn_p50, first.sojourn_p50);
        EXPECT_EQ(reused.sojourn_p95, first.sojourn_p95);
        EXPECT_EQ(reused.sojourn_p99, first.sojourn_p99);
    }
}

TEST(Mm1bOracles, MatchHandValues) {
    // rho = 1: stationary law uniform over 0..B.
    EXPECT_NEAR(mm1b_blocking_probability(1.0, 1.0, 4), 0.2, 1e-12);
    EXPECT_NEAR(mm1b_mean_length(1.0, 1.0, 4), 2.0, 1e-12);
    // B = 1, rho = 1: pi = (1/2, 1/2); E[T] = E[L]/(lambda(1-P_B)) = 1.
    EXPECT_NEAR(mm1b_mean_sojourn(1.0, 1.0, 1), 1.0, 1e-12);
    EXPECT_THROW(mm1b_mean_length(0.0, 1.0, 4), std::invalid_argument);
}

TEST(Mm1bOracles, LowLoadApproachesMm1) {
    // At rho = 0.2, B = 20 the finite buffer barely matters: E[T] ≈
    // 1/(mu - lambda) = 1.25.
    EXPECT_NEAR(mm1b_mean_sojourn(0.2, 1.0, 20), 1.25, 1e-3);
}

TEST(SojournSimulation, ConservationAndSupport) {
    Rng rng(1);
    JobTimestampSlab slab(1, 5);
    const JobTimestampSlab::Row jobs = slab.row(0);
    double t0 = 0.0;
    for (int epoch = 0; epoch < 50; ++epoch) {
        const int before = jobs.size();
        const SojournEpochResult r =
            simulate_queue_epoch_sojourn(jobs, t0, 0.9, 1.0, 5, 3.0, rng);
        EXPECT_EQ(r.queue.final_state, jobs.size());
        EXPECT_EQ(r.queue.final_state,
                  before + static_cast<int>(r.queue.arrivals) -
                      static_cast<int>(r.queue.services));
        EXPECT_EQ(r.sojourn.count(), r.queue.services);
        if (r.sojourn.count() > 0) {
            EXPECT_GT(r.sojourn.min(), 0.0);
        }
        t0 += 3.0;
    }
}

TEST(SojournSimulation, MatchesLittlesLawAtStationarity) {
    // Long-run mean sojourn of an M/M/1/B queue vs the analytic oracle.
    const double arrival = 0.8, service = 1.0;
    const int buffer = 5;
    Rng rng(2);
    JobTimestampSlab slab(1, buffer);
    const JobTimestampSlab::Row jobs = slab.row(0);
    RunningStat sojourn;
    double t0 = 0.0;
    const double dt = 10.0;
    // Warm up to stationarity first.
    for (int epoch = 0; epoch < 50; ++epoch) {
        simulate_queue_epoch_sojourn(jobs, t0, arrival, service, buffer, dt, rng);
        t0 += dt;
    }
    for (int epoch = 0; epoch < 3000; ++epoch) {
        const auto r = simulate_queue_epoch_sojourn(jobs, t0, arrival, service, buffer, dt, rng);
        sojourn.merge(r.sojourn);
        t0 += dt;
    }
    const double oracle = mm1b_mean_sojourn(arrival, service, buffer);
    EXPECT_NEAR(sojourn.mean(), oracle, 6.0 * sojourn.standard_error() + 0.02);
}

TEST(SojournSimulation, DesMeasuredSojournMatchesAnalyticOracle) {
    // Cross-validation of the whole sojourn path: under RND routing with a
    // constant arrival level λ, every queue of the event-driven system is an
    // independent M/M/1/B queue with Poisson(λ) input, so the measured mean
    // sojourn must agree with the stationary Little's-law oracle. This is
    // the first *empirical* check of queueing/sojourn's analytic formulas
    // against a full system simulation.
    const double arrival = 0.8, service = 1.0;
    const int buffer = 5;
    FiniteSystemConfig config;
    config.arrivals = ArrivalProcess::constant(arrival);
    config.queue = QueueParams{buffer, service};
    config.num_queues = 50;
    config.num_clients = 2500;
    config.dt = 10.0;
    config.horizon = 150; // 1500 time units: the empty-start transient is negligible
    config.track_sojourn = true;
    const TupleSpace space(config.queue.num_states(), config.d);
    const FixedRulePolicy rnd = make_rnd_policy(space);

    SojournSummary sojourn;
    (void)evaluate_sharded_des(config, rnd, 8, 61, 0, &sojourn);
    const double oracle = mm1b_mean_sojourn(arrival, service, buffer);
    EXPECT_GT(sojourn.mean.n, 0u);
    EXPECT_NEAR(sojourn.mean.mean, oracle, 3.0 * sojourn.mean.half_width + 0.05)
        << "DES-measured mean sojourn disagrees with the analytic oracle " << oracle;
    // The percentile estimates must bracket the mean of this skewed law.
    EXPECT_LT(sojourn.p50.mean, sojourn.mean.mean);
    EXPECT_GT(sojourn.p95.mean, sojourn.mean.mean);
}

TEST(SojournSimulation, HigherLoadLongerSojourn) {
    auto mean_sojourn = [](double arrival) {
        Rng rng(3);
        JobTimestampSlab slab(1, 5);
        const JobTimestampSlab::Row jobs = slab.row(0);
        RunningStat sojourn;
        double t0 = 0.0;
        for (int epoch = 0; epoch < 1500; ++epoch) {
            sojourn.merge(
                simulate_queue_epoch_sojourn(jobs, t0, arrival, 1.0, 5, 10.0, rng).sojourn);
            t0 += 10.0;
        }
        return sojourn.mean();
    };
    EXPECT_LT(mean_sojourn(0.3), mean_sojourn(0.9));
}

} // namespace
} // namespace mflb
