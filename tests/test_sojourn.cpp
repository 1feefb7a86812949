// Tests for exact sojourn-time tracking and the M/M/1/B oracles — including
// the closing of the loop: the analytic oracle against sojourn times
// *measured* end-to-end by the event-driven system simulator.
#include "queueing/sojourn.hpp"

#include "core/evaluator.hpp"
#include "des/sharded_des_system.hpp"
#include "policies/fixed.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
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

/// CDF at t of the FIFO M/M/1/B sojourn of an accepted job: it finds k < B
/// jobs with the PASTA probability π_k/(1 − π_B) and then waits out the
/// residual service in progress (memoryless), k − 1 full services and its
/// own, an Erlang(k + 1, α) time.
double mm1b_sojourn_cdf(const std::vector<double>& pi, double alpha, double t) {
    const int buffer = static_cast<int>(pi.size()) - 1;
    const double x = alpha * t;
    double cdf = 0.0;
    double term = std::exp(-x); // e^{-x} x^i / i!
    double erlang_tail = 0.0;   // P(Erlang(k + 1) > t) = Σ_{i<=k} e^{-x} x^i / i!
    for (int k = 0; k < buffer; ++k) {
        erlang_tail += term;
        cdf += pi[static_cast<std::size_t>(k)] * (1.0 - erlang_tail);
        term *= x / static_cast<double>(k + 1);
    }
    return cdf / (1.0 - pi.back());
}

TEST(SojournSimulation, DesPercentilesMatchErlangMixtureLaw) {
    // M independent M/M/1/B queues on the event-driven backend: a constant
    // arrival rate split by the uniform `random` router gives every queue
    // its own Poisson(λ) stream. Starting from the stationary law π, every
    // accepted arrival in [0, T] finds the queue in π (PASTA), so each
    // recorded sojourn follows the Erlang mixture of mm1b_sojourn_cdf. The
    // histogram's p50/p95/p99 are checked against that law.
    const double lambda = 0.8, alpha = 1.0;
    const int buffer = 5;
    std::vector<double> pi(buffer + 1);
    double rho_k = 1.0;
    double norm = 0.0;
    for (double& p : pi) {
        p = rho_k;
        norm += rho_k;
        rho_k *= lambda / alpha;
    }
    for (double& p : pi) {
        p /= norm;
    }

    FiniteSystemConfig config;
    config.arrivals = ArrivalProcess::constant(lambda);
    config.queue = QueueParams{buffer, alpha};
    config.num_queues = 200;
    config.dt = 10.0;
    config.horizon = 1000; // T = 10^4: ~1.5·10^6 completed jobs.
    config.nu0 = pi;
    config.track_sojourn = true;
    config.router.kind = RouterKind::Random;
    config.shards = 4;
    config.threads = 2;
    ShardedDesSystem system(config);
    Rng rng(2024);
    system.reset(rng);
    const auto jobs_in_system = [&system] {
        double jobs = 0.0;
        for (const int z : system.queue_states()) {
            jobs += z;
        }
        return jobs;
    };
    const double initial_jobs = jobs_in_system();

    // Law quantiles x_p of the Erlang mixture (bisection on its CDF).
    const std::vector<double> ps{0.50, 0.95, 0.99};
    std::vector<double> law_q;
    for (const double p : ps) {
        double lo = 0.0, hi = 100.0;
        for (int it = 0; it < 200; ++it) {
            const double mid = 0.5 * (lo + hi);
            (mm1b_sojourn_cdf(pi, alpha, mid) < p ? lo : hi) = mid;
        }
        law_q.push_back(hi);
    }
    // Samples below the lower edge of x_p's bucket (one per p), then the
    // total, of the histogram so far.
    const auto below_edges = [&system, &law_q] {
        const LogLinearHistogram h = system.sojourn_histogram();
        std::vector<double> below;
        for (const double x : law_q) {
            const std::size_t edge = LogLinearHistogram::bucket_of(x);
            std::uint64_t c = 0;
            for (std::size_t b = 0; b < edge; ++b) {
                c += h.bucket_count(b);
            }
            below.push_back(static_cast<double>(c));
        }
        below.push_back(static_cast<double>(h.count()));
        return below;
    };

    // Batch means over time: the run splits into R batches of 20 epochs
    // (200 time units, 40 mean busy-period lengths 1/(α − λ) = 5), and batch
    // r's empirical CDF at each edge is one draw F_r. Batches are nearly
    // independent (only busy periods that straddle a boundary couple
    // neighbours), so the sample variance s² of the R draws estimates the
    // sampling variance of a batch, within-busy-period correlation included,
    // without a model of it; the pooled CDF's is about s²/R.
    const int batch_epochs = 20;
    std::vector<std::vector<double>> batch_cdf(ps.size());
    std::vector<double> prev = below_edges();
    while (!system.done()) {
        for (int e = 0; e < batch_epochs && !system.done(); ++e) {
            (void)system.step_router(rng);
        }
        const std::vector<double> now = below_edges();
        const double jobs = now.back() - prev.back();
        for (std::size_t k = 0; k < ps.size(); ++k) {
            batch_cdf[k].push_back((now[k] - prev[k]) / jobs);
        }
        prev = now;
    }
    const LogLinearHistogram sojourn = system.sojourn_histogram();
    const auto n = static_cast<double>(sojourn.count());
    ASSERT_GT(n, 1e6);
    const auto batches = static_cast<double>(batch_cdf[0].size());
    ASSERT_EQ(batch_cdf[0].size(), 50u);

    // Edge term: the recorded set is the accepted arrivals of [0, T] plus
    // the jobs present at t = 0 (stamped at 0, so their sojourns are
    // truncated) minus those still queued at T. Each such job moves the
    // empirical CDF by at most 1/(n − initial), whatever its sojourn.
    const double edge = (initial_jobs + jobs_in_system()) / (n - initial_jobs);
    // The histogram returns a bucket midpoint m within 2^-7 relative error
    // of the exact sample quantile x̂, so x̂ lies in [m/(1 + 2^-7), m/(1 −
    // 2^-7)]; with |F_n − F| <= tol there, F(x̂) is within p ± tol.
    const double bucket = std::ldexp(1.0, -7);
    // Sampling term z·s/sqrt(R): the studentised pooled CDF is about t with
    // R − 1 = 49 degrees of freedom, so z = 6 puts a miss near 2·10^-7 per
    // check. The variance is read at the lower edge of x_p's bucket, within
    // 2^-6 relative of x_p, where the pointwise variance F(1 − F)·(inflation)
    // is practically the same. The tolerance was also calibrated by
    // injection: scaling every recorded sojourn by 1.02 or 0.98 fails this
    // test, 1.01 and 0.99 (inside the 2^-7 bucket bound) pass.
    const double z = 6.0;
    for (std::size_t k = 0; k < ps.size(); ++k) {
        const double p = ps[k];
        SCOPED_TRACE(p);
        RunningStat draws;
        for (const double f : batch_cdf[k]) {
            draws.add(f);
        }
        // The batch-means variance must look like i.i.d. sampling inflated
        // by busy-period correlation: at least binomial, and finite.
        const double iid_var = p * (1.0 - p) / n;
        const double pooled_var = draws.variance() / batches;
        EXPECT_GT(pooled_var, 0.5 * iid_var);
        EXPECT_LT(pooled_var, 100.0 * iid_var);
        const double m = sojourn.quantile(p);
        const double tol = z * std::sqrt(pooled_var) + edge + 1.0 / n;
        EXPECT_GE(mm1b_sojourn_cdf(pi, alpha, m / (1.0 - bucket)), p - tol) << "m = " << m;
        EXPECT_LE(mm1b_sojourn_cdf(pi, alpha, m / (1.0 + bucket)), p + tol) << "m = " << m;
    }
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
