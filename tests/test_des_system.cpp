// Tests for the discrete-event simulation engine (src/des/): the indexed
// future-event-list, and the analytic oracles of the event-driven backend
// (`ShardedDesSystem`) — single-queue agreement with the transient M/M/1/B
// oracle, and agreement with the mean-field prediction at large M. The
// backend's mechanics, determinism and equivalence to FiniteSystem live in
// tests/test_sharded_des.cpp.
#include "des/event_queue.hpp"

#include "des/sharded_des_system.hpp"
#include "field/mfc_env.hpp"
#include "queueing/gillespie.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace mflb {
namespace {

// ---------------------------------------------------------------------------
// EventQueue (future event list)
// ---------------------------------------------------------------------------

TEST(EventQueue, PopsInTimeOrderWithIdTieBreak) {
    EventQueue fel(8);
    fel.schedule(3, 2.0);
    fel.schedule(1, 1.0);
    fel.schedule(7, 2.0);
    fel.schedule(0, 5.0);
    EXPECT_EQ(fel.size(), 4u);
    EXPECT_EQ(fel.peek().id, 1u);
    EXPECT_EQ(fel.pop().id, 1u);
    // Equal times resolve by slot id for deterministic replay.
    EXPECT_EQ(fel.pop().id, 3u);
    EXPECT_EQ(fel.pop().id, 7u);
    EXPECT_EQ(fel.pop().id, 0u);
    EXPECT_TRUE(fel.empty());
}

TEST(EventQueue, ScheduleRejectsPendingSlotAndRescheduleMovesIt) {
    EventQueue fel(4);
    fel.schedule(0, 10.0);
    fel.schedule(1, 5.0);
    EXPECT_THROW(fel.schedule(0, 1.0), std::logic_error);
    EXPECT_EQ(fel.size(), 2u);
    EXPECT_EQ(fel.peek().id, 1u); // the rejected schedule left slot 0 at 10.
    fel.pop_and_reschedule(0, 1.0); // off the root: move earlier
    EXPECT_EQ(fel.peek().id, 0u);
    fel.pop_and_reschedule(0, 7.0); // at the root: move later again
    EXPECT_EQ(fel.pop().id, 1u);
    const EventQueue::Event last = fel.pop();
    EXPECT_EQ(last.id, 0u);
    EXPECT_DOUBLE_EQ(last.time, 7.0);
}

TEST(EventQueue, GuardsMisuse) {
    EXPECT_THROW(EventQueue(0), std::invalid_argument);
    // Positions are 32-bit with one reserved value; the bound is checked
    // before any buffer is allocated.
    EXPECT_THROW(EventQueue(std::size_t{UINT32_MAX}), std::invalid_argument);
    EventQueue fel(2);
    EXPECT_THROW(fel.schedule(2, 1.0), std::invalid_argument);
    EXPECT_THROW(fel.pop(), std::logic_error);
    EXPECT_THROW(fel.peek(), std::logic_error);
    EXPECT_THROW(fel.pop_and_reschedule(0, 1.0), std::logic_error);
    EXPECT_THROW(fel.pop_and_reschedule(5, 1.0), std::logic_error); // out of range
}

TEST(EventQueue, ClearEmptiesButKeepsCapacity) {
    EventQueue fel(3);
    fel.schedule(0, 1.0);
    fel.schedule(2, 2.0);
    fel.clear();
    EXPECT_TRUE(fel.empty());
    EXPECT_EQ(fel.capacity(), 3u);
    fel.schedule(0, 4.0); // absent again: schedule does not throw
    EXPECT_EQ(fel.pop().id, 0u);
}

TEST(EventQueue, RandomizedOperationsMatchReferenceOrdering) {
    // Fuzz schedule (and its throw on a pending slot) / peek / pop /
    // pop_and_reschedule (at the root and off it, and its throw on an absent
    // slot) / clear against a brute-force reference: every observed front,
    // and the final drain, must be the exact (time, id) minimum of the
    // pending set. Integer-valued times make (time, id) ties frequent, so
    // the id tie-break is exercised on most pops.
    const std::size_t capacity = 64;
    EventQueue fel(capacity);
    std::vector<double> reference(capacity, -1.0); // -1 = absent
    const auto reference_front = [&]() {
        std::pair<double, std::size_t> front{-1.0, capacity};
        for (std::size_t id = 0; id < capacity; ++id) {
            if (reference[id] >= 0.0 &&
                (front.second == capacity || reference[id] < front.first)) {
                front = {reference[id], id}; // strict <: the lowest id wins a tie.
            }
        }
        return front;
    };
    const auto pending = [&reference]() {
        return static_cast<std::size_t>(
            std::count_if(reference.begin(), reference.end(), [](double t) { return t >= 0.0; }));
    };
    Rng rng(99);
    for (int op = 0; op < 20000; ++op) {
        const auto id = static_cast<std::size_t>(rng.uniform_below(capacity));
        const double coin = rng.uniform();
        const auto time = static_cast<double>(rng.uniform_below(48));
        if (coin < 0.45) {
            if (reference[id] < 0.0) {
                fel.schedule(id, time);
                reference[id] = time;
            } else {
                ASSERT_THROW(fel.schedule(id, time), std::logic_error);
            }
        } else if (coin < 0.68) {
            const auto [front_time, front_id] = reference_front();
            ASSERT_EQ(fel.empty(), front_id == capacity);
            if (front_id != capacity) {
                const EventQueue::Event event = coin < 0.53 ? fel.peek() : fel.pop();
                ASSERT_EQ(event.id, front_id) << "op " << op;
                ASSERT_EQ(event.time, front_time) << "op " << op; // bitwise.
                if (coin >= 0.53) {
                    reference[front_id] = -1.0;
                }
            }
        } else if (coin < 0.84) {
            // The event loop's fast path: reschedule the just-peeked front.
            if (!fel.empty()) {
                const EventQueue::Event top = fel.peek();
                fel.pop_and_reschedule(top.id, top.time + time);
                reference[top.id] = top.time + time;
            }
        } else if (coin < 0.999) {
            if (reference[id] >= 0.0) { // off-root: may sift either way.
                fel.pop_and_reschedule(id, time);
                reference[id] = time;
            } else {
                ASSERT_THROW(fel.pop_and_reschedule(id, time), std::logic_error);
            }
        } else {
            fel.clear();
            std::fill(reference.begin(), reference.end(), -1.0);
        }
        ASSERT_EQ(fel.size(), pending()) << "op " << op;
    }
    std::vector<std::pair<double, std::size_t>> expected;
    for (std::size_t id = 0; id < capacity; ++id) {
        if (reference[id] >= 0.0) {
            expected.push_back({reference[id], id});
        }
    }
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(fel.size(), expected.size());
    for (const auto& [time, id] : expected) {
        const EventQueue::Event event = fel.pop();
        EXPECT_EQ(event.time, time);
        EXPECT_EQ(event.id, id);
    }
    EXPECT_TRUE(fel.empty());
}

// ---------------------------------------------------------------------------
// Exactness: one queue against the transient M/M/1/B oracle
// ---------------------------------------------------------------------------

TEST(ShardedDesSystem, SingleQueueFirstEpochMatchesTransientOracle) {
    // With M = 1 (so K = 1) every arrival targets queue 0 at rate M·λ = λ,
    // so the first epoch from an empty queue is exactly the birth-death
    // transient the uniformization oracle solves.
    FiniteSystemConfig config;
    config.num_queues = 1;
    config.num_clients = 1;
    config.client_model = ClientModel::InfiniteClients;
    config.arrivals = ArrivalProcess::constant(0.9);
    config.dt = 4.0;
    config.horizon = 1;
    const QueueTransientResult oracle = queue_transient_solution(
        0, 0.9, config.queue.service_rate, config.queue.buffer, config.dt);

    ShardedDesSystem system(config);
    const DecisionRule h = DecisionRule::mf_rnd(system.tuple_space());
    Rng rng(13);
    const int reps = 20000;
    std::vector<double> state_freq(static_cast<std::size_t>(config.queue.num_states()), 0.0);
    double drops = 0.0;
    for (int r = 0; r < reps; ++r) {
        system.reset(rng);
        drops += static_cast<double>(system.step_with_rule(h, rng).dropped_packets);
        state_freq[static_cast<std::size_t>(system.queue_states()[0])] += 1.0;
    }
    for (std::size_t z = 0; z < state_freq.size(); ++z) {
        const double p = oracle.state_distribution[z];
        EXPECT_NEAR(state_freq[z] / reps, p, 5.0 * std::sqrt(p * (1 - p) / reps) + 1e-3)
            << "state " << z;
    }
    EXPECT_NEAR(drops / reps, oracle.expected_drops, 0.03);
}

// ---------------------------------------------------------------------------
// Mean-field agreement at large M (Theorem 1 probe beyond FiniteSystem reach)
// ---------------------------------------------------------------------------

TEST(DesVsMeanField, EmpiricalFillingTracksMfcEnvAtLargeM) {
    // M = 10^4 queues (default K = 8 shards) on a conditioned λ path: the
    // DES empirical queue filling and per-queue drops must sit on the
    // deterministic mean-field prediction (fluctuations are O(1/sqrt(M))).
    FiniteSystemConfig config;
    config.num_queues = 10000;
    config.num_clients = 1; // unused by InfiniteClients
    config.client_model = ClientModel::InfiniteClients;
    config.dt = 5.0;
    config.horizon = 10;

    MfcConfig mfc;
    mfc.queue = config.queue;
    mfc.d = config.d;
    mfc.dt = config.dt;
    mfc.arrivals = config.arrivals;
    mfc.horizon = config.horizon;

    Rng path_rng(17);
    std::vector<std::size_t> path;
    std::size_t state = config.arrivals.sample_initial(path_rng);
    for (int t = 0; t < config.horizon; ++t) {
        path.push_back(state);
        state = config.arrivals.step(state, path_rng);
    }

    const TupleSpace space(config.queue.num_states(), config.d);
    const DecisionRule h = DecisionRule::mf_jsq(space);

    MfcEnv env(mfc);
    env.reset_conditioned(path);
    Rng unused(1);
    double limit_drops = 0.0;
    while (!env.done()) {
        limit_drops += env.step(h, unused).drops;
    }
    const std::vector<double> nu_final(env.nu().begin(), env.nu().end());

    ShardedDesSystem system(config);
    Rng rng(29);
    system.reset_conditioned(path, rng);
    double des_drops = 0.0;
    while (!system.done()) {
        des_drops += system.step_with_rule(h, rng).drops_per_queue;
    }
    const std::vector<double> empirical = system.empirical_distribution();

    ASSERT_EQ(empirical.size(), nu_final.size());
    double l1 = 0.0;
    for (std::size_t z = 0; z < empirical.size(); ++z) {
        l1 += std::abs(empirical[z] - nu_final[z]);
    }
    EXPECT_LT(l1, 0.04) << "final filling far from mean-field prediction";
    const double scale = std::max(1.0, limit_drops);
    EXPECT_LT(std::abs(des_drops - limit_drops) / scale, 0.05);
}

} // namespace
} // namespace mflb
