/// \file sojourn.hpp
/// Exact per-job sojourn-time tracking for the finite-system simulator — a
/// metrics extension beyond the paper's drop objective (its introduction
/// motivates response times; JSQ literature reports sojourn/response times).
///
/// Queues are FIFO, so a job's sojourn time is the interval from its
/// accepted arrival to its service completion. The tracker keeps the arrival
/// timestamps of the jobs currently in each buffer; the Gillespie kernel
/// variant below records every accepted arrival and completed service with
/// exact event times.
/// \see queueing/gillespie.hpp for the underlying epoch simulation.
#pragma once

#include "queueing/gillespie.hpp"
#include "queueing/service_distribution.hpp"
#include "support/rng.hpp"
#include "support/statistics.hpp"

#include <cstdint>
#include <span>
#include <vector>

namespace mflb {

/// FIFO arrival timestamps of the jobs inside every queue of a fleet, in
/// one flat store: queue j's ring is row j of a contiguous M×B array of
/// doubles, with a one-byte head and fill per queue beside it. The rings
/// wrap by a conditional subtract, and a system allocates the slab once at
/// construction, so neither `reset` nor the event loop allocates.
class JobTimestampSlab {
    struct Cursor {
        std::uint8_t head = 0; ///< slot of the oldest job.
        std::uint8_t size = 0; ///< jobs in the ring.
    };

public:
    /// Largest buffer B the one-byte head and fill can index.
    static constexpr int kMaxCapacity = 255;

    /// One queue's ring: what the single-queue epoch kernels take. A
    /// default-constructed row is a null handle (sojourn tracking off).
    class Row {
    public:
        Row() = default;
        explicit operator bool() const noexcept { return ring_ != nullptr; }

        int size() const noexcept { return cursor_->size; }
        /// Records an accepted arrival at absolute time `t`.
        void push(double t) {
            if (cursor_->size >= capacity_) {
                throw_overflow();
            }
            unsigned slot = cursor_->head + cursor_->size;
            if (slot >= capacity_) {
                slot -= capacity_;
            }
            ring_[slot] = t;
            ++cursor_->size;
        }
        /// Completes the oldest job at absolute time `t`; returns its sojourn.
        double pop(double t) {
            if (cursor_->size == 0) {
                throw_empty();
            }
            const double arrival = ring_[cursor_->head];
            const unsigned next = cursor_->head + 1u;
            cursor_->head = static_cast<std::uint8_t>(next == capacity_ ? 0u : next);
            --cursor_->size;
            return t - arrival;
        }

    private:
        friend class JobTimestampSlab;
        Row(double* ring, Cursor* cursor, unsigned capacity) noexcept
            : ring_(ring), cursor_(cursor), capacity_(capacity) {}
        [[noreturn]] static void throw_overflow();
        [[noreturn]] static void throw_empty();

        double* ring_ = nullptr;
        Cursor* cursor_ = nullptr;
        unsigned capacity_ = 0;
    };

    /// An empty store (no queues).
    JobTimestampSlab() = default;
    /// `num_queues` empty rings of `capacity` (= B) slots; throws
    /// std::invalid_argument unless 1 <= capacity <= kMaxCapacity.
    JobTimestampSlab(std::size_t num_queues, int capacity);

    /// Queue j's ring (j < M).
    Row row(std::size_t j) noexcept {
        return Row(ring_.data() + j * capacity_, cursors_.data() + j, capacity_);
    }

    /// Episode start: queue j holds `fill[j]` jobs, all stamped `t`. Stale
    /// stamps of an earlier episode are never read again. Throws
    /// std::invalid_argument on a size mismatch or a fill outside [0, B].
    void reset(std::span<const int> fill, double t);

private:
    std::vector<double> ring_;     ///< M×B stamps; row j starts at j·B.
    std::vector<Cursor> cursors_;  ///< M head/fill pairs.
    unsigned capacity_ = 0;        ///< B.
};

/// Epoch result extended with sojourn samples.
struct SojournEpochResult {
    QueueEpochResult queue;           ///< the usual drop/arrival counters.
    RunningStat sojourn;              ///< completed jobs' sojourn times.
};

/// Exact simulation of one queue for `dt` units starting at absolute time
/// `t0`, with the jobs currently in the buffer described by the ring `jobs`
/// (whose size must equal the queue fill). Updates `jobs` in place.
SojournEpochResult simulate_queue_epoch_sojourn(JobTimestampSlab::Row jobs, double t0,
                                                double arrival_rate, double service_rate,
                                                int buffer, double dt, Rng& rng);

/// General-service (M/G/1/B) variant of the per-queue epoch kernel: the
/// `FiniteSystem` path for non-exponential `ServiceDistribution`s and
/// heterogeneous server speeds, where the service-completion clock is *not*
/// memoryless and must be carried across epochs. `next_completion` is the
/// absolute completion time of the job in service (+infinity when idle),
/// updated in place; Poisson arrivals are redrawn each epoch (exact by
/// memorylessness of the arrival process, whose rate is frozen per epoch).
/// Queue j's service times are `service.sample(rng) / speed`. When the ring
/// `jobs` is non-null, accepted arrivals / completions are timestamped through it
/// and completed sojourns land in `result.sojourn`. Starts at absolute time
/// `t0` with fill `z0`; allocation-free.
SojournEpochResult simulate_queue_epoch_general(int z0, double arrival_rate,
                                                const ServiceDistribution& service,
                                                double speed, int buffer, double t0,
                                                double dt, double& next_completion,
                                                Rng& rng, JobTimestampSlab::Row jobs);

/// Stationary M/M/1/B mean sojourn time via Little's law: E[T] = E[L] /
/// (λ (1 - P_B)) under the truncated-geometric stationary law. Oracle for
/// tests and capacity-planning examples.
double mm1b_mean_sojourn(double arrival_rate, double service_rate, int buffer);

/// Stationary M/M/1/B blocking probability P_B.
double mm1b_blocking_probability(double arrival_rate, double service_rate, int buffer);

/// Stationary M/M/1/B mean queue length E[L].
double mm1b_mean_length(double arrival_rate, double service_rate, int buffer);

} // namespace mflb
