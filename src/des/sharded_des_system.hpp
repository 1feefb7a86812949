/// \file sharded_des_system.hpp
/// Epoch-barrier-parallel event-driven simulator of the Section 2.1 finite
/// system: the M queues are partitioned into K contiguous shards that run
/// independent event loops in parallel *between* decision epochs and
/// synchronize only at the epoch barrier.
///
/// Why event-driven: the epoch-synchronous `FiniteSystem` pays O(M) RNG and
/// kernel work per decision epoch even when most queues are idle, because
/// every queue runs its own exponential-clock loop each Δt. Here each shard
/// pays per *event* (arrival / departure) on its own future event list, so
/// simulation cost follows the actual traffic, and because every job is an
/// individual event the backend reports exact per-job sojourn times and
/// their p50/p95/p99 from one log-linear histogram per shard. K = 1 is the plain single-FEL simulator.
///
/// Why this is exact and not an approximation: the paper's whole premise is
/// that routing decisions are made on Δt-stale information — within a
/// decision epoch every arrival routes on the snapshot frozen at the epoch
/// start, so given the epoch's routing law the M queues evolve as
/// *independent* birth-death processes. Domain decomposition therefore
/// needs no optimistic rollback and no cross-shard event traffic: the only
/// shared state is written at the barrier.
///
/// Arrival-stream sharding (Poisson thinning): the aggregated arrival
/// process of rate M·λ_t with i.i.d. per-job destination law w (client
/// counts for PerClient/Aggregated, the exact per-job destination
/// probabilities of `compute_destination_law_into` for InfiniteClients)
/// splits exactly into K independent Poisson streams — shard s receives
/// rate M·λ_t · W_s / W with W_s its routing mass, and each of its arrivals
/// picks a destination inside the shard with the conditional law w_j / W_s.
/// PerClient, Aggregated and the classical routers realize that law by a
/// guide-table search (math/guide_table.hpp) on shard-local prefix sums of
/// the per-queue weights: the same index as binary search, found in O(1)
/// expected steps.
/// InfiniteClients needs no per-queue pass at all: w_j = w(z_j) depends only
/// on queue j's snapshot state (eqs. 18–19), so W_s = Σ_z c_s[z]·w(z) comes
/// from the shard's snapshot class counts c_s, and an arrival draws a class
/// z with probability c_s[z]·w(z)/W_s and then a uniform member of it —
/// P(j) = w(z_j)/W_s, the same law. Each shard keeps its local ids grouped
/// by snapshot class (`members`/`pos`/`class_begin`) and, at the end of its
/// epoch, moves the queues its events touched to their live class by
/// adjacent-boundary swaps, so an InfiniteClients epoch costs O(|Z| +
/// events) rather than O(M).
/// For `Aggregated`, the Multinomial(N, p) client counts are drawn
/// hierarchically: shard totals N_s ~ Multinomial(N, P_s) at the barrier,
/// then each shard draws Multinomial(N_s, p_j / P_s) over its own queues
/// from its own stream — the joint law of the per-queue counts is exactly
/// Multinomial(N, p).
///
/// Epoch structure (on `SystemBase`'s clock):
///  1. *Barrier (serial)* — policy query on the observed H_t^M, per-queue
///     routing weights, per-shard masses/rates (and shard client totals),
///     all from the caller's RNG;
///  2. *Parallel phase* — each shard redraws its thinned arrival timer and
///     drains its own `EventQueue` of departures to the epoch end, drawing
///     only from its own `Rng::fork(shard)` stream and touching only its own
///     queue slice — lock-free, no atomics, no cross-shard reads;
///  3. *Barrier (reduction)* — the integer payloads (state counts up to each
///     shard's occupied high-water mark, packet counters) combine through a
///     fixed-shape pairwise tree whose nodes can themselves fan out over the
///     pool, while the few floating-point accumulators (areas, sojourn sums)
///     stay a fixed-order serial pass over the K shards; λ advances.
///
/// Phases 1 and 3 are the only synchronization — one fan-out and one join
/// per epoch — because the Δt-stale snapshot freezes the routing law for the
/// whole epoch. See the "Epoch barrier" section of docs/ARCHITECTURE.md.
///
/// Determinism contract: results are a function of (seed, K) only — never
/// of the thread count — because every RNG stream is owned by exactly one
/// shard (or the serial phase), shard work is self-contained, the reduction
/// tree's shape is fixed by K alone (each node writes only its own slot, and
/// its payloads are integers, so the combine order within a level is
/// immaterial), and the floating-point sums keep their fixed serial shard
/// order. tests/test_sharded_des.cpp pins bit-identical episodes across
/// 1/2/8 threads for all three client models, and CI overlap against
/// `FiniteSystem` on registry scenarios.
#pragma once

#include "des/event_queue.hpp"
#include "math/guide_table.hpp"
#include "queueing/finite_system.hpp"
#include "queueing/sojourn.hpp"
#include "queueing/system_base.hpp"
#include "support/rng.hpp"
#include "support/statistics.hpp"

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace mflb {

/// Episode summary of the event-driven simulator: the shared episode stats
/// plus the sojourn-time percentiles only a per-job simulation can report
/// (0 unless `track_sojourn` is set and jobs completed).
struct DesEpisodeStats : EpisodeStats {
    double sojourn_p50 = 0.0;
    double sojourn_p95 = 0.0;
    double sojourn_p99 = 0.0;
};

/// Sharded event-driven backend; accepts the same `FiniteSystemConfig` as
/// `FiniteSystem` plus its `shards` (K, 0 = min(8, M)) and
/// `threads` (parallel workers, 0 = all cores; never affects results).
class ShardedDesSystem : public SystemBase {
public:
    /// Default shard count when `config.shards == 0` (clamped to M). Fixed —
    /// not hardware-derived — so results are machine-independent.
    static constexpr std::size_t kDefaultShards = 8;

    explicit ShardedDesSystem(FiniteSystemConfig config);

    const FiniteSystemConfig& config() const noexcept { return config_; }
    const TupleSpace& tuple_space() const noexcept { return space_; }
    std::size_t num_shards() const noexcept { return shards_.size(); }
    /// Queue index range [first, past-the-end) owned by shard s.
    std::pair<std::size_t, std::size_t> shard_range(std::size_t s) const {
        return {shard_begin_[s], shard_begin_[s + 1]};
    }

    /// Draws initial queue states i.i.d. from ν_0 and samples λ_0 (caller
    /// RNG, same order as the other backends), then forks one independent
    /// stream per shard and seeds each shard's FEL with the departures of
    /// its initially busy queues.
    void reset(Rng& rng);
    /// Like reset but with a fixed λ-state sequence (Theorem 1 conditioning).
    void reset_conditioned(std::vector<std::size_t> lambda_states, Rng& rng);

    /// Empirical distribution H_t^M over Z, eq. (2) — the cross-shard
    /// reduction maintained at the epoch barrier, O(|Z|).
    std::vector<double> empirical_distribution() const;
    /// Exact H_t^M, or a `histogram_sample_size`-queue estimate (§2.1).
    std::vector<double> observed_distribution(Rng& rng) const;

    /// One decision epoch: serial barrier phase, parallel shard event loops,
    /// serial reduction (see file comment). With a classical router
    /// configured the rule is ignored (forwards to step_router).
    EpochStats step_with_rule(const DecisionRule& h, Rng& rng);
    /// One decision epoch under the configured classical router: the weight
    /// law is partitioned into shard masses at the barrier exactly like the
    /// policy path's destination law (round-robin: shard-local cyclic
    /// cursors over shard-size-proportional thinned streams); requires
    /// `config().router.kind != RouterKind::Policy`.
    EpochStats step_router(Rng& rng);
    /// Queries the policy on (observed H_t^M, λ_t) first. With a classical
    /// router configured the policy is ignored (forwards to step_router).
    EpochStats step(const UpperLevelPolicy& policy, Rng& rng);

    /// Full episode from reset state, with the sojourn percentiles of the
    /// cross-shard-merged histogram attached.
    DesEpisodeStats run_episode(const UpperLevelPolicy& policy, Rng& rng);
    /// Router-only episode (requires a classical router configured).
    DesEpisodeStats run_episode(Rng& rng);

    /// Sojourn times of every job completed since the last reset, summed
    /// over the shards' histograms (exact integer merge; empty unless
    /// `track_sojourn`). A percentile of sojourns in [2^-20, 2^20) is within
    /// 2^-7 relative error of the exact nearest-rank sample quantile.
    LogLinearHistogram sojourn_histogram() const;
    /// p99 of `sojourn_histogram()` (one merge; read p50/p95/p99 together
    /// from `sojourn_histogram()` or `DesEpisodeStats`).
    double sojourn_p99() const { return sojourn_histogram().quantile(0.99); }

    /// Cumulative wall-clock split of the epoch since the last reset — the
    /// Amdahl accounting that `bench_des_scale` reports. Three components:
    /// the serial prologue (policy query, routing law, per-shard masses and
    /// their caller-RNG draws), the parallel shard event loops, and the
    /// reduction tail (tree fold + fixed-order floating-point pass + λ
    /// advance). The serial fraction is serial_seconds() / total_seconds().
    struct BarrierProfile {
        double serial_prologue_seconds = 0.0; ///< the whole pre-parallel barrier.
        double reduction_seconds = 0.0;       ///< reduction + λ advance.
        double parallel_seconds = 0.0;        ///< shard event loops (wall clock).
        std::uint64_t epochs = 0;             ///< epochs accumulated.

        double serial_seconds() const noexcept {
            return serial_prologue_seconds + reduction_seconds;
        }
        double total_seconds() const noexcept { return serial_seconds() + parallel_seconds; }
    };
    const BarrierProfile& barrier_profile() const noexcept { return profile_; }

protected:
    /// Grows the registry's slot lanes to K and registers the per-shard
    /// event counter plus the barrier-profile gauges.
    void on_telemetry_attached() override;
    /// Queue-length summary from the reduced histogram, sojourn percentiles
    /// of the cross-shard-merged histogram, and the cumulative barrier
    /// profile.
    void append_epoch_telemetry(MetricsRow& row) override;

private:
    /// All state one shard touches during the parallel phase. Shards never
    /// read or write each other's `Shard` (nor each other's slices of the
    /// global queue/job arrays), which is what makes the phase lock-free.
    struct Shard {
        std::size_t begin = 0;            ///< first owned queue index.
        std::size_t end = 0;              ///< past-the-end queue index.
        EventQueue fel;                   ///< one departure slot per owned queue.
        double next_arrival = 0.0;        ///< the thinned arrival stream's next
                                          ///< event (+inf while parked); a
                                          ///< departure wins an exact tie.
        Rng rng{0};                       ///< fork(shard_id) stream, reset-owned.
        std::vector<int> state_counts;    ///< local histogram over Z.
        std::size_t hot_hi = 0;           ///< 1 + highest occupied state index:
                                          ///< state_counts[z] == 0 for z >= hot_hi,
                                          ///< so reductions stop at the high-water
                                          ///< mark instead of walking all of Z.
        std::vector<double> cum;          ///< local destination prefix sums
                                          ///< (empty under the class sampler).
        GuideTable guide;                 ///< indexed search over `cum`, rebuilt
                                          ///< each epoch (buckets reserved once).
        double total_weight = 0.0;        ///< routing mass W_s.
        double arrival_rate = 0.0;        ///< thinned Poisson rate M·λ_t·W_s/W.
        std::uint64_t clients = 0;        ///< N_s (Aggregated only).
        std::int64_t total_jobs = 0;      ///< Σ z_j over owned queues.
        std::size_t busy_queues = 0;      ///< #{j owned : z_j > 0}.
        double cursor = 0.0;              ///< last area-integration time.
        double job_area = 0.0;            ///< ∫ Σ z_j dτ within the epoch.
        double busy_area = 0.0;           ///< ∫ #busy dτ within the epoch.
        EpochStats stats;                 ///< this epoch's local counters.
        std::size_t rr_next = 0;          ///< shard-local round-robin cursor.
        /// Local sojourn times; null unless track_sojourn, so shards of an
        /// untracked fleet stay small. Merged across shards on read.
        std::unique_ptr<LogLinearHistogram> sojourn;
        // Class sampler (InfiniteClients without a router), kept after the
        // fields every model's event loop touches: local ids grouped by
        // snapshot class, members[class_begin[z] .. class_begin[z+1]) in
        // class z; between epochs every queue sits in its live class.
        std::vector<std::uint32_t> members;     ///< local ids, grouped by class.
        std::vector<std::uint32_t> pos;         ///< members[pos[i]] == i.
        std::vector<std::uint32_t> class_begin; ///< |Z| + 1 fence posts.
        std::vector<double> class_cum;          ///< partial sums of c_s[z]·w(z).
        std::size_t class_last = 0;             ///< last class with positive mass.
        std::vector<std::uint32_t> dirty;       ///< queues touched this epoch;
                                                ///< capacity n_local, reserved once.
        std::vector<bool> is_dirty;             ///< membership flags of `dirty`.

        Shard(std::size_t num_local_queues, std::size_t num_states, bool class_sampler)
            : fel(num_local_queues), state_counts(num_states, 0) {
            if (class_sampler) {
                members.resize(num_local_queues);
                pos.resize(num_local_queues);
                class_begin.assign(num_states + 1, 0);
                class_cum.assign(num_states, 0.0);
                dirty.reserve(num_local_queues);
                is_dirty.assign(num_local_queues, false);
            } else {
                cum.assign(num_local_queues, 0.0);
                guide.reserve(num_local_queues);
            }
        }
    };

    /// Barrier phase 1: routing weights, per-shard masses/rates, shard
    /// client totals — everything the parallel phase consumes read-only.
    /// Policy path only: never called with a classical router configured.
    void begin_epoch(const DecisionRule& h, Rng& rng);
    /// hist_ from the reduced state counts, then the routing table and its
    /// fold: the per-state destination sums Σ_k g(k, z), O(d·|Z|^d).
    std::span<const double> destination_sums(const DecisionRule& h);
    /// Prefix-sum barrier piece (Aggregated): realizes the per-queue
    /// destination law (the O(M) gather and per-shard `vec_sum` masses
    /// fanned out over the pool — each shard task writes only its own
    /// `dest_p_` slice and mass slot) and returns the total mass as the
    /// fixed-order K-term sum, bit-identical to `partition_shard_mass` over
    /// the full law.
    double destination_law_shard_masses(const DecisionRule& h);
    /// Class-sampler barrier piece: W_s = Σ_z c_s[z]·scaled_sums_[z] in fixed
    /// z order from each shard's snapshot class counts, with the partial sums
    /// the arrival sampler scans; returns the fixed-order K-term total.
    /// O(K·|Z|).
    double class_shard_masses();
    /// Counting sort of the shard's local ids by state into members/pos/
    /// class_begin (reset only).
    void build_classes(Shard& shard);
    /// End of a shard's epoch: moves every dirty queue from its snapshot
    /// class to its live class by adjacent-boundary swaps (|Δz| swaps each)
    /// and clears the dirty list.
    void fix_up_classes(Shard& shard);
    /// One arrival's destination under the class sampler: a class with
    /// probability c_s[z]·w(z)/W_s, then a uniform member of it.
    static std::size_t sample_class_member(Shard& shard) noexcept;
    /// Records a state change of local queue `local` for the epoch-end class
    /// fix-up. First touch only, so the list never outgrows its reserved
    /// n_local capacity and the event loop never allocates.
    static void mark_dirty(Shard& shard, std::size_t local) {
        if (!shard.is_dirty[local]) {
            shard.is_dirty[local] = true;
            shard.dirty.push_back(static_cast<std::uint32_t>(local));
        }
    }
    /// Router variant of the barrier phase: weight law → shard masses.
    /// Consumes no RNG draws (the classical weight laws are deterministic
    /// functions of the snapshot).
    void begin_epoch_router();
    /// One epoch around a barrier prologue (begin_epoch or
    /// begin_epoch_router): times and traces it as `barrier_prologue`, then
    /// runs the parallel shard loops, the fixed-order reduction and the λ
    /// advance.
    template <typename Prologue>
    EpochStats run_epoch(Prologue&& prologue, Rng& rng);
    /// Parallel phase: shard s's epoch on [epoch_start, epoch_end).
    void run_shard_epoch(std::size_t s, double epoch_start, double epoch_end);
    /// Barrier phase 2: fixed-order reduction into the epoch's EpochStats
    /// and the global state-count histogram.
    EpochStats reduce_epoch();
    /// Folds the pairwise tree level by level (the first step of
    /// reduce_epoch; K > 1 only).
    void fold_tree_levels();
    /// Combines tree node (level, i) from its children (shards at level 0).
    /// Writes only the node's own slot; integer payloads, so the call order
    /// within a level is immaterial.
    void combine_node(std::size_t level, std::size_t i);
    /// Cached per-policy scratch, keyed by policy identity so alternating
    /// policies (eval-during-train A/B/A) reuse both workspaces instead of
    /// rebuilding on every switch. Entries live until reset().
    UpperLevelPolicy::Scratch* scratch_for(const UpperLevelPolicy& policy);

    void handle_arrival(Shard& shard, double t);
    void handle_departure(Shard& shard, std::size_t local_id, double t);

    /// One service time at queue j from the shard's own stream:
    /// `ServiceDistribution` sample divided by the queue's speed (1 when
    /// homogeneous). Exponential + homogeneous is exactly an
    /// `rng.exponential(α)` draw.
    double service_time(std::size_t j, Rng& rng) const noexcept {
        const double s = service_.sample(rng);
        return config_.server_speeds.empty() ? s : s / config_.server_speeds[j];
    }

    /// `episode` with p50/p95/p99 of one `sojourn_histogram()` merge (0
    /// unless track_sojourn).
    DesEpisodeStats with_sojourn_percentiles(const EpisodeStats& episode) const;
    /// `observed_distribution` into a reusable buffer (identical draws).
    void observed_distribution_into(Rng& rng, std::vector<double>& out) const;

    /// One node of the pairwise reduction tree. Only integer-exact payloads
    /// travel through the tree (state counts, packet counters) so the combine
    /// order within a level cannot perturb results; `counts` entries at and
    /// above `hi` are stale leftovers from earlier epochs and are never read.
    struct ReduceNode {
        explicit ReduceNode(std::size_t num_states) : counts(num_states, 0) {}
        std::vector<int> counts;
        std::size_t hi = 0;
        std::uint64_t dropped = 0;
        std::uint64_t accepted = 0;
        std::uint64_t served = 0;
        std::uint64_t completed = 0;
    };

    FiniteSystemConfig config_;
    TupleSpace space_;
    EpochRouter router_;
    ServiceDistribution service_;
    std::size_t threads_ = 0;
    /// InfiniteClients without a router: arrivals use the two-stage class
    /// sampler instead of per-queue prefix sums (see file comment).
    bool class_sampler_ = false;

    std::vector<Shard> shards_;
    std::vector<std::size_t> shard_begin_; ///< K+1 fence posts over [0, M].

    // Fixed-shape pairwise reduction tree over the K shards: level widths
    // K, ⌈K/2⌉, …, 1, flattened into `tree_` with `tree_off_[l]` the offset
    // of level l's first node (empty when K == 1). `level_width_[l]` is the
    // *input* width of level l (K, then ⌈K/2⌉, …).
    std::vector<ReduceNode> tree_;
    std::vector<std::size_t> tree_off_;
    std::vector<std::size_t> level_width_;
    std::size_t state_hi_ = 0; ///< valid extent of state_counts_; zeros above.

    // Global barrier-phase state.
    std::vector<int> state_counts_;        ///< cross-shard reduction (|Z|).
    std::vector<double> hist_;             ///< H over Z at epoch start.
    std::vector<double> g_;                ///< routing table g[k·|Z| + z].
    std::vector<int> tuple_;               ///< decode buffer (d).
    std::vector<double> suffix_;           ///< suffix products (d + 1).
    std::vector<double> dest_p_;           ///< per-queue weights (M): the
                                           ///< Aggregated law or a weight-law
                                           ///< router's; empty otherwise.
    std::vector<double> scaled_sums_;      ///< (1/M)·folded routing sums (|Z|):
                                           ///< the per-class weights w(z) of the
                                           ///< InfiniteClients class sampler.
    std::vector<std::uint64_t> counts_;    ///< per-queue client counts (M).
    std::vector<int> sampled_;             ///< PerClient sampled queues (d).
    std::vector<int> states_;              ///< their snapshot states (d).
    std::vector<double> shard_mass_;       ///< per-shard routing mass (K).
    std::vector<std::uint64_t> shard_clients_; ///< per-shard N_s (K).

    // Per-job sojourn tracking (track_sojourn only; empty otherwise): one
    // flat M×B timestamp store whose row j is touched only by the shard
    // owning queue j.
    JobTimestampSlab jobs_;

    BarrierProfile profile_;

    // Telemetry (support/telemetry.hpp). Each shard task feeds the event
    // counter's own slot lane once per epoch (wait-free, no RNG, folded in
    // fixed slot order at the barrier), so enabling metrics never couples
    // shards or perturbs the (seed, K) determinism contract. `tracer_` is
    // null whenever spans are disabled — ScopedSpan then costs one branch.
    trace::Tracer* tracer_ = nullptr;
    MetricsRegistry* shard_registry_ = nullptr;
    MetricsRegistry::Id shard_events_id_ = 0;
    MetricsRegistry::Id barrier_prologue_id_ = 0;
    MetricsRegistry::Id barrier_reduce_id_ = 0;
    MetricsRegistry::Id barrier_parallel_id_ = 0;

    // Policy-query hot path: reusable observation / rule buffers plus a
    // per-policy scratch cache keyed by policy identity (a linear scan over
    // the handful of policies a caller alternates between), so the A/B/A
    // eval-during-train pattern reuses both GEMM workspaces instead of
    // thrashing them. Entries are dropped on reset(); callers must not
    // destroy a policy mid-episode (same lifetime rule as before).
    std::vector<double> obs_;
    DecisionRule rule_;
    struct ScratchEntry {
        const UpperLevelPolicy* policy = nullptr;
        std::unique_ptr<UpperLevelPolicy::Scratch> scratch;
    };
    std::vector<ScratchEntry> policy_scratches_;
};

} // namespace mflb
