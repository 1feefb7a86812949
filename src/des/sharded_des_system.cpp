#include "des/sharded_des_system.hpp"

#include "field/arrival_flow.hpp"
#include "math/vec_ops.hpp"
#include "support/thread_pool.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <limits>
#include <span>
#include <stdexcept>

namespace mflb {

namespace {

/// Below this many combined histogram entries per tree level the pool
/// fan-out costs more than the adds; the gate depends only on (K, |Z|), so
/// the schedule stays a pure function of the configuration.
constexpr std::size_t kMinParallelReduceWork = std::size_t{1} << 14;

/// Largest shard: the shard FEL stores heap positions as uint32 with one
/// reserved value, and the class sampler stores local ids and class fence
/// posts as uint32.
constexpr std::size_t kMaxShardQueues = (std::size_t{1} << 32) - 2;

/// K: the configured shard count (0 = the fixed default), clamped to M.
std::size_t shard_count(const FiniteSystemConfig& config) {
    const std::size_t k = config.shards == 0 ? ShardedDesSystem::kDefaultShards : config.shards;
    return std::max<std::size_t>(1, std::min(k, config.num_queues));
}

/// M, once the largest shard (⌈M/K⌉ queues) is known to fit the 32-bit local
/// id range — checked before the base class allocates the queue array.
std::size_t checked_num_queues(const FiniteSystemConfig& config) {
    const std::size_t m = config.num_queues;
    const std::size_t k = shard_count(config);
    if (m / k + (m % k != 0 ? 1 : 0) > kMaxShardQueues) {
        throw std::invalid_argument(
            "ShardedDesSystem: a shard exceeds the 32-bit local id range (raise shards)");
    }
    return m;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// out[0, max_hi) = a + b on the shared prefix, then the taller child's
/// tail. Entries at and above max_hi are left stale — both children are
/// all-zero there by the high-water invariant, and readers never look.
void combine_counts(std::vector<int>& out, std::size_t& out_hi, const std::vector<int>& a,
                    std::size_t a_hi, const std::vector<int>& b, std::size_t b_hi) {
    const std::size_t lo = std::min(a_hi, b_hi);
    const std::size_t hi = std::max(a_hi, b_hi);
    for (std::size_t z = 0; z < lo; ++z) {
        out[z] = a[z] + b[z];
    }
    const std::vector<int>& tall = a_hi >= b_hi ? a : b;
    std::copy(tall.begin() + static_cast<std::ptrdiff_t>(lo),
              tall.begin() + static_cast<std::ptrdiff_t>(hi),
              out.begin() + static_cast<std::ptrdiff_t>(lo));
    out_hi = hi;
}

} // namespace

ShardedDesSystem::ShardedDesSystem(FiniteSystemConfig config)
    : SystemBase(config.arrivals, config.dt, config.horizon, checked_num_queues(config)),
      config_(std::move(config)), space_(config_.queue.num_states(), config_.d),
      router_(config_.router, config_.num_queues,
              static_cast<std::size_t>(config_.queue.num_states()), config_.dt),
      service_(config_.service, config_.queue.service_rate), threads_(config_.threads),
      class_sampler_(config_.client_model == ClientModel::InfiniteClients && !router_.active()),
      rule_(space_) {
    if (config_.num_clients == 0 && config_.client_model != ClientModel::InfiniteClients) {
        throw std::invalid_argument("ShardedDesSystem: need at least one client");
    }
    if (!config_.server_speeds.empty()) {
        if (config_.server_speeds.size() != config_.num_queues) {
            throw std::invalid_argument("ShardedDesSystem: server_speeds size mismatch");
        }
        for (const double s : config_.server_speeds) {
            if (!(s > 0.0)) {
                throw std::invalid_argument("ShardedDesSystem: server speeds must be > 0");
            }
        }
    }
    if (config_.nu0.empty()) {
        config_.nu0.assign(static_cast<std::size_t>(config_.queue.num_states()), 0.0);
        config_.nu0[0] = 1.0;
    }
    if (config_.nu0.size() != static_cast<std::size_t>(config_.queue.num_states())) {
        throw std::invalid_argument("ShardedDesSystem: nu0 size mismatch");
    }
    const auto num_z = static_cast<std::size_t>(config_.queue.num_states());
    const auto d = static_cast<std::size_t>(config_.d);
    const std::size_t m = config_.num_queues;

    // Shard partition: K contiguous near-equal blocks (the first M mod K
    // shards get one extra queue). K is clamped to M; the default is fixed
    // (not hardware-derived) so (seed, K) fully determines results.
    const std::size_t k = shard_count(config_);
    shard_begin_.resize(k + 1);
    const std::size_t base = m / k;
    const std::size_t extra = m % k;
    shard_begin_[0] = 0;
    for (std::size_t s = 0; s < k; ++s) {
        shard_begin_[s + 1] = shard_begin_[s] + base + (s < extra ? 1 : 0);
    }
    shards_.reserve(k);
    for (std::size_t s = 0; s < k; ++s) {
        const std::size_t n_local = shard_begin_[s + 1] - shard_begin_[s];
        shards_.emplace_back(n_local, num_z, class_sampler_);
        shards_.back().begin = shard_begin_[s];
        shards_.back().end = shard_begin_[s + 1];
    }

    state_counts_.assign(num_z, 0);
    state_hi_ = num_z;
    shard_mass_.assign(k, 0.0);

    // Reduction-tree shape (level widths K, ⌈K/2⌉, …, 1) is fixed by K
    // alone, never by thread count; K == 1 reduces straight off the shard.
    std::size_t width = k;
    while (width > 1) {
        const std::size_t next = (width + 1) / 2;
        tree_off_.push_back(tree_.size());
        level_width_.push_back(width);
        for (std::size_t i = 0; i < next; ++i) {
            tree_.emplace_back(num_z);
        }
        width = next;
    }
    // The routing table serves both the Aggregated client counts and the
    // InfiniteClients per-job law (thinned per shard). The class sampler
    // reads the |Z|-sized scaled_sums_ instead of a per-queue law.
    if (config_.client_model != ClientModel::PerClient) {
        hist_.assign(num_z, 0.0);
        g_.assign(d * num_z, 0.0);
        tuple_.assign(d, 0);
        suffix_.assign(d + 1, 1.0);
    }
    if (class_sampler_) {
        scaled_sums_.assign(num_z, 0.0);
    }
    // Per-queue weights: the Aggregated destination law, or a classical
    // weight-law router's weights (round-robin needs none). A router
    // replaces the policy path, so the two never share the buffer.
    if (router_.active() ? router_.kind() != RouterKind::RoundRobin
                         : config_.client_model == ClientModel::Aggregated) {
        dest_p_.assign(m, 0.0);
    }
    if (config_.client_model != ClientModel::InfiniteClients) {
        counts_.assign(m, 0);
    }
    if (config_.client_model == ClientModel::PerClient) {
        sampled_.assign(d, 0);
        states_.assign(d, 0);
    }
    if (config_.client_model == ClientModel::Aggregated) {
        shard_clients_.assign(k, 0);
    }
    if (config_.track_sojourn) {
        jobs_ = JobTimestampSlab(m, config_.queue.buffer);
        for (Shard& shard : shards_) {
            shard.sojourn = std::make_unique<LogLinearHistogram>();
        }
    }
    telemetry_series_ = "sharded_epoch";
    if (config_.telemetry != nullptr) {
        set_telemetry(config_.telemetry);
    }
}

void ShardedDesSystem::on_telemetry_attached() {
    tracer_ = session_tracer(telemetry_);
    shard_registry_ = nullptr;
    if (telemetry_ != nullptr && telemetry_->metrics_enabled()) {
        MetricsRegistry& registry = telemetry_->registry();
        registry.ensure_slots(shards_.size());
        shard_events_id_ = registry.counter("des_events_total");
        barrier_prologue_id_ = registry.gauge("barrier_prologue_seconds");
        barrier_reduce_id_ = registry.gauge("barrier_reduce_seconds");
        barrier_parallel_id_ = registry.gauge("barrier_parallel_seconds");
        shard_registry_ = &registry;
    }
}

void ShardedDesSystem::append_epoch_telemetry(MetricsRow& row) {
    const auto m = static_cast<double>(queues_.size());
    row.push("qlen_empty_frac", static_cast<double>(state_counts_[0]) / m);
    row.push("qlen_full_frac",
             static_cast<double>(state_counts_[state_counts_.size() - 1]) / m);
    std::size_t hi = state_hi_;
    while (hi > 1 && state_counts_[hi - 1] == 0) {
        --hi;
    }
    row.push_int("qlen_max", static_cast<std::int64_t>(hi - 1));
    if (config_.track_sojourn) {
        const DesEpisodeStats sojourn = with_sojourn_percentiles({});
        row.push("sojourn_p50", sojourn.sojourn_p50);
        row.push("sojourn_p95", sojourn.sojourn_p95);
        row.push("sojourn_p99", sojourn.sojourn_p99);
    }
    row.push_int("shards", static_cast<std::int64_t>(shards_.size()));
    // The barrier profile rides the registry (appended after this hook), so
    // the Amdahl split lands in the same row as the queueing metrics.
    shard_registry_->set(barrier_prologue_id_, profile_.serial_prologue_seconds);
    shard_registry_->set(barrier_reduce_id_, profile_.reduction_seconds);
    shard_registry_->set(barrier_parallel_id_, profile_.parallel_seconds);
}

void ShardedDesSystem::reset(Rng& rng) {
    for (int& z : queues_) {
        z = static_cast<int>(rng.categorical(config_.nu0));
    }
    reset_base(rng);
    router_.reset();

    if (config_.track_sojourn) {
        jobs_.reset(queues_, 0.0);
    }

    std::fill(state_counts_.begin(), state_counts_.end(), 0);
    state_hi_ = state_counts_.size();
    profile_ = BarrierProfile{};
    policy_scratches_.clear();
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        Shard& shard = shards_[s];
        // One independent O(1)-derived stream per shard: fork(s) never
        // consumes caller draws, and the shard id (not the thread) owns it.
        shard.rng = rng.fork(s);
        shard.fel.clear();
        std::fill(shard.state_counts.begin(), shard.state_counts.end(), 0);
        shard.hot_hi = 1;
        shard.total_jobs = 0;
        shard.busy_queues = 0;
        shard.cursor = 0.0;
        shard.rr_next = 0;
        if (shard.sojourn) {
            shard.sojourn->clear();
        }
        for (std::size_t j = shard.begin; j < shard.end; ++j) {
            const int z = queues_[j];
            ++shard.state_counts[static_cast<std::size_t>(z)];
            shard.hot_hi = std::max(shard.hot_hi, static_cast<std::size_t>(z) + 1);
            shard.total_jobs += z;
            if (z > 0) {
                ++shard.busy_queues;
                shard.fel.schedule(j - shard.begin, service_time(j, shard.rng));
            }
        }
        for (std::size_t z = 0; z < state_counts_.size(); ++z) {
            state_counts_[z] += shard.state_counts[z];
        }
        if (class_sampler_) {
            build_classes(shard);
        }
    }
}

void ShardedDesSystem::build_classes(Shard& shard) {
    // Counting sort. class_begin[z + 1] first holds class z's start and
    // serves as its write cursor; once the scatter has filled class z it
    // holds class z's end, which is class z + 1's start.
    const std::size_t num_z = shard.state_counts.size();
    shard.class_begin[0] = 0;
    std::uint32_t start = 0;
    for (std::size_t z = 0; z < num_z; ++z) {
        shard.class_begin[z + 1] = start;
        start += static_cast<std::uint32_t>(shard.state_counts[z]);
    }
    const std::size_t n = shard.end - shard.begin;
    for (std::size_t local = 0; local < n; ++local) {
        const auto z = static_cast<std::size_t>(queues_[shard.begin + local]);
        const std::uint32_t p = shard.class_begin[z + 1]++;
        shard.members[p] = static_cast<std::uint32_t>(local);
        shard.pos[local] = p;
    }
    assert(shard.dirty.empty()); // every epoch ends with its fix-up.
}

void ShardedDesSystem::fix_up_classes(Shard& shard) {
    const auto swap_slots = [&shard](std::uint32_t p, std::uint32_t q) {
        const std::uint32_t a = shard.members[p];
        const std::uint32_t b = shard.members[q];
        shard.members[p] = b;
        shard.members[q] = a;
        shard.pos[b] = p;
        shard.pos[a] = q;
    };
    for (const std::uint32_t local : shard.dirty) {
        shard.is_dirty[local] = false;
        const auto live = static_cast<std::size_t>(queues_[shard.begin + local]);
        // Snapshot class: the z with class_begin[z] <= pos < class_begin[z+1]
        // (the last fence post at or below pos, skipping empty classes).
        std::uint32_t p = shard.pos[local];
        std::size_t z = static_cast<std::size_t>(
            std::upper_bound(shard.class_begin.begin(), shard.class_begin.end(), p) -
            shard.class_begin.begin() - 1);
        // Up one class: swap into class z's last slot, then lower the fence
        // so that slot opens class z + 1. Down: swap into class z's first
        // slot, then raise the fence so it closes class z - 1.
        while (z < live) {
            const std::uint32_t last = --shard.class_begin[z + 1];
            swap_slots(p, last);
            p = last;
            ++z;
        }
        while (z > live) {
            const std::uint32_t first = shard.class_begin[z]++;
            swap_slots(p, first);
            p = first;
            --z;
        }
    }
    shard.dirty.clear();
    for (std::size_t z = 0; z < shard.state_counts.size(); ++z) {
        assert(shard.class_begin[z + 1] - shard.class_begin[z] ==
               static_cast<std::uint32_t>(shard.state_counts[z]));
    }
}

void ShardedDesSystem::reset_conditioned(std::vector<std::size_t> lambda_states, Rng& rng) {
    reset(rng);
    condition_on(std::move(lambda_states));
}

std::vector<double> ShardedDesSystem::empirical_distribution() const {
    return histogram_from_counts(state_counts_, queues_.size());
}

std::vector<double> ShardedDesSystem::observed_distribution(Rng& rng) const {
    if (config_.histogram_sample_size == 0) {
        return empirical_distribution();
    }
    return sampled_histogram(queues_, state_counts_.size(), config_.histogram_sample_size,
                             rng);
}

void ShardedDesSystem::begin_epoch(const DecisionRule& h, Rng& rng) {
    trace::ScopedSpan span(tracer_, "destination_law");
    const std::size_t m = queues_.size();
    const double total_rate = static_cast<double>(m) * lambda_value();

    switch (config_.client_model) {
    case ClientModel::PerClient: {
        // Literal Algorithm 1 on the epoch-start snapshot (serial: the draw
        // sequence is part of the (seed, K) contract, not the thread count).
        sample_per_client_counts(queues_, h, config_.num_clients, rng, sampled_, states_,
                                 counts_);
        const double total =
            partition_shard_mass(std::span<const std::uint64_t>(counts_), shard_begin_,
                                 shard_mass_);
        for (std::size_t s = 0; s < shards_.size(); ++s) {
            shards_[s].arrival_rate =
                total > 0.0 ? total_rate * shard_mass_[s] / total : 0.0;
        }
        break;
    }
    case ClientModel::Aggregated: {
        // Hierarchical multinomial: the barrier draws the shard totals
        // N_s ~ Multinomial(N, P_s); each shard later draws its own queues'
        // counts Multinomial(N_s, p_j / P_s) from its own stream. Jointly
        // exactly Multinomial(N, p) — FiniteSystem's aggregation.
        const double total = destination_law_shard_masses(h);
        if (total > 0.0) {
            rng.multinomial(config_.num_clients, shard_mass_, total, shard_clients_);
        } else {
            std::fill(shard_clients_.begin(), shard_clients_.end(), 0);
        }
        const double inv_n = 1.0 / static_cast<double>(config_.num_clients);
        for (std::size_t s = 0; s < shards_.size(); ++s) {
            shards_[s].clients = shard_clients_[s];
            shards_[s].arrival_rate =
                total_rate * static_cast<double>(shard_clients_[s]) * inv_n;
        }
        break;
    }
    case ClientModel::InfiniteClients: {
        // The per-job destination law (1/M) Σ_k g(k, z_j) is exactly the law
        // of a job that samples d queues uniformly and applies the rule to
        // their frozen snapshot states; thinning it per shard is therefore
        // exact. No router is configured here, so the class sampler is
        // active.
        prescale_destination_sums(destination_sums(h), 1.0 / static_cast<double>(m),
                                  scaled_sums_);
        const double total = class_shard_masses();
        for (std::size_t s = 0; s < shards_.size(); ++s) {
            shards_[s].arrival_rate =
                total > 0.0 ? total_rate * shard_mass_[s] / total : 0.0;
        }
        break;
    }
    }
}

std::span<const double> ShardedDesSystem::destination_sums(const DecisionRule& h) {
    const double inv_m = 1.0 / static_cast<double>(queues_.size());
    for (std::size_t z = 0; z < hist_.size(); ++z) {
        hist_[z] = inv_m * static_cast<double>(state_counts_[z]);
    }
    compute_routing_table_into(hist_, h, tuple_, suffix_, g_);
    return fold_routing_table_rows(g_, hist_.size(), config_.d);
}

double ShardedDesSystem::destination_law_shard_masses(const DecisionRule& h) {
    const double inv_m = 1.0 / static_cast<double>(queues_.size());
    // The O(d·|Z|^d) routing table and its O(d·|Z|) fold stay serial; the
    // O(M) per-queue gather and the per-shard vec_sum masses fan out over
    // the pool. Each task writes only its own dest_p_ slice and mass slot,
    // and the values match the full-span gather element for element, so the
    // result is identical at any thread count — and bit-identical to the
    // historical compute_destination_law_into + partition_shard_mass pair.
    const std::span<const double> sums = destination_sums(h);
    parallel_for(
        shards_.size(),
        [&](std::size_t s) {
            const std::size_t begin = shard_begin_[s];
            const std::size_t n = shard_begin_[s + 1] - begin;
            gather_scale(std::span<const int>(queues_.data() + begin, n), sums, inv_m,
                         std::span<double>(dest_p_.data() + begin, n));
            shard_mass_[s] =
                vec_sum(std::span<const double>(dest_p_.data() + begin, n));
        },
        threads_);
    double total = 0.0;
    for (const double mass : shard_mass_) { // fixed K-term order, as before.
        total += mass;
    }
    return total;
}

double ShardedDesSystem::class_shard_masses() {
    // The shard's state counts at the barrier are its snapshot class sizes
    // (fix_up_classes asserts they match class_begin). O(K·|Z|), serial.
    double total = 0.0;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        Shard& shard = shards_[s];
        double mass = 0.0;
        shard.class_last = 0;
        for (std::size_t z = 0; z < scaled_sums_.size(); ++z) {
            const double w = static_cast<double>(shard.state_counts[z]) * scaled_sums_[z];
            mass += w;
            shard.class_cum[z] = mass;
            if (w > 0.0) {
                shard.class_last = z;
            }
        }
        shard.total_weight = mass;
        shard_mass_[s] = mass;
        total += mass; // fixed K-term order.
    }
    return total;
}

std::size_t ShardedDesSystem::sample_class_member(Shard& shard) noexcept {
    // Zero-mass classes never stop the scan (their partial sum equals the
    // previous one, already <= target); a rounding overshoot past the last
    // partial sum lands on the last class with positive mass.
    const double target = shard.rng.uniform() * shard.total_weight;
    std::size_t z = 0;
    while (z < shard.class_last && !(target < shard.class_cum[z])) {
        ++z;
    }
    const std::uint32_t first = shard.class_begin[z];
    const std::uint32_t size = shard.class_begin[z + 1] - first;
    return shard.members[first + shard.rng.uniform_below(size)];
}

void ShardedDesSystem::begin_epoch_router() {
    trace::ScopedSpan span(tracer_, "destination_law");
    const std::size_t m = queues_.size();
    const double total_rate = static_cast<double>(m) * lambda_value();

    if (router_.kind() == RouterKind::RoundRobin) {
        // Shard-local cyclic cursors over shard-size-proportional thinned
        // streams: each shard's cycle is near-deterministic at rate ∝ its
        // queue count, the epoch-scale equal-split behavior of round-robin.
        const double inv_m = 1.0 / static_cast<double>(m);
        for (Shard& shard : shards_) {
            shard.arrival_rate =
                total_rate * static_cast<double>(shard.end - shard.begin) * inv_m;
        }
        return;
    }
    // Weight law from the epoch-start snapshot, partitioned into shard
    // masses exactly like the policy path's destination law.
    router_.epoch_weights(queues_, time(), dest_p_);
    const double total =
        partition_shard_mass(std::span<const double>(dest_p_), shard_begin_, shard_mass_);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        shards_[s].arrival_rate = total > 0.0 ? total_rate * shard_mass_[s] / total : 0.0;
    }
}

void ShardedDesSystem::handle_arrival(Shard& shard, double t) {
    std::size_t local;
    if (class_sampler_) {
        local = sample_class_member(shard);
    } else if (router_.kind() == RouterKind::RoundRobin) {
        local = shard.rr_next;
        shard.rr_next = shard.rr_next + 1 == shard.cum.size() ? 0 : shard.rr_next + 1;
    } else {
        // Conditional destination law inside the shard: guide-table search
        // on the shard-local prefix sums (exact thinning of the global law).
        local = shard.guide.sample(shard.cum, shard.rng.uniform() * shard.total_weight);
    }
    const std::size_t j = shard.begin + local;
    if (queues_[j] < config_.queue.buffer) {
        const auto z = static_cast<std::size_t>(queues_[j]);
        --shard.state_counts[z];
        ++shard.state_counts[z + 1];
        shard.hot_hi = std::max(shard.hot_hi, z + 2);
        ++queues_[j];
        ++shard.total_jobs;
        ++shard.stats.accepted_packets;
        if (queues_[j] == 1) {
            ++shard.busy_queues;
            shard.fel.schedule(local, t + service_time(j, shard.rng));
        }
        if (config_.track_sojourn) {
            jobs_.row(j).push(t);
        }
        if (class_sampler_) {
            mark_dirty(shard, local);
        }
    } else {
        ++shard.stats.dropped_packets;
    }
    shard.next_arrival = t + shard.rng.exponential(shard.arrival_rate);
}

void ShardedDesSystem::handle_departure(Shard& shard, std::size_t local_id, double t) {
    const std::size_t j = shard.begin + local_id;
    const auto z = static_cast<std::size_t>(queues_[j]);
    --shard.state_counts[z];
    ++shard.state_counts[z - 1];
    --queues_[j];
    --shard.total_jobs;
    ++shard.stats.served_packets;
    if (class_sampler_) {
        mark_dirty(shard, local_id);
    }
    if (config_.track_sojourn) {
        const double sojourn = jobs_.row(j).pop(t);
        shard.stats.mean_sojourn += sojourn; // running sum; divided in reduce.
        ++shard.stats.completed_jobs;
        shard.sojourn->add(sojourn);
    }
    if (queues_[j] > 0) {
        // The departure event is still at the FEL front; move it to the next
        // completion in place instead of pop + insert.
        shard.fel.pop_and_reschedule(local_id, t + service_time(j, shard.rng));
    } else {
        shard.fel.pop();
        --shard.busy_queues;
    }
}

void ShardedDesSystem::run_shard_epoch(std::size_t s, double epoch_start, double epoch_end) {
    Shard& shard = shards_[s];
    const std::size_t local_n = shard.end - shard.begin;
    const std::uint64_t thin_begin = tracer_ != nullptr ? trace::now_ns() : 0;

    // Shard-local destination prefix sums for this epoch's routing weights,
    // realized with the vectorized scan (exact for the integer-count client
    // models; block-boundary reassociation only, and thread-count
    // independent, for the probability laws).
    if (router_.active()) {
        if (router_.kind() == RouterKind::RoundRobin) {
            // Cursor-routed: no prefix sums; a positive weight just keeps
            // the thinned arrival stream scheduled below.
            shard.total_weight = static_cast<double>(local_n);
        } else {
            inclusive_prefix_sum(
                std::span<const double>(dest_p_.data() + shard.begin, local_n),
                std::span<double>(shard.cum));
            shard.total_weight = shard.cum.back();
        }
    } else if (!class_sampler_) { // the class sampler's W_s is set at the barrier.
        if (config_.client_model == ClientModel::Aggregated) {
            const std::span<const double> weights(dest_p_.data() + shard.begin, local_n);
            const std::span<std::uint64_t> counts(counts_.data() + shard.begin, local_n);
            if (shard.clients > 0 && shard_mass_[s] > 0.0) {
                shard.rng.multinomial(shard.clients, weights, shard_mass_[s], counts);
            } else {
                std::fill(counts.begin(), counts.end(), 0);
            }
            inclusive_prefix_sum(std::span<const std::uint64_t>(counts),
                                 std::span<double>(shard.cum));
        } else { // PerClient
            inclusive_prefix_sum(
                std::span<const std::uint64_t>(counts_.data() + shard.begin, local_n),
                std::span<double>(shard.cum));
        }
        shard.total_weight = shard.cum.back();
    }

    // (Re)schedule the shard's thinned arrival stream: the pending
    // next-arrival was drawn under the previous epoch's rate and routing;
    // memorylessness makes cancel-and-redraw exact. Rate zero (no routing
    // mass in this shard) parks the stream at +inf.
    if (shard.arrival_rate > 0.0 && shard.total_weight > 0.0) {
        if (!class_sampler_ && router_.kind() != RouterKind::RoundRobin) {
            // One bucket per queue: a draw scans O(1) prefix sums, and the
            // build is one merge pass beside the prefix sum just taken.
            shard.guide.build(shard.cum, local_n);
        }
        shard.next_arrival = epoch_start + shard.rng.exponential(shard.arrival_rate);
    } else {
        shard.next_arrival = std::numeric_limits<double>::infinity();
    }
    if (tracer_ != nullptr) {
        tracer_->record("thinning", thin_begin, trace::now_ns());
    }
    trace::ScopedSpan advance_span(tracer_, "shard_advance");

    shard.cursor = epoch_start;
    shard.job_area = 0.0;
    shard.busy_area = 0.0;
    shard.stats = EpochStats{};
    const auto advance_to = [&shard](double t) {
        const double span = t - shard.cursor;
        if (span > 0.0) {
            shard.job_area += static_cast<double>(shard.total_jobs) * span;
            shard.busy_area += static_cast<double>(shard.busy_queues) * span;
            shard.cursor = t;
        }
    };
    // Next event: the earlier of the arrival timer and the FEL front. A
    // departure wins an exact tie, which is the (time, id) order of a FEL
    // holding the arrival stream under an id above every queue's. Departures
    // are peeked, not popped: the handler relocates (or pops) the front
    // event itself, so a queue that stays busy pays one in-place reschedule.
    while (true) {
        if (!shard.fel.empty()) {
            const EventQueue::Event front = shard.fel.peek();
            if (front.time <= shard.next_arrival) {
                if (front.time > epoch_end) {
                    break;
                }
                advance_to(front.time);
                handle_departure(shard, front.id, front.time);
                continue;
            }
        }
        const double t = shard.next_arrival;
        if (t > epoch_end) { // also ends the epoch when the stream is parked.
            break;
        }
        advance_to(t);
        handle_arrival(shard, t);
    }
    advance_to(epoch_end);
    // Lower the high-water mark past any emptied top states so the barrier
    // reduction walks only the occupied prefix next epoch.
    while (shard.hot_hi > 1 && shard.state_counts[shard.hot_hi - 1] == 0) {
        --shard.hot_hi;
    }
    if (class_sampler_) {
        fix_up_classes(shard); // the live states become next epoch's snapshot.
    }
    // One lane write per epoch (not per event): the shard owns slot s until
    // the barrier's merge_slots, so this stays wait-free and allocation-free.
    if (shard_registry_ != nullptr) {
        shard_registry_->add(shard_events_id_,
                             static_cast<double>(shard.stats.accepted_packets +
                                                 shard.stats.dropped_packets +
                                                 shard.stats.served_packets),
                             s);
    }
}

void ShardedDesSystem::combine_node(std::size_t level, std::size_t i) {
    // Combines node (level, i) from its two children — shards at level 0,
    // level-1 nodes above — or passes an orphan child through at odd widths.
    // The node writes only its own slot and sums integers, so the call order
    // within a level is immaterial.
    const std::size_t width = level_width_[level];
    ReduceNode& node = tree_[tree_off_[level] + i];
    const std::size_t a = 2 * i;
    const std::size_t b = a + 1;
    if (level == 0) {
        const Shard& sa = shards_[a];
        if (b < width) {
            const Shard& sb = shards_[b];
            combine_counts(node.counts, node.hi, sa.state_counts, sa.hot_hi,
                           sb.state_counts, sb.hot_hi);
            node.dropped = sa.stats.dropped_packets + sb.stats.dropped_packets;
            node.accepted = sa.stats.accepted_packets + sb.stats.accepted_packets;
            node.served = sa.stats.served_packets + sb.stats.served_packets;
            node.completed = sa.stats.completed_jobs + sb.stats.completed_jobs;
        } else { // odd level width: pass the orphan child through.
            std::copy_n(sa.state_counts.data(), sa.hot_hi, node.counts.data());
            node.hi = sa.hot_hi;
            node.dropped = sa.stats.dropped_packets;
            node.accepted = sa.stats.accepted_packets;
            node.served = sa.stats.served_packets;
            node.completed = sa.stats.completed_jobs;
        }
    } else {
        const ReduceNode* in = tree_.data() + tree_off_[level - 1];
        const ReduceNode& na = in[a];
        if (b < width) {
            const ReduceNode& nb = in[b];
            combine_counts(node.counts, node.hi, na.counts, na.hi, nb.counts, nb.hi);
            node.dropped = na.dropped + nb.dropped;
            node.accepted = na.accepted + nb.accepted;
            node.served = na.served + nb.served;
            node.completed = na.completed + nb.completed;
        } else {
            std::copy_n(na.counts.data(), na.hi, node.counts.data());
            node.hi = na.hi;
            node.dropped = na.dropped;
            node.accepted = na.accepted;
            node.served = na.served;
            node.completed = na.completed;
        }
    }
}

void ShardedDesSystem::fold_tree_levels() {
    // Integer payloads (state counts up to each shard's high-water mark,
    // packet counters) combine through the fixed-shape pairwise tree. Every
    // node writes only its own slot and sums integers, so fanning a level
    // out over the pool cannot perturb results; the size gate below depends
    // only on (K, |Z|), never on the thread count.
    const std::size_t num_z = state_counts_.size();
    for (std::size_t level = 0; level < tree_off_.size(); ++level) {
        const std::size_t next = (level_width_[level] + 1) / 2;
        if (next * num_z >= kMinParallelReduceWork) {
            parallel_for(
                next, [&](std::size_t i) { combine_node(level, i); }, threads_);
        } else {
            for (std::size_t i = 0; i < next; ++i) {
                combine_node(level, i);
            }
        }
    }
}

EpochStats ShardedDesSystem::reduce_epoch() {
    EpochStats stats;
    // Root readout: the single shard directly, or the folded tree root.
    std::size_t root_hi;
    if (shards_.size() == 1) {
        const Shard& shard = shards_[0];
        root_hi = shard.hot_hi;
        std::copy_n(shard.state_counts.data(), root_hi, state_counts_.data());
        stats.dropped_packets = shard.stats.dropped_packets;
        stats.accepted_packets = shard.stats.accepted_packets;
        stats.served_packets = shard.stats.served_packets;
        stats.completed_jobs = shard.stats.completed_jobs;
    } else {
        fold_tree_levels();
        const ReduceNode& root = tree_[tree_off_.back()];
        root_hi = root.hi;
        std::copy_n(root.counts.data(), root_hi, state_counts_.data());
        stats.dropped_packets = root.dropped;
        stats.accepted_packets = root.accepted;
        stats.served_packets = root.served;
        stats.completed_jobs = root.completed;
    }
    // Zero exactly the stale tail left by the previous (possibly taller)
    // histogram; entries at state_hi_ and above are already zero.
    if (state_hi_ > root_hi) {
        std::fill(state_counts_.begin() + static_cast<std::ptrdiff_t>(root_hi),
                  state_counts_.begin() + static_cast<std::ptrdiff_t>(state_hi_), 0);
    }
    state_hi_ = root_hi;

    // The floating-point accumulators keep their fixed serial shard order —
    // part of the determinism contract, and what keeps the golden sharded
    // trajectories bit-exact across this reduction's parallelization.
    double job_area = 0.0;
    double busy_area = 0.0;
    for (const Shard& shard : shards_) {
        stats.mean_sojourn += shard.stats.mean_sojourn;
        job_area += shard.job_area;
        busy_area += shard.busy_area;
    }
    const auto m = static_cast<double>(queues_.size());
    const double m_dt = m * config_.dt;
    stats.drops_per_queue = static_cast<double>(stats.dropped_packets) / m;
    stats.mean_queue_length = job_area / m_dt;
    stats.server_utilization = busy_area / m_dt;
    if (stats.completed_jobs > 0) {
        stats.mean_sojourn /= static_cast<double>(stats.completed_jobs);
    }
    return stats;
}

template <typename Prologue>
EpochStats ShardedDesSystem::run_epoch(Prologue&& prologue, Rng& rng) {
    const auto t0 = std::chrono::steady_clock::now();
    {
        trace::ScopedSpan span(tracer_, "barrier_prologue");
        prologue();
    }
    const double epoch_start = epoch_start_time();
    const double epoch_end = epoch_end_time();
    // The lock-free parallel phase: each shard task reads the barrier-phase
    // outputs and touches only its own state. Thread count never changes
    // which shard consumes which draws, only which core runs them.
    const auto t1 = std::chrono::steady_clock::now();
    parallel_for(
        shards_.size(), [&](std::size_t s) { run_shard_epoch(s, epoch_start, epoch_end); },
        threads_);
    const auto t2 = std::chrono::steady_clock::now();

    EpochStats stats;
    {
        trace::ScopedSpan span(tracer_, "reduction_tree");
        stats = reduce_epoch();
    }
    advance_epoch(rng);
    profile_.serial_prologue_seconds += std::chrono::duration<double>(t1 - t0).count();
    profile_.parallel_seconds += std::chrono::duration<double>(t2 - t1).count();
    profile_.reduction_seconds += seconds_since(t2);
    ++profile_.epochs;
    return stats;
}

EpochStats ShardedDesSystem::step_with_rule(const DecisionRule& h, Rng& rng) {
    if (router_.active()) {
        return step_router(rng);
    }
    if (done()) {
        throw std::logic_error("ShardedDesSystem::step: episode already finished");
    }
    if (!(h.space() == space_)) {
        throw std::invalid_argument("ShardedDesSystem::step: decision rule on wrong tuple space");
    }
    return run_epoch([&] { begin_epoch(h, rng); }, rng);
}

EpochStats ShardedDesSystem::step_router(Rng& rng) {
    if (!router_.active()) {
        throw std::logic_error(
            "ShardedDesSystem::step_router: no classical router configured");
    }
    if (done()) {
        throw std::logic_error("ShardedDesSystem::step: episode already finished");
    }
    return run_epoch([&] { begin_epoch_router(); }, rng);
}

EpochStats ShardedDesSystem::step(const UpperLevelPolicy& policy, Rng& rng) {
    if (router_.active()) {
        return step_router(rng);
    }
    if (done()) {
        throw std::logic_error("ShardedDesSystem::step: episode already finished");
    }
    // Batched epoch query into persistent buffers: the observation, the
    // policy's cached scratch (e.g. the neural policy's GEMM workspace), and
    // the realized rule are all reused across epochs — the policy query is
    // allocation-free at steady state. Identical draws and rule as the
    // decide() path (decide_into's contract).
    return run_epoch(
        [&] {
            {
                trace::ScopedSpan span(tracer_, "policy_query");
                observed_distribution_into(rng, obs_);
                policy.decide_into(obs_, lambda_state(), rng, scratch_for(policy), rule_);
            }
            begin_epoch(rule_, rng);
        },
        rng);
}

UpperLevelPolicy::Scratch* ShardedDesSystem::scratch_for(const UpperLevelPolicy& policy) {
    // Keyed scratch cache: a linear scan over the handful of policies a
    // caller alternates between (eval-during-train A/B/A), so switching back
    // to an already-seen policy reuses its warm workspace instead of
    // rebuilding it every call. nullptr entries (scratch-free policies) are
    // cached too, so repeated lookups stay allocation-free.
    for (ScratchEntry& entry : policy_scratches_) {
        if (entry.policy == &policy) {
            return entry.scratch.get();
        }
    }
    policy_scratches_.push_back({&policy, policy.make_scratch()});
    return policy_scratches_.back().scratch.get();
}

DesEpisodeStats ShardedDesSystem::run_episode(const UpperLevelPolicy& policy, Rng& rng) {
    return with_sojourn_percentiles(
        run_episode_loop(config_.discount, [&] { return step(policy, rng); }));
}

DesEpisodeStats ShardedDesSystem::run_episode(Rng& rng) {
    return with_sojourn_percentiles(
        run_episode_loop(config_.discount, [&] { return step_router(rng); }));
}

DesEpisodeStats ShardedDesSystem::with_sojourn_percentiles(const EpisodeStats& episode) const {
    DesEpisodeStats stats;
    static_cast<EpisodeStats&>(stats) = episode;
    if (config_.track_sojourn) {
        const LogLinearHistogram sojourn = sojourn_histogram();
        stats.sojourn_p50 = sojourn.quantile(0.50);
        stats.sojourn_p95 = sojourn.quantile(0.95);
        stats.sojourn_p99 = sojourn.quantile(0.99);
    }
    return stats;
}

LogLinearHistogram ShardedDesSystem::sojourn_histogram() const {
    LogLinearHistogram merged;
    for (const Shard& shard : shards_) {
        if (shard.sojourn) {
            merged.merge(*shard.sojourn);
        }
    }
    return merged;
}

void ShardedDesSystem::observed_distribution_into(Rng& rng, std::vector<double>& out) const {
    if (config_.histogram_sample_size == 0) {
        histogram_from_counts_into(state_counts_, queues_.size(), out);
        return;
    }
    sampled_histogram_into(queues_, state_counts_.size(), config_.histogram_sample_size, rng,
                           out);
}

} // namespace mflb
