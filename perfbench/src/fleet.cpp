/// fleet-sparse / fleet-dense: `ShardedDesSystem` stepped epoch by epoch
/// through `step(policy)` under a fixed JSQ(2) policy.
#include "workloads.hpp"

#include "des/sharded_des_system.hpp"
#include "field/arrival_flow.hpp"
#include "field/mfc_env.hpp"
#include "math/vec_ops.hpp"
#include "policies/fixed.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>

namespace perfbench {

using namespace mflb;

namespace {

// Rng::fork stream ids; every input of a run derives from (seed, stream).
constexpr std::uint64_t kEpisodeStream = 0;
constexpr std::uint64_t kSetupStream = 1'000'000;
constexpr std::uint64_t kWarmupStream = 2'000'000;
constexpr std::uint64_t kSpeedupStream = 3'000'000;

/// One batch of episodes and what was measured on it.
struct FleetBatch {
    std::vector<double> step_s;    ///< wall time of every step(policy) call.
    std::vector<double> episode_s; ///< stepping time of every episode.
    std::vector<double> episode_wall_s; ///< reset + stepping + check, per episode.
    std::uint64_t events = 0;      ///< arrivals (accepted + dropped) + departures.
    double wall_s = 0.0;           ///< whole batch: resets, episodes, checks.
    double replay_s = 0.0;         ///< traced mode: time spent in layer replays.
    std::uint64_t digest = 0;
    // Traced mode only: layer replays on the epoch's snapshot.
    std::vector<double> observe_s;
    std::vector<double> law_s;
    std::vector<double> prefix_s;
    std::vector<double> mfc_step_s;
};

/// Scratch for replaying the per-epoch O(M) passes outside the system.
struct ReplayBuffers {
    std::vector<int> tuple;
    std::vector<double> suffix;
    std::vector<double> g;
    std::vector<double> dest_p;
    std::vector<double> scaled;
    std::vector<double> prefix;

    ReplayBuffers(const TupleSpace& space, std::size_t queues)
        : tuple(static_cast<std::size_t>(space.d())),
          suffix(static_cast<std::size_t>(space.d()) + 1),
          g(static_cast<std::size_t>(space.d()) * static_cast<std::size_t>(space.num_states())),
          dest_p(queues),
          scaled(static_cast<std::size_t>(space.num_states())),
          prefix(queues) {}
};

MfcConfig mfc_config(const FleetSpec& spec) {
    MfcConfig config;
    config.dt = spec.dt;
    config.arrivals = ArrivalProcess::paper_two_state(spec.lambda_high, spec.lambda_low);
    config.horizon = spec.horizon;
    return config;
}

void add_epoch(Digest& digest, const EpochStats& s) {
    digest.add(s.drops_per_queue);
    digest.add(s.dropped_packets);
    digest.add(s.accepted_packets);
    digest.add(s.served_packets);
    digest.add(s.mean_queue_length);
    digest.add(s.server_utilization);
    digest.add(s.mean_sojourn);
    digest.add(s.completed_jobs);
}

/// Runs `episodes` episodes (stream ids kEpisodeStream + e) on `system`,
/// checking each; traced mode (`spans` enabled) also replays the epoch's
/// observation, destination law and prefix sum on the pre-step snapshot.
FleetBatch run_batch(ShardedDesSystem& system, const FleetSpec& spec,
                     const FixedRulePolicy& jsq, const Rng& master, std::size_t episodes,
                     SpanLog& spans, ReplayBuffers* replay, MfcEnv& mfc, Report& report) {
    FleetBatch batch;
    Digest digest;
    const std::size_t m = system.num_queues();
    const bool traced = spans.enabled();
    Rng replay_rng(0); // observed_distribution draws only under partial information.
    const Clock::time_point batch_t0 = Clock::now();
    for (std::size_t e = 0; e < episodes; ++e) {
        Rng rng = master.fork(kEpisodeStream + e);
        const Clock::time_point ep_t0 = Clock::now();
        const SpanLog::Id ep_span = spans.open("fleet.episode", 0, ep_t0);
        system.reset(rng);
        spans.record("des.reset", ep_span, ep_t0, Clock::now());

        std::vector<std::size_t> lambda_states;
        double expected_arrivals = 0.0;
        std::uint64_t arrivals = 0;
        double drops = 0.0;
        double stepping = 0.0;
        while (!system.done()) {
            lambda_states.push_back(system.lambda_state());
            expected_arrivals += static_cast<double>(m) * system.lambda_value() * spec.dt;
            if (traced && replay != nullptr &&
                system.time() % spec.replay_every == 0) {
                const Clock::time_point r0 = Clock::now();
                const std::vector<double> hist = system.observed_distribution(replay_rng);
                const Clock::time_point r1 = Clock::now();
                compute_destination_law_into(system.queue_states(), hist, jsq.rule(),
                                             replay->tuple, replay->suffix, replay->g,
                                             replay->dest_p);
                const Clock::time_point r2 = Clock::now();
                prescale_destination_sums(
                    std::span<const double>(replay->g).first(replay->scaled.size()),
                    1.0 / static_cast<double>(m), replay->scaled);
                gather_prefix_sum(system.queue_states(), replay->scaled, replay->prefix);
                const Clock::time_point r3 = Clock::now();
                spans.record("field.observe", ep_span, r0, r1);
                spans.record("field.routing_law", ep_span, r1, r2);
                spans.record("math.prefix_sum", ep_span, r2, r3);
                batch.observe_s.push_back(seconds_between(r0, r1));
                batch.law_s.push_back(seconds_between(r1, r2));
                batch.prefix_s.push_back(seconds_between(r2, r3));
                batch.replay_s += seconds_between(r0, r3);
            }
            const Clock::time_point t0 = Clock::now();
            const EpochStats stats = system.step(jsq, rng);
            const Clock::time_point t1 = Clock::now();
            spans.record("des.step", ep_span, t0, t1);
            const double s = seconds_between(t0, t1);
            batch.step_s.push_back(s);
            stepping += s;
            arrivals += stats.accepted_packets + stats.dropped_packets;
            batch.events += stats.accepted_packets + stats.dropped_packets + stats.served_packets;
            drops += stats.drops_per_queue;
            add_epoch(digest, stats);
        }
        batch.episode_s.push_back(stepping);

        // Output check of this episode (an operation).
        char detail[256];
        bool ok = false;
        if (spec.check == FleetCheck::PoissonArrivals) {
            const double z = (static_cast<double>(arrivals) - expected_arrivals) /
                             std::sqrt(expected_arrivals);
            ok = std::abs(z) <= 5.0;
            std::snprintf(detail, sizeof(detail),
                          "episode %zu: arrivals %llu vs Poisson mean %.1f (z = %.2f, |z| <= 5)",
                          e, static_cast<unsigned long long>(arrivals), expected_arrivals, z);
            report.check("poisson_arrivals", ok, detail);
        } else {
            const Clock::time_point c0 = Clock::now();
            mfc.reset_conditioned(lambda_states);
            Rng unused(0);
            double mfc_drops = 0.0;
            while (!mfc.done()) {
                const Clock::time_point s0 = Clock::now();
                mfc_drops += mfc.step(jsq.rule(), unused).drops;
                if (traced) {
                    batch.mfc_step_s.push_back(seconds_since(s0));
                }
            }
            spans.record("field.mfc_replay", ep_span, c0, Clock::now());
            const double rel = std::abs(drops - mfc_drops) / mfc_drops;
            const double p99 = system.sojourn_p99();
            ok = rel <= spec.theorem1_rel_tol && std::isfinite(p99) && p99 > 0.0;
            std::snprintf(detail, sizeof(detail),
                          "episode %zu: drops/queue %.4f vs conditioned MfcEnv %.4f "
                          "(rel %.4f <= %.2f); sojourn p99 %.4f finite and > 0",
                          e, drops, mfc_drops, rel, spec.theorem1_rel_tol, p99);
            report.check("theorem1_drops_and_sojourn", ok, detail);
            digest.add(p99);
        }
        ++report.attempted;
        report.failed += ok ? 0 : 1;
        const Clock::time_point ep_t1 = Clock::now();
        spans.close(ep_span, ep_t1);
        batch.episode_wall_s.push_back(seconds_between(ep_t0, ep_t1));
    }
    batch.wall_s = seconds_since(batch_t0);
    batch.digest = digest.value();
    return batch;
}


} // namespace

FleetSpec fleet_sparse_spec() {
    FleetSpec spec;
    spec.name = "fleet-sparse";
    spec.queues = 10'000'000;
    spec.client_model = ClientModel::InfiniteClients;
    spec.clients = 0;
    // Fixed total load of 750 jobs/unit spread over M queues: the Table-1
    // levels (0.9, 0.6) keep their ratio and modulation, scaled by 1/M.
    const double scale = 750.0 / (0.75 * static_cast<double>(spec.queues));
    spec.lambda_high = 0.9 * scale;
    spec.lambda_low = 0.6 * scale;
    spec.dt = 1.0;
    spec.horizon = 40;
    spec.episodes_per_second = 0.75;
    spec.setup_reps = 7;
    spec.speedup_epochs = 20;
    spec.replay_every = 8;
    spec.check = FleetCheck::PoissonArrivals;
    return spec;
}

FleetSpec fleet_dense_spec() {
    FleetSpec spec;
    spec.name = "fleet-dense";
    spec.queues = 100'000;
    spec.client_model = ClientModel::Aggregated;
    spec.clients = 10'000'000;
    spec.dt = 2.0;
    spec.horizon = 100;
    spec.track_sojourn = true;
    spec.episodes_per_second = 0.1;
    spec.setup_reps = 31;
    spec.warmup_epochs = 5;
    spec.speedup_epochs = 10;
    spec.replay_every = 1;
    spec.check = FleetCheck::Theorem1;
    // The lambda-conditioned mean field sits ~4% below this fleet (finite
    // N/M = 100 clients per queue); the tolerance leaves room for that bias.
    spec.theorem1_rel_tol = 0.10;
    return spec;
}

FiniteSystemConfig fleet_config(const FleetSpec& spec, std::size_t threads) {
    FiniteSystemConfig config;
    config.arrivals = ArrivalProcess::paper_two_state(spec.lambda_high, spec.lambda_low);
    config.dt = spec.dt;
    config.horizon = spec.horizon;
    config.num_queues = spec.queues;
    config.num_clients = spec.clients;
    config.client_model = spec.client_model;
    config.track_sojourn = spec.track_sojourn;
    config.shards = spec.shards;
    config.threads = threads;
    return config;
}

bool same_epoch_stats(const EpochStats& a, const EpochStats& b) {
    return a.drops_per_queue == b.drops_per_queue && a.dropped_packets == b.dropped_packets &&
           a.accepted_packets == b.accepted_packets && a.served_packets == b.served_packets &&
           a.mean_queue_length == b.mean_queue_length &&
           a.server_utilization == b.server_utilization && a.mean_sojourn == b.mean_sojourn &&
           a.completed_jobs == b.completed_jobs;
}

FleetEpisode run_fleet_episode(const FleetSpec& spec, std::size_t threads, std::uint64_t seed) {
    ShardedDesSystem system(fleet_config(spec, threads));
    const FixedRulePolicy jsq = make_jsq_policy(system.tuple_space());
    Rng rng = Rng(seed).fork(kEpisodeStream);
    system.reset(rng);
    FleetEpisode out;
    while (!system.done()) {
        out.lambda_states.push_back(system.lambda_state());
        out.epochs.push_back(system.step(jsq, rng));
    }
    out.sojourn_p99 = system.sojourn_p99();
    return out;
}

Report run_fleet(const FleetSpec& spec, const RunOptions& options) {
    Report report;
    report.workload = spec.name;
    report.seed = options.seed;
    report.trace = options.trace;
    const FiniteSystemConfig config = fleet_config(spec, kTimedThreads);
    const TupleSpace space(config.queue.num_states(), config.d);
    const FixedRulePolicy jsq = make_jsq_policy(space);
    const Rng master(options.seed);
    SpanLog spans(options.trace);
    MfcEnv mfc(mfc_config(spec));

    // Set-up: construct + reset, repeated; the last system is kept.
    std::optional<ShardedDesSystem> system;
    std::vector<double> setup_s;
    for (int r = 0; r < spec.setup_reps; ++r) {
        system.reset();
        Rng rng = master.fork(kSetupStream + static_cast<std::uint64_t>(r));
        const Clock::time_point t0 = Clock::now();
        system.emplace(config);
        system->reset(rng);
        const Clock::time_point t1 = Clock::now();
        spans.record("des.setup", 0, t0, t1);
        setup_s.push_back(seconds_between(t0, t1));
    }
    // Warm-up: untimed epochs fill the caches.
    {
        Rng rng = master.fork(kWarmupStream);
        system->reset(rng);
        for (int t = 0; t < spec.warmup_epochs && !system->done(); ++t) {
            system->step(jsq, rng);
        }
    }

    const std::size_t episodes = batch_size(spec.episodes_per_second, options.seconds);
    report.detail("queues", static_cast<double>(spec.queues));
    report.detail("shards", static_cast<double>(spec.shards));
    report.detail("setup_samples", static_cast<double>(setup_s.size()));

    if (!options.trace) {
        SpanLog off(false);
        const FleetBatch batch =
            run_batch(*system, spec, jsq, master, episodes, off, nullptr, mfc, report);
        // Throughputs and p90 are medians over consecutive windows of at
        // least 100 epochs (see windowed_median), so p90 keeps >= 10
        // samples beyond it in every window.
        constexpr std::size_t kMinWindow = 100;
        const std::vector<double>& step_s = batch.step_s;
        const std::size_t n = step_s.size();
        const auto epochs_per_s = [&](std::size_t a, std::size_t b) {
            return static_cast<double>(b - a) / sum_of(step_s, a, b);
        };
        const double epoch_rate = windowed_median(n, kMinWindow, epochs_per_s);
        const std::size_t e = batch.episode_wall_s.size();
        report.metric("setup_s", median(setup_s), "s");
        report.metric("sim_time_per_s", spec.dt * epoch_rate, "1/s");
        report.metric("epoch_ms_p50", 1e3 * median(step_s), "ms");
        const auto p90 = [&](std::size_t a, std::size_t b) {
            return slice_quantile(step_s, a, b, 0.9);
        };
        report.metric("epoch_ms_p90", 1e3 * windowed_median(n, kMinWindow, p90), "ms");
        report.metric("iter_s_p50", median(batch.episode_s), "s");
        report.metric("train_steps_per_s", epoch_rate, "1/s");
        const auto batch_wall = [&](std::size_t a, std::size_t b) {
            return sum_of(batch.episode_wall_s, a, b) * static_cast<double>(e) /
                   static_cast<double>(b - a);
        };
        report.metric("sweep_s", windowed_median(e, 1, batch_wall), "s");
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        report.detail("episodes", static_cast<double>(episodes));
        report.detail("epoch_samples", static_cast<double>(n));
        report.detail("windows", static_cast<double>(window_count(n, kMinWindow)));
        report.detail("events_per_epoch",
                      static_cast<double>(batch.events) / static_cast<double>(n));
        report.output_digest = batch.digest;
        return report;
    }

    // Traced mode: the same first half of the batch untraced, then traced
    // with layer replays; the difference is the tracing overhead.
    const std::size_t half = std::max<std::size_t>(1, episodes / 2);
    ReplayBuffers replay(space, spec.queues);
    SpanLog off(false);
    Report scratch; // the untraced half's checks are repeated by the traced half.
    const FleetBatch plain =
        run_batch(*system, spec, jsq, master, half, off, nullptr, mfc, scratch);
    const FleetBatch traced =
        run_batch(*system, spec, jsq, master, half, spans, &replay, mfc, report);
    report.check("traced_equals_untraced", plain.digest == traced.digest,
                 "digest of every EpochStats of the traced half equals the untraced half");
    report.failed += plain.digest == traced.digest ? 0 : 1;
    ++report.attempted;
    system.reset();

    // des.thread_speedup: same (seed, K) at 1 thread and at probe_threads().
    std::vector<double> side_s[2];
    std::vector<EpochStats> side_stats[2];
    const std::size_t side_threads[2] = {1, probe_threads()};
    for (int side = 0; side < 2; ++side) {
        ShardedDesSystem probe(fleet_config(spec, side_threads[side]));
        Rng rng = master.fork(kSpeedupStream);
        probe.reset(rng);
        for (int t = 0; t < spec.speedup_epochs && !probe.done(); ++t) {
            const Clock::time_point t0 = Clock::now();
            side_stats[side].push_back(probe.step(jsq, rng));
            side_s[side].push_back(seconds_since(t0));
        }
    }
    bool invariant = side_stats[0].size() == side_stats[1].size();
    for (std::size_t i = 0; invariant && i < side_stats[0].size(); ++i) {
        invariant = same_epoch_stats(side_stats[0][i], side_stats[1][i]);
    }
    report.check("thread_invariance", invariant,
                 "EpochStats bit-identical at 1 and " + std::to_string(side_threads[1]) +
                     " threads");
    report.failed += invariant ? 0 : 1;
    ++report.attempted;

    const double bytes = static_cast<double>(spec.queues) * (sizeof(int) + sizeof(double));
    const double step_total = sum_of(traced.step_s, 0, traced.step_s.size());
    report.metric("des.step_ms", 1e3 * median(traced.step_s), "ms");
    report.metric("des.events",
                  static_cast<double>(traced.events) / static_cast<double>(traced.step_s.size()),
                  "count");
    report.metric("des.ns_per_event", 1e9 * step_total / static_cast<double>(traced.events), "ns");
    report.metric("des.reset_s", median(setup_s), "s");
    report.metric("des.thread_speedup", median(side_s[0]) / median(side_s[1]), "x");
    report.metric("field.observe_us", 1e6 * median(traced.observe_s), "us");
    report.metric("field.routing_law_ms", 1e3 * median(traced.law_s), "ms");
    report.metric("field.routing_law_gbps", bytes / median(traced.law_s) / 1e9, "GB/s");
    report.metric("math.prefix_gbps", bytes / median(traced.prefix_s) / 1e9, "GB/s");
    if (!traced.mfc_step_s.empty()) {
        report.metric("field.mfc_step_us", 1e6 * median(traced.mfc_step_s), "us");
    }
    report.metric("trace.overhead_epoch_ms",
                  1e3 * (median(traced.step_s) - median(plain.step_s)), "ms");
    report.metric("trace.overhead_iter_s", median(traced.episode_s) - median(plain.episode_s),
                  "s");
    report.metric("trace.overhead_sweep_s", traced.wall_s - traced.replay_s - plain.wall_s, "s");
    report.detail("episodes_per_half", static_cast<double>(half));
    report.detail("replay_samples", static_cast<double>(traced.law_s.size()));
    report.detail("routing_law_computed_bytes", bytes);
    report.detail("prefix_computed_bytes", bytes);
    report.detail("speedup_epochs", static_cast<double>(side_s[0].size()));
    report.detail("spans", static_cast<double>(spans.size()));
    report.output_digest = traced.digest;
    if (!options.out_dir.empty()) {
        spans.write(options.out_dir + "/" + spec.name + "-seed" +
                    std::to_string(options.seed) + ".trace.json");
    }
    return report;
}

} // namespace perfbench
