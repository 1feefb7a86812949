/// table1-sweep: the Fig. 5 grid at Table 1 (M = 100, N = 10^4). JSQ(2)
/// and RND through `evaluate_finite`, JSQ(2) through `evaluate_mfc`, at
/// each dt, replications through the evaluator's fan-out.
#include "workloads.hpp"

#include "core/config.hpp"
#include "core/evaluator.hpp"
#include "field/mfc_env.hpp"
#include "policies/fixed.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {

using namespace mflb;

namespace {

// Rng::fork stream ids of the set-up and the traced mode's replays.
constexpr std::uint64_t kFiniteReplayStream = 11;
constexpr std::uint64_t kMfcReplayStream = 12;
constexpr std::uint64_t kSetupStream = 13;

/// Per-thread intervals between consecutive policy queries of one
/// replication — one decision epoch each. A replication is identified by
/// its Rng (the evaluator hands every replication its own stream object);
/// `begin_fanout` starts a new generation so intervals never span two
/// evaluate calls or two replications.
class EpochGaps {
public:
    EpochGaps() : instance_(next_instance_.fetch_add(1) + 1) {}
    EpochGaps(const EpochGaps&) = delete;
    EpochGaps& operator=(const EpochGaps&) = delete;

    void begin_fanout() noexcept { generation_.fetch_add(1, std::memory_order_relaxed); }

    void tick(const void* replication) {
        const Clock::time_point now = Clock::now();
        Lane& lane = this_thread_lane();
        const std::uint64_t generation = generation_.load(std::memory_order_relaxed);
        if (lane.generation == generation && lane.replication == replication) {
            lane.samples.push_back(seconds_between(lane.last, now));
        }
        lane.generation = generation;
        lane.replication = replication;
        lane.last = now;
    }

    /// Moves every thread's samples out; call while no fan-out is running.
    std::vector<double> harvest() {
        const std::lock_guard<std::mutex> lock(mu_);
        std::vector<double> all;
        for (const auto& lane : lanes_) {
            all.insert(all.end(), lane->samples.begin(), lane->samples.end());
            lane->samples.clear();
        }
        return all;
    }

private:
    struct Lane {
        std::uint64_t generation = 0;
        const void* replication = nullptr;
        Clock::time_point last{};
        std::vector<double> samples;
    };

    Lane& this_thread_lane() {
        thread_local std::uint64_t owner = 0;
        thread_local Lane* lane = nullptr;
        if (owner != instance_) {
            const std::lock_guard<std::mutex> lock(mu_);
            lanes_.push_back(std::make_unique<Lane>());
            lane = lanes_.back().get();
            owner = instance_;
        }
        return *lane;
    }

    static inline std::atomic<std::uint64_t> next_instance_{0};
    const std::uint64_t instance_;
    std::atomic<std::uint64_t> generation_{1};
    std::mutex mu_; ///< guards lanes_ (not the lanes' contents).
    std::vector<std::unique_ptr<Lane>> lanes_;
};

/// Forwards every query to `inner` after ticking the epoch clock.
class GapTimedPolicy final : public UpperLevelPolicy {
public:
    GapTimedPolicy(const UpperLevelPolicy& inner, EpochGaps& gaps) : inner_(inner), gaps_(gaps) {}

    DecisionRule decide(std::span<const double> nu, std::size_t lambda_state,
                        Rng& rng) const override {
        gaps_.tick(&rng);
        return inner_.decide(nu, lambda_state, rng);
    }
    std::unique_ptr<Scratch> make_scratch() const override { return inner_.make_scratch(); }
    void decide_into(std::span<const double> nu, std::size_t lambda_state, Rng& rng,
                     Scratch* scratch, DecisionRule& out) const override {
        gaps_.tick(&rng);
        inner_.decide_into(nu, lambda_state, rng, scratch, out);
    }
    bool decide_consumes_rng() const noexcept override { return inner_.decide_consumes_rng(); }
    std::string name() const override { return inner_.name(); }

private:
    const UpperLevelPolicy& inner_;
    EpochGaps& gaps_;
};

ExperimentConfig experiment_for(const SweepSpec& spec, double dt) {
    ExperimentConfig experiment; // Table 1 defaults: B = 5, lambda (0.9, 0.6), d = 2.
    experiment.dt = dt;
    experiment.num_queues = spec.queues;
    experiment.num_clients = spec.clients;
    return experiment;
}

/// One Fig. 5 grid: per dt, finite JSQ(2), finite RND, MFC JSQ(2).
struct Grid {
    std::vector<EvaluationResult> finite_jsq;
    std::vector<EvaluationResult> finite_rnd;
    std::vector<EvaluationResult> mfc_jsq;
    std::vector<double> column_s; ///< per dt: its three evaluations.
    double wall_s = 0.0;
    double sim_time = 0.0;   ///< model time simulated (all replications).
    double epochs = 0.0;     ///< decision epochs simulated (all replications).
};

Grid run_grid(const SweepSpec& spec, std::uint64_t seed, EpochGaps& gaps, SpanLog& spans) {
    Grid grid;
    const Clock::time_point g0 = Clock::now();
    const SpanLog::Id grid_span = spans.open("core.grid", 0, g0);
    for (const double dt : spec.dts) {
        const Clock::time_point c0 = Clock::now();
        const ExperimentConfig experiment = experiment_for(spec, dt);
        const FiniteSystemConfig finite = experiment.finite_system();
        const MfcConfig mfc = experiment.mfc(true);
        const TupleSpace space(finite.queue.num_states(), finite.d);
        const FixedRulePolicy jsq = make_jsq_policy(space);
        const FixedRulePolicy rnd = make_rnd_policy(space);
        const GapTimedPolicy timed_jsq(jsq, gaps);
        const GapTimedPolicy timed_rnd(rnd, gaps);
        const auto cell = [&](const char* name, auto&& evaluate) {
            gaps.begin_fanout();
            const Clock::time_point t0 = Clock::now();
            EvaluationResult result = evaluate();
            const Clock::time_point t1 = Clock::now();
            spans.record(name, grid_span, t0, t1);
            return result;
        };
        grid.finite_jsq.push_back(cell("core.evaluate_finite", [&] {
            return evaluate_finite(finite, timed_jsq, spec.replications, seed, kTimedThreads);
        }));
        grid.finite_rnd.push_back(cell("core.evaluate_finite", [&] {
            return evaluate_finite(finite, timed_rnd, spec.replications, seed, kTimedThreads);
        }));
        grid.mfc_jsq.push_back(cell("core.evaluate_mfc", [&] {
            return evaluate_mfc(mfc, timed_jsq, spec.replications, seed, kTimedThreads);
        }));
        const double reps = static_cast<double>(spec.replications);
        grid.epochs += reps * (2.0 * finite.horizon + mfc.horizon);
        grid.sim_time += reps * dt * (2.0 * finite.horizon + mfc.horizon);
        grid.column_s.push_back(seconds_since(c0));
    }
    const Clock::time_point g1 = Clock::now();
    spans.close(grid_span, g1);
    grid.wall_s = seconds_between(g0, g1);
    return grid;
}

void add_result(Digest& digest, const EvaluationResult& r) {
    for (const ConfidenceInterval* ci :
         {&r.total_drops, &r.discounted_return, &r.mean_queue_length, &r.utilization}) {
        digest.add(ci->mean);
        digest.add(ci->half_width);
    }
}

std::size_t index_of(const std::vector<double>& dts, double dt) {
    for (std::size_t i = 0; i < dts.size(); ++i) {
        if (dts[i] == dt) {
            return i;
        }
    }
    return dts.size();
}

/// Fig. 5 checks on one grid; every cell a failed check involves counts
/// as one failed operation (9 operations per grid).
void check_grid(const SweepSpec& spec, const Grid& grid, std::size_t g, Report& report) {
    const std::size_t cells = 3 * spec.dts.size();
    std::vector<bool> cell_failed(cells, false); // [3 * i + {0: jsq, 1: rnd, 2: mfc}]
    char detail[256];
    const std::size_t lo = index_of(spec.dts, 1.0);
    const std::size_t hi = index_of(spec.dts, 10.0);
    if (lo < spec.dts.size()) {
        const double jsq = grid.finite_jsq[lo].total_drops.mean;
        const double rnd = grid.finite_rnd[lo].total_drops.mean;
        std::snprintf(detail, sizeof(detail), "grid %zu dt=1: JSQ(2) %.3f < RND %.3f", g, jsq,
                      rnd);
        if (!report.check("fig5_crossover_dt1", jsq < rnd, detail)) {
            cell_failed[3 * lo] = cell_failed[3 * lo + 1] = true;
        }
    }
    if (hi < spec.dts.size()) {
        const double jsq = grid.finite_jsq[hi].total_drops.mean;
        const double rnd = grid.finite_rnd[hi].total_drops.mean;
        std::snprintf(detail, sizeof(detail), "grid %zu dt=10: JSQ(2) %.3f > RND %.3f", g, jsq,
                      rnd);
        if (!report.check("fig5_crossover_dt10", jsq > rnd, detail)) {
            cell_failed[3 * hi] = cell_failed[3 * hi + 1] = true;
        }
    }
    for (std::size_t i = 0; i < spec.dts.size(); ++i) {
        if (spec.dts[i] < 5.0) {
            continue;
        }
        const ConfidenceInterval& f = grid.finite_jsq[i].total_drops;
        const ConfidenceInterval& m = grid.mfc_jsq[i].total_drops;
        const double allowed = f.half_width + m.half_width + spec.agreement_rel_tol * m.mean;
        const bool ok = std::abs(f.mean - m.mean) <= allowed;
        std::snprintf(detail, sizeof(detail),
                      "grid %zu dt=%g: finite JSQ(2) %.3f +- %.3f vs MFC %.3f +- %.3f "
                      "(|diff| %.3f <= %.3f)",
                      g, spec.dts[i], f.mean, f.half_width, m.mean, m.half_width,
                      std::abs(f.mean - m.mean), allowed);
        if (!report.check("finite_vs_mfc_jsq", ok, detail)) {
            cell_failed[3 * i] = cell_failed[3 * i + 2] = true;
        }
    }
    report.attempted += cells;
    for (const bool failed : cell_failed) {
        report.failed += failed ? 1 : 0;
    }
}

/// A batch of grids with its checks; grid g evaluates with seed stream g.
struct SweepBatch {
    std::vector<double> grid_s;
    std::vector<double> column_s;
    std::vector<std::vector<double>> epoch_s; ///< per grid: its epoch intervals.
    std::vector<double> sim_time;             ///< per grid: model time simulated.
    std::vector<double> epochs;               ///< per grid: decision epochs simulated.
    std::uint64_t digest = 0;
};

SweepBatch run_batch(const SweepSpec& spec, std::uint64_t seed,
                     std::size_t grids, EpochGaps& gaps, SpanLog& spans, Report& report) {
    SweepBatch batch;
    Digest digest;
    for (std::size_t g = 0; g < grids; ++g) {
        const std::uint64_t grid_seed = Rng(seed).fork(g)();
        const Grid grid = run_grid(spec, grid_seed, gaps, spans);
        check_grid(spec, grid, g, report);
        for (std::size_t i = 0; i < spec.dts.size(); ++i) {
            add_result(digest, grid.finite_jsq[i]);
            add_result(digest, grid.finite_rnd[i]);
            add_result(digest, grid.mfc_jsq[i]);
        }
        batch.grid_s.push_back(grid.wall_s);
        batch.column_s.insert(batch.column_s.end(), grid.column_s.begin(),
                              grid.column_s.end());
        batch.epoch_s.push_back(gaps.harvest());
        batch.sim_time.push_back(grid.sim_time);
        batch.epochs.push_back(grid.epochs);
    }
    batch.digest = digest.value();
    return batch;
}

/// Epoch-weighted mean of per-dt median step times: the per-epoch cost
/// in the proportions the grid runs them.
template <class StepOnce>
double weighted_epoch_median(const SweepSpec& spec, StepOnce&& step_episode) {
    double weighted = 0.0;
    double epochs = 0.0;
    for (const double dt : spec.dts) {
        const std::vector<double> samples = step_episode(dt);
        weighted += median(samples) * static_cast<double>(samples.size());
        epochs += static_cast<double>(samples.size());
    }
    return weighted / epochs;
}

} // namespace

SweepSpec table1_sweep_spec() {
    SweepSpec spec;
    spec.grids_per_second = 0.7;
    spec.setup_reps = 15;
    return spec;
}

Report run_sweep(const SweepSpec& spec, const RunOptions& options) {
    Report report;
    report.workload = spec.name;
    report.seed = options.seed;
    report.trace = options.trace;
    SpanLog spans(options.trace);

    // Set-up: the construction work one grid does before simulating —
    // every replication's FiniteSystem (JSQ and RND cells) and MfcEnv,
    // built and reset once per replication, serially.
    const Rng setup_master = Rng(options.seed).fork(kSetupStream);
    std::vector<double> setup_s;
    for (int r = 0; r < spec.setup_reps; ++r) {
        Rng rng = setup_master.fork(static_cast<std::uint64_t>(r));
        const Clock::time_point t0 = Clock::now();
        for (const double dt : spec.dts) {
            const ExperimentConfig experiment = experiment_for(spec, dt);
            const FiniteSystemConfig finite = experiment.finite_system();
            const MfcConfig mfc = experiment.mfc(true);
            for (std::size_t i = 0; i < spec.replications; ++i) {
                for (int cell = 0; cell < 2; ++cell) {
                    FiniteSystem system(finite);
                    system.reset(rng);
                }
                MfcEnv env(mfc);
                env.reset(rng);
            }
        }
        const Clock::time_point t1 = Clock::now();
        spans.record("core.setup", 0, t0, t1);
        setup_s.push_back(seconds_between(t0, t1));
    }

    const std::size_t grids = batch_size(spec.grids_per_second, options.seconds);
    report.detail("replications_per_cell", static_cast<double>(spec.replications));
    report.detail("setup_samples", static_cast<double>(setup_s.size()));

    EpochGaps gaps;
    SpanLog off(false);
    // Warm-up: one grid on its own seed (first touch of the workspaces).
    {
        Report scratch;
        run_batch(spec, options.seed + 0x5eed, 1, gaps, off, scratch);
    }

    if (!options.trace) {
        const SweepBatch batch =
            run_batch(spec, options.seed, grids, gaps, off, report);
        // Throughputs and p90 are medians over consecutive windows of grids
        // (see windowed_median).
        const std::size_t n = batch.grid_s.size();
        const auto rate = [&](const std::vector<double>& work) {
            return windowed_median(n, 1, [&](std::size_t a, std::size_t b) {
                return sum_of(work, a, b) / sum_of(batch.grid_s, a, b);
            });
        };
        const std::vector<double> epochs = concat(batch.epoch_s, 0, n);
        report.metric("setup_s", median(setup_s), "s");
        report.metric("sim_time_per_s", rate(batch.sim_time), "1/s");
        report.metric("epoch_ms_p50", 1e3 * median(epochs), "ms");
        const auto p90 = [&](std::size_t a, std::size_t b) {
            return quantile(concat(batch.epoch_s, a, b), 0.9);
        };
        report.metric("epoch_ms_p90", 1e3 * windowed_median(n, 1, p90), "ms");
        report.metric("iter_s_p50", median(batch.column_s), "s");
        report.metric("train_steps_per_s", rate(batch.epochs), "1/s");
        report.metric("sweep_s", median(batch.grid_s), "s");
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        report.detail("grids", static_cast<double>(grids));
        report.detail("column_samples", static_cast<double>(batch.column_s.size()));
        report.detail("epoch_samples", static_cast<double>(epochs.size()));
        report.detail("windows", static_cast<double>(window_count(n, 1)));
        report.output_digest = batch.digest;
        return report;
    }

    const std::size_t half = std::max<std::size_t>(1, grids / 2);
    Report scratch;
    const SweepBatch plain = run_batch(spec, options.seed, half, gaps, off, scratch);
    const SweepBatch traced = run_batch(spec, options.seed, half, gaps, spans, report);
    report.check("traced_equals_untraced", plain.digest == traced.digest,
                 "digest of every EvaluationResult of the traced half equals the untraced half");
    report.failed += plain.digest == traced.digest ? 0 : 1;
    ++report.attempted;

    // queueing.finite_epoch_us: FiniteSystem::step, one replication, one thread.
    const Rng master(options.seed);
    const double finite_epoch_s = weighted_epoch_median(spec, [&](double dt) {
        const ExperimentConfig experiment = experiment_for(spec, dt);
        FiniteSystem system(experiment.finite_system());
        const FixedRulePolicy jsq = make_jsq_policy(system.tuple_space());
        Rng rng = master.fork(kFiniteReplayStream);
        system.reset(rng);
        std::vector<double> samples;
        while (!system.done()) {
            const Clock::time_point t0 = Clock::now();
            system.step(jsq, rng);
            const Clock::time_point t1 = Clock::now();
            spans.record("queueing.finite_step", 0, t0, t1);
            samples.push_back(seconds_between(t0, t1));
        }
        return samples;
    });
    // field.mfc_step_us: MfcEnv::step, same episodes' configs.
    const double mfc_step_s = weighted_epoch_median(spec, [&](double dt) {
        MfcEnv env(experiment_for(spec, dt).mfc(true));
        const DecisionRule rule = DecisionRule::mf_jsq(env.tuple_space());
        Rng rng = master.fork(kMfcReplayStream);
        env.reset(rng);
        std::vector<double> samples;
        while (!env.done()) {
            const Clock::time_point t0 = Clock::now();
            env.step(rule, rng);
            const Clock::time_point t1 = Clock::now();
            spans.record("field.mfc_step", 0, t0, t1);
            samples.push_back(seconds_between(t0, t1));
        }
        return samples;
    });
    // core.fanout_efficiency: the grid's finite cells through
    // run_replications with timed bodies at probe_threads():
    // busy time / (threads x wall).
    const std::size_t fanout_threads = probe_threads();
    double busy = 0.0;
    double capacity = 0.0;
    for (const double dt : spec.dts) {
        const FiniteSystemConfig finite = experiment_for(spec, dt).finite_system();
        const TupleSpace space(finite.queue.num_states(), finite.d);
        const FixedRulePolicy policies[2] = {make_jsq_policy(space), make_rnd_policy(space)};
        for (const FixedRulePolicy& policy : policies) {
            const Clock::time_point w0 = Clock::now();
            const std::vector<double> body_s = run_replications(
                spec.replications, options.seed, fanout_threads, [&](std::size_t, Rng& rng) {
                    const Clock::time_point t0 = Clock::now();
                    FiniteSystem system(finite);
                    system.reset(rng);
                    system.run_episode(policy, rng);
                    const Clock::time_point t1 = Clock::now();
                    spans.record("core.replication", 0, t0, t1);
                    return seconds_between(t0, t1);
                });
            capacity += static_cast<double>(fanout_threads) * seconds_since(w0);
            for (const double s : body_s) {
                busy += s;
            }
        }
    }

    report.metric("field.mfc_step_us", 1e6 * mfc_step_s, "us");
    report.metric("queueing.finite_epoch_us", 1e6 * finite_epoch_s, "us");
    report.metric("core.fanout_efficiency", busy / capacity, "ratio");
    report.metric("trace.overhead_epoch_ms",
                  1e3 * (median(concat(traced.epoch_s, 0, half)) -
                         median(concat(plain.epoch_s, 0, half))),
                  "ms");
    report.metric("trace.overhead_iter_s", median(traced.column_s) - median(plain.column_s),
                  "s");
    report.metric("trace.overhead_sweep_s", median(traced.grid_s) - median(plain.grid_s), "s");
    report.detail("grids_per_half", static_cast<double>(half));
    report.detail("spans", static_cast<double>(spans.size()));
    report.output_digest = traced.digest;
    if (!options.out_dir.empty()) {
        spans.write(options.out_dir + "/" + spec.name + "-seed" +
                    std::to_string(options.seed) + ".trace.json");
    }
    return report;
}

} // namespace perfbench
