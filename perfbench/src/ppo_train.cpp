/// ppo-train: `rl::PpoTrainer` on `MfcRlEnv`, Table-2 network, Table-1
/// system at dt = 5 (the paper's training path; no DES code runs).
#include "workloads.hpp"

#include "core/config.hpp"
#include "core/rl_adapter.hpp"
#include "field/mfc_env.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

namespace perfbench {

using namespace mflb;

namespace {

constexpr std::uint64_t kMfcReplayStream = 7; ///< Rng::fork stream of the MfcEnv replay.

/// Forwards to `MfcRlEnv` and records the interval between consecutive
/// step() calls of its rollout slot: one decision epoch of the training
/// loop (policy sample + env step + buffer write). Intervals that span a
/// reset or the update phase are not epochs and are not recorded.
class TimedEnv final : public rl::Env {
public:
    TimedEnv(const MfcConfig& config, std::vector<double>* samples)
        : env_(config, RuleParameterization::Logits), samples_(samples) {}

    std::size_t observation_dim() const override { return env_.observation_dim(); }
    std::size_t action_dim() const override { return env_.action_dim(); }
    std::vector<double> reset(Rng& rng) override {
        armed_ = false;
        return env_.reset(rng);
    }
    StepResult step(std::span<const double> action, Rng& rng) override {
        const Clock::time_point now = Clock::now();
        if (armed_) {
            samples_->push_back(seconds_between(last_, now));
        }
        last_ = now;
        armed_ = true;
        return env_.step(action, rng);
    }
    void disarm() noexcept { armed_ = false; }

private:
    MfcRlEnv env_;
    std::vector<double>* samples_;
    Clock::time_point last_{};
    bool armed_ = false;
};

/// A trainer plus the epoch-interval lanes of its environments. The
/// trainer owns the envs; `envs` are non-owning views that live as long.
struct TimedTrainer {
    std::vector<std::unique_ptr<std::vector<double>>> lanes;
    std::vector<TimedEnv*> envs;
    std::unique_ptr<rl::PpoTrainer> trainer;

    TimedTrainer(const PpoSpec& spec, std::size_t threads, std::uint64_t seed) {
        const MfcConfig config = mfc_config(spec);
        trainer = std::make_unique<rl::PpoTrainer>(
            [this, config]() -> std::unique_ptr<rl::Env> {
                lanes.push_back(std::make_unique<std::vector<double>>());
                auto env = std::make_unique<TimedEnv>(config, lanes.back().get());
                envs.push_back(env.get());
                return env;
            },
            ppo_config(spec, threads), Rng(seed));
    }
    TimedTrainer(const TimedTrainer&) = delete;
    TimedTrainer& operator=(const TimedTrainer&) = delete;

    void disarm() {
        for (TimedEnv* env : envs) {
            env->disarm();
        }
    }
    /// Moves every lane's epoch intervals out (the lanes restart empty).
    std::vector<double> take_epoch_samples() {
        std::vector<double> all;
        for (const auto& lane : lanes) {
            all.insert(all.end(), lane->begin(), lane->end());
            lane->clear();
        }
        return all;
    }

    static MfcConfig mfc_config(const PpoSpec& spec) {
        ExperimentConfig experiment;
        experiment.dt = spec.dt;
        MfcConfig config = experiment.mfc();
        config.horizon = spec.horizon;
        return config;
    }
};

bool finite_stats(const rl::PpoIterationStats& s) {
    return std::isfinite(s.mean_episode_return) && std::isfinite(s.mean_kl) &&
           std::isfinite(s.policy_loss) && std::isfinite(s.value_loss) &&
           std::isfinite(s.entropy) && std::isfinite(s.kl_coeff);
}

void add_stats(Digest& digest, const rl::PpoIterationStats& s) {
    digest.add(static_cast<std::uint64_t>(s.timesteps_total));
    digest.add(s.mean_episode_return);
    digest.add(static_cast<std::uint64_t>(s.episodes_completed));
    digest.add(s.mean_kl);
    digest.add(s.policy_loss);
    digest.add(s.value_loss);
    digest.add(s.entropy);
    digest.add(s.kl_coeff);
}

/// One batch of iterations on a trainer that has done its warm-up.
struct PpoBatch {
    std::vector<double> iter_s;
    std::vector<std::vector<double>> epoch_s; ///< per iteration: its epoch intervals.
    std::vector<double> collect_s; ///< traced mode only.
    std::vector<double> update_s;  ///< traced mode only.
    double wall_s = 0.0;
    std::uint64_t digest = 0;
};

/// Untraced iterations call train_iteration(); traced ones call its two
/// public phases with a span around each (same work, same results).
PpoBatch run_batch(TimedTrainer& tt, std::size_t iterations, SpanLog& spans, Report& report) {
    PpoBatch batch;
    Digest digest;
    rl::PpoTrainer& trainer = *tt.trainer;
    const Clock::time_point batch_t0 = Clock::now();
    for (std::size_t i = 0; i < iterations; ++i) {
        tt.disarm();
        rl::PpoIterationStats stats;
        const Clock::time_point t0 = Clock::now();
        if (spans.enabled()) {
            const SpanLog::Id it = spans.open("rl.iteration", 0, t0);
            trainer.collect_phase(stats);
            const Clock::time_point t1 = Clock::now();
            trainer.optimize_phase(stats);
            const Clock::time_point t2 = Clock::now();
            spans.record("rl.collect", it, t0, t1);
            spans.record("rl.update", it, t1, t2);
            spans.close(it, t2);
            batch.collect_s.push_back(seconds_between(t0, t1));
            batch.update_s.push_back(seconds_between(t1, t2));
            batch.iter_s.push_back(seconds_between(t0, t2));
        } else {
            stats = trainer.train_iteration();
            batch.iter_s.push_back(seconds_since(t0));
        }
        batch.epoch_s.push_back(tt.take_epoch_samples());
        add_stats(digest, stats);
        const bool ok = finite_stats(stats);
        char detail[200];
        std::snprintf(detail, sizeof(detail),
                      "iteration %zu: return %.4f, policy loss %.4g, value loss %.4g, kl %.4g "
                      "all finite",
                      i, stats.mean_episode_return, stats.policy_loss, stats.value_loss,
                      stats.mean_kl);
        report.check("finite_losses_and_return", ok, detail);
        ++report.attempted;
        report.failed += ok ? 0 : 1;
    }
    batch.wall_s = seconds_since(batch_t0);
    batch.digest = digest.value();
    return batch;
}

} // namespace

PpoSpec ppo_train_spec() {
    PpoSpec spec;
    spec.iterations_per_second = 1.7;
    spec.setup_reps = 15;
    return spec;
}

rl::PpoConfig ppo_config(const PpoSpec& spec, std::size_t threads) {
    rl::PpoConfig ppo; // Table-2 network: two tanh layers of 256.
    ppo.train_batch_size = spec.train_batch;
    ppo.minibatch_size = spec.minibatch;
    ppo.num_epochs = spec.sgd_epochs;
    ppo.num_envs = spec.num_envs;
    ppo.train_threads = threads;
    return ppo;
}

bool same_iteration_stats(const rl::PpoIterationStats& a, const rl::PpoIterationStats& b) {
    return a.timesteps_total == b.timesteps_total &&
           a.episodes_completed == b.episodes_completed &&
           a.mean_episode_return == b.mean_episode_return && a.mean_kl == b.mean_kl &&
           a.policy_loss == b.policy_loss && a.value_loss == b.value_loss &&
           a.entropy == b.entropy && a.kl_coeff == b.kl_coeff;
}

std::vector<rl::PpoIterationStats> run_ppo_iterations(const PpoSpec& spec, std::size_t threads,
                                                      std::uint64_t seed,
                                                      std::size_t iterations) {
    TimedTrainer tt(spec, threads, seed);
    std::vector<rl::PpoIterationStats> out;
    for (std::size_t i = 0; i < iterations; ++i) {
        out.push_back(tt.trainer->train_iteration());
    }
    return out;
}

Report run_ppo(const PpoSpec& spec, const RunOptions& options) {
    Report report;
    report.workload = spec.name;
    report.seed = options.seed;
    report.trace = options.trace;
    SpanLog spans(options.trace);

    std::unique_ptr<TimedTrainer> tt;
    std::vector<double> setup_s;
    for (int r = 0; r < spec.setup_reps; ++r) {
        tt.reset();
        const Clock::time_point t0 = Clock::now();
        tt = std::make_unique<TimedTrainer>(spec, kTimedThreads, options.seed);
        const Clock::time_point t1 = Clock::now();
        spans.record("rl.setup", 0, t0, t1);
        setup_s.push_back(seconds_between(t0, t1));
    }
    const std::size_t iterations = batch_size(spec.iterations_per_second, options.seconds);
    const std::size_t steps_per_iteration = spec.train_batch;
    report.detail("num_envs", static_cast<double>(spec.num_envs));
    report.detail("train_batch", static_cast<double>(spec.train_batch));
    report.detail("setup_samples", static_cast<double>(setup_s.size()));

    // Warm-up: one iteration (first touch of the workspaces).
    tt->trainer->train_iteration();
    tt->take_epoch_samples();

    if (!options.trace) {
        const PpoBatch batch = run_batch(*tt, iterations, spans, report);
        // Throughputs, p90 and the batch time are medians over consecutive
        // windows of iterations (see windowed_median).
        const std::size_t n = batch.iter_s.size();
        const double steps = static_cast<double>(steps_per_iteration);
        const auto steps_per_s = [&](std::size_t a, std::size_t b) {
            return steps * static_cast<double>(b - a) / sum_of(batch.iter_s, a, b);
        };
        const double step_rate = windowed_median(n, 1, steps_per_s);
        const std::vector<double> epochs = concat(batch.epoch_s, 0, n);
        report.metric("setup_s", median(setup_s), "s");
        report.metric("sim_time_per_s", spec.dt * step_rate, "1/s");
        report.metric("epoch_ms_p50", 1e3 * median(epochs), "ms");
        const auto p90 = [&](std::size_t a, std::size_t b) {
            return quantile(concat(batch.epoch_s, a, b), 0.9);
        };
        report.metric("epoch_ms_p90", 1e3 * windowed_median(n, 1, p90), "ms");
        report.metric("iter_s_p50", median(batch.iter_s), "s");
        report.metric("train_steps_per_s", step_rate, "1/s");
        const auto batch_wall = [&](std::size_t a, std::size_t b) {
            return sum_of(batch.iter_s, a, b) * static_cast<double>(n) / static_cast<double>(b - a);
        };
        report.metric("sweep_s", windowed_median(n, 1, batch_wall), "s");
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        report.detail("iterations", static_cast<double>(iterations));
        report.detail("epoch_samples", static_cast<double>(epochs.size()));
        report.detail("windows", static_cast<double>(window_count(n, 1)));
        report.output_digest = batch.digest;
        return report;
    }

    // Traced mode: half the batch untraced on this trainer, then the same
    // half traced on a fresh trainer from the same seed (same warm-up).
    const std::size_t half = std::max<std::size_t>(1, iterations / 2);
    SpanLog off(false);
    Report scratch;
    const PpoBatch plain = run_batch(*tt, half, off, scratch);
    tt.reset();
    tt = std::make_unique<TimedTrainer>(spec, kTimedThreads, options.seed);
    tt->trainer->train_iteration();
    tt->take_epoch_samples();
    const PpoBatch traced = run_batch(*tt, half, spans, report);
    report.check("traced_equals_untraced", plain.digest == traced.digest,
                 "digest of every PpoIterationStats of the traced half equals the untraced half");
    report.failed += plain.digest == traced.digest ? 0 : 1;
    ++report.attempted;
    tt.reset();

    // rl.collect_thread_speedup: collect at 1 thread vs probe_threads().
    std::vector<double> side_s[2];
    std::vector<rl::PpoIterationStats> side_stats[2];
    const std::size_t side_threads[2] = {1, probe_threads()};
    for (int side = 0; side < 2; ++side) {
        TimedTrainer probe(spec, side_threads[side], options.seed);
        for (int r = 0; r < spec.speedup_reps; ++r) {
            rl::PpoIterationStats stats;
            const Clock::time_point t0 = Clock::now();
            probe.trainer->collect_phase(stats);
            side_s[side].push_back(seconds_since(t0));
            side_stats[side].push_back(stats);
        }
    }
    bool invariant = true;
    for (std::size_t i = 0; i < side_stats[0].size(); ++i) {
        invariant = invariant && same_iteration_stats(side_stats[0][i], side_stats[1][i]);
    }
    report.check("thread_invariance", invariant,
                 "collect stats bit-identical at 1 and " + std::to_string(side_threads[1]) +
                     " threads");
    report.failed += invariant ? 0 : 1;
    ++report.attempted;

    // field.mfc_step_us: MfcEnv::step on the training config, called directly.
    std::vector<double> mfc_step_s;
    {
        MfcEnv env(TimedTrainer::mfc_config(spec));
        const DecisionRule rule = DecisionRule::mf_jsq(env.tuple_space());
        Rng rng = Rng(options.seed).fork(kMfcReplayStream);
        for (int episode = 0; episode < 4; ++episode) {
            env.reset(rng);
            while (!env.done()) {
                const Clock::time_point t0 = Clock::now();
                env.step(rule, rng);
                const Clock::time_point t1 = Clock::now();
                spans.record("field.mfc_step", 0, t0, t1);
                mfc_step_s.push_back(seconds_between(t0, t1));
            }
        }
    }

    const double steps = static_cast<double>(steps_per_iteration);
    const double samples = steps * static_cast<double>(spec.sgd_epochs);
    report.metric("rl.collect_s", median(traced.collect_s), "s");
    report.metric("rl.collect_steps_per_s", steps / median(traced.collect_s), "1/s");
    report.metric("rl.update_s", median(traced.update_s), "s");
    report.metric("rl.update_samples_per_s", samples / median(traced.update_s), "1/s");
    report.metric("rl.collect_thread_speedup", median(side_s[0]) / median(side_s[1]), "x");
    report.metric("field.mfc_step_us", 1e6 * median(mfc_step_s), "us");
    report.metric("trace.overhead_epoch_ms",
                  1e3 * (median(concat(traced.epoch_s, 0, half)) -
                         median(concat(plain.epoch_s, 0, half))),
                  "ms");
    report.metric("trace.overhead_iter_s", median(traced.iter_s) - median(plain.iter_s), "s");
    report.metric("trace.overhead_sweep_s", traced.wall_s - plain.wall_s, "s");
    report.detail("iterations_per_half", static_cast<double>(half));
    report.detail("mfc_step_samples", static_cast<double>(mfc_step_s.size()));
    report.detail("speedup_collects", static_cast<double>(spec.speedup_reps));
    report.detail("spans", static_cast<double>(spans.size()));
    report.output_digest = traced.digest;
    if (!options.out_dir.empty()) {
        spans.write(options.out_dir + "/" + spec.name + "-seed" +
                    std::to_string(options.seed) + ".trace.json");
    }
    return report;
}

} // namespace perfbench
