/// The benchmark's own tests, at reduced sizes (seconds in total):
///  - the order statistics behind every metric;
///  - fleet-sparse / fleet-dense: EpochStats bit-identical at 1 thread and
///    at all hardware threads for fixed (seed, K);
///  - ppo-train: iteration stats bit-identical across thread counts for
///    fixed (seed, num_envs);
///  - every workload: the traced run's simulated outputs equal the
///    untraced run's (the run checks this itself; asserted here);
///  - every reported metric name matches [A-Za-z0-9_.-]+ and each mode
///    reports exactly its metric list;
///  - a different seed gives different generated inputs.
/// Exit code 0 = all passed. Run: ctest in the build directory, or
/// `python3 perfbench/run.py --selftest`.
#include "workloads.hpp"

#include <cstdio>
#include <regex>
#include <thread>

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
    std::printf("[%s] %s\n", ok ? " ok " : "FAIL", what.c_str());
    g_failures += ok ? 0 : 1;
}

std::size_t all_threads() { return std::max(2u, std::thread::hardware_concurrency()); }

FleetSpec small_sparse() {
    FleetSpec spec = fleet_sparse_spec();
    spec.queues = 50'000;
    const double scale = 750.0 / (0.75 * static_cast<double>(spec.queues));
    spec.lambda_high = 0.9 * scale;
    spec.lambda_low = 0.6 * scale;
    spec.horizon = 8;
    spec.setup_reps = 2;
    spec.warmup_epochs = 2;
    spec.speedup_epochs = 4;
    spec.replay_every = 2;
    return spec;
}

FleetSpec small_dense() {
    FleetSpec spec = fleet_dense_spec();
    spec.queues = 2'000;
    spec.clients = 200'000;
    spec.horizon = 8;
    spec.setup_reps = 2;
    spec.warmup_epochs = 2;
    spec.speedup_epochs = 4;
    // Eight epochs from empty queues are far from the horizon the
    // Theorem-1 tolerance is set for; this test checks plumbing only.
    spec.theorem1_rel_tol = 1.0;
    return spec;
}

PpoSpec small_ppo() {
    PpoSpec spec = ppo_train_spec();
    spec.train_batch = 256;
    spec.sgd_epochs = 2;
    spec.setup_reps = 1;
    spec.speedup_reps = 1;
    return spec;
}

SweepSpec small_sweep() {
    SweepSpec spec = table1_sweep_spec();
    spec.replications = 8;
    spec.setup_reps = 2;
    return spec;
}

RunOptions small_options(std::uint64_t seed, bool trace) {
    RunOptions options;
    options.seed = seed;
    options.seconds = 1e-9; // one operation per batch
    options.trace = trace;
    return options;
}

bool check_passed(const Report& report, const std::string& name) {
    bool seen = false;
    for (const Check& c : report.checks) {
        if (c.name == name) {
            if (!c.ok) {
                return false;
            }
            seen = true;
        }
    }
    return seen;
}

void expect_metric_names(Report report, const std::string& label) {
    finalize_metrics(report);
    const std::regex allowed("[A-Za-z0-9_.-]+");
    const std::vector<MetricSpec>& specs =
        report.trace ? per_layer_metrics() : end_to_end_metrics();
    bool ok = report.metrics.size() == specs.size();
    for (std::size_t i = 0; ok && i < specs.size(); ++i) {
        ok = report.metrics[i].name == specs[i].name &&
             std::regex_match(report.metrics[i].name, allowed) &&
             report.metrics[i].name.size() <= 64;
    }
    expect(ok, label + ": reports exactly its metric list, names match [A-Za-z0-9_.-]+");
}

void test_statistics() {
    std::vector<double> ramp;
    for (int i = 1; i <= 1000; ++i) {
        ramp.push_back(static_cast<double>(i));
    }
    expect(median({3.0, 1.0, 2.0, 4.0}) == 2.5 && median({5.0, 1.0, 3.0}) == 3.0 &&
               quantile(ramp, 0.9) == 900.0,
           "median averages the middle pair; p90 is the nearest-rank 90th percentile");
    const auto window_sum = [&](std::size_t a, std::size_t b) { return sum_of(ramp, a, b); };
    expect(window_count(1000, 100) == 5 && window_count(250, 100) == 2 &&
               window_count(50, 100) == 1 && windowed_median(1000, 100, window_sum) == 100100.0,
           "windowed_median: at most 5 windows of at least min_window samples, median over them");
}

void test_fleet_thread_invariance(const FleetSpec& spec) {
    const FleetEpisode one = run_fleet_episode(spec, 1, 42);
    const FleetEpisode many = run_fleet_episode(spec, all_threads(), 42);
    bool same = one.epochs.size() == many.epochs.size() &&
                one.lambda_states == many.lambda_states &&
                one.sojourn_p99 == many.sojourn_p99;
    for (std::size_t i = 0; same && i < one.epochs.size(); ++i) {
        same = same_epoch_stats(one.epochs[i], many.epochs[i]);
    }
    expect(same, spec.name + ": EpochStats bit-identical at 1 and " +
                     std::to_string(all_threads()) + " threads (seed 42, K = 8)");

    const FleetEpisode other = run_fleet_episode(spec, all_threads(), 43);
    bool differs = other.lambda_states != many.lambda_states;
    for (std::size_t i = 0; !differs && i < other.epochs.size(); ++i) {
        differs = !same_epoch_stats(other.epochs[i], many.epochs[i]);
    }
    expect(differs, spec.name + ": seed 43 generates different inputs than seed 42");
}

void test_fleet_runs(const FleetSpec& spec) {
    const Report timed = run_fleet(spec, small_options(7, false));
    expect(timed.failed == 0 && timed.attempted > 0,
           spec.name + ": untraced run passes its checks");
    expect_metric_names(timed, spec.name + " untraced");
    const Report traced = run_fleet(spec, small_options(7, true));
    expect(check_passed(traced, "traced_equals_untraced"),
           spec.name + ": traced and untraced runs give identical simulated outputs");
    expect(check_passed(traced, "thread_invariance"),
           spec.name + ": traced run's thread-speedup probe is thread-invariant");
    expect_metric_names(traced, spec.name + " traced");
}

void test_ppo() {
    const PpoSpec spec = small_ppo();
    const auto one = run_ppo_iterations(spec, 1, 42, 2);
    const auto many = run_ppo_iterations(spec, all_threads(), 42, 2);
    bool same = one.size() == many.size();
    for (std::size_t i = 0; same && i < one.size(); ++i) {
        same = same_iteration_stats(one[i], many[i]);
    }
    expect(same, "ppo-train: iteration stats bit-identical at 1 and " +
                     std::to_string(all_threads()) + " threads (seed 42, num_envs 4)");
    const auto other = run_ppo_iterations(spec, all_threads(), 43, 1);
    expect(!same_iteration_stats(other[0], many[0]),
           "ppo-train: seed 43 generates different inputs than seed 42");

    const Report timed = run_ppo(spec, small_options(7, false));
    expect(timed.failed == 0 && timed.attempted > 0, "ppo-train: untraced run passes its checks");
    expect_metric_names(timed, "ppo-train untraced");
    const Report traced = run_ppo(spec, small_options(7, true));
    expect(check_passed(traced, "traced_equals_untraced"),
           "ppo-train: traced and untraced runs give identical training outputs");
    expect_metric_names(traced, "ppo-train traced");
}

void test_sweep() {
    const SweepSpec spec = small_sweep();
    const Report timed = run_sweep(spec, small_options(7, false));
    expect(timed.attempted == 9, "table1-sweep: one grid is nine operations");
    expect_metric_names(timed, "table1-sweep untraced");
    const Report traced = run_sweep(spec, small_options(7, true));
    expect(check_passed(traced, "traced_equals_untraced"),
           "table1-sweep: traced and untraced runs give identical evaluation outputs");
    expect_metric_names(traced, "table1-sweep traced");
    const Report other = run_sweep(spec, small_options(8, false));
    expect(other.output_digest != timed.output_digest,
           "table1-sweep: seed 8 generates different inputs than seed 7");
}

} // namespace

int main() {
    test_statistics();
    test_fleet_thread_invariance(small_sparse());
    test_fleet_thread_invariance(small_dense());
    test_fleet_runs(small_sparse());
    test_fleet_runs(small_dense());
    test_ppo();
    test_sweep();
    std::printf("%d failure(s)\n", g_failures);
    return g_failures == 0 ? 0 : 1;
}
