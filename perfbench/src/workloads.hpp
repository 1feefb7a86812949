/// \file workloads.hpp
/// The four benchmark workloads. Each is a fixed batch of work whose size
/// is a function of the requested seconds only (calibrated on the reference
/// host, never adapted to the running host), so two commits measured with
/// the same settings do identical work. See perfbench/README.md for why
/// each workload exists and which layers it loads.
#pragma once

#include "harness.hpp"

#include "queueing/finite_system.hpp"
#include "queueing/system_base.hpp"
#include "rl/ppo.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Output check applied to every fleet episode.
enum class FleetCheck {
    PoissonArrivals, ///< accepted + dropped within 5 sigma of sum_t M lambda_t dt.
    Theorem1,        ///< drops/queue vs the lambda-conditioned MfcEnv, sojourn p99.
};

/// `ShardedDesSystem` fleet workload (fleet-sparse / fleet-dense).
struct FleetSpec {
    std::string name;
    std::size_t queues = 0;
    mflb::ClientModel client_model = mflb::ClientModel::InfiniteClients;
    std::uint64_t clients = 0;
    double lambda_high = 0.9; ///< per-queue arrival levels of the two-state chain.
    double lambda_low = 0.6;
    double dt = 1.0;
    int horizon = 40; ///< epochs per episode.
    bool track_sojourn = false;
    std::size_t shards = 8;
    double episodes_per_second = 1.0; ///< batch size per requested second.
    int setup_reps = 5;
    int warmup_epochs = 40;           ///< untimed epochs before the batch.
    int speedup_epochs = 20;          ///< epochs per side of des.thread_speedup.
    int replay_every = 1;             ///< traced mode: layer replays every n epochs.
    FleetCheck check = FleetCheck::PoissonArrivals;
    double theorem1_rel_tol = 0.10;
};
FleetSpec fleet_sparse_spec();
FleetSpec fleet_dense_spec();
mflb::FiniteSystemConfig fleet_config(const FleetSpec& spec, std::size_t threads);

/// One fleet episode's outputs (what the determinism tests compare).
struct FleetEpisode {
    std::vector<mflb::EpochStats> epochs;
    std::vector<std::size_t> lambda_states;
    double sojourn_p99 = 0.0;
};
/// Runs one episode from a fresh reset at `threads` threads (no timing);
/// the self-test's (seed, K) thread-invariance probe.
FleetEpisode run_fleet_episode(const FleetSpec& spec, std::size_t threads, std::uint64_t seed);
bool same_epoch_stats(const mflb::EpochStats& a, const mflb::EpochStats& b);

Report run_fleet(const FleetSpec& spec, const RunOptions& options);

/// `rl::PpoTrainer` on `MfcRlEnv` (ppo-train).
struct PpoSpec {
    std::string name = "ppo-train";
    double dt = 5.0;
    int horizon = 50;
    std::size_t train_batch = 1024;
    std::size_t minibatch = 128;
    std::size_t sgd_epochs = 4;
    std::size_t num_envs = 4;
    double iterations_per_second = 1.0;
    int setup_reps = 5;
    int speedup_reps = 3; ///< collects per side of rl.collect_thread_speedup.
};
PpoSpec ppo_train_spec();
mflb::rl::PpoConfig ppo_config(const PpoSpec& spec, std::size_t threads);
/// Builds the trainer and runs `iterations` train_iteration() calls at
/// `threads` threads (the self-test's thread-invariance probe).
std::vector<mflb::rl::PpoIterationStats> run_ppo_iterations(const PpoSpec& spec,
                                                            std::size_t threads,
                                                            std::uint64_t seed,
                                                            std::size_t iterations);
bool same_iteration_stats(const mflb::rl::PpoIterationStats& a,
                          const mflb::rl::PpoIterationStats& b);

Report run_ppo(const PpoSpec& spec, const RunOptions& options);

/// The Fig. 5 grid at Table 1 (table1-sweep).
struct SweepSpec {
    std::string name = "table1-sweep";
    std::size_t queues = 100;
    std::uint64_t clients = 10000;
    std::vector<double> dts = {1.0, 5.0, 10.0};
    std::size_t replications = 32;
    double grids_per_second = 1.0;
    int setup_reps = 5;
    double agreement_rel_tol = 0.05; ///< finite vs MFC JSQ(2), on top of both CIs.
};
SweepSpec table1_sweep_spec();

Report run_sweep(const SweepSpec& spec, const RunOptions& options);

/// A finished run: the report with its metrics in canonical order, and
/// the host block it was measured on.
struct RunResult {
    Report report;
    HostInfo host;
};
/// Runs the named workload, probes the host (after the measurement, so
/// the probes never count towards peak_rss_mb) and finalizes the metrics.
/// Throws std::invalid_argument for an unknown name.
RunResult run_workload(const std::string& name, const RunOptions& options);

/// Batch size for `per_second` operations per requested second (>= 1).
std::size_t batch_size(double per_second, double seconds);

} // namespace perfbench
