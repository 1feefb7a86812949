/// \file harness.hpp
/// Measurement plumbing shared by the benchmark workloads: clocks and
/// order statistics, the in-memory span log of the traced mode, host and
/// build probes, and the report that becomes the run's artifact and its
/// final JSON result line. Nothing here reaches inside the library: every
/// number is taken around calls into its public API.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point t0, Clock::time_point t1) {
    return std::chrono::duration<double>(t1 - t0).count();
}
inline double seconds_since(Clock::time_point t0) { return seconds_between(t0, Clock::now()); }

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 when empty.
double quantile(std::vector<double> values, double q);
/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> values);

/// Robust summary of a run's samples, kept in measurement order: cuts the
/// n samples into W = clamp(n / min_window, 1, 5) consecutive windows,
/// evaluates `per_window(first, last)` on each [first, last) and returns
/// the median over windows. A burst of host interference (the shared
/// hosts this runs on steal whole milliseconds from a vCPU) that covers
/// fewer than half the windows does not move the result.
double windowed_median(std::size_t n, std::size_t min_window,
                       const std::function<double(std::size_t, std::size_t)>& per_window);
/// The W that windowed_median uses.
std::size_t window_count(std::size_t n, std::size_t min_window);
/// Sum of values[first, last).
double sum_of(const std::vector<double>& values, std::size_t first, std::size_t last);
/// parts[first] ++ ... ++ parts[last - 1].
std::vector<double> concat(const std::vector<std::vector<double>>& parts, std::size_t first,
                           std::size_t last);
/// Quantile of values[first, last).
double slice_quantile(const std::vector<double>& values, std::size_t first, std::size_t last,
                      double q);

/// Worker threads of every timed run: the sharded epoch phase, the rollout
/// fan-out and the replication fan-out all run on one thread, because
/// multi-threaded wall time on an oversubscribed VM measures the
/// hypervisor (see perfbench/README.md, "Threads").
constexpr std::size_t kTimedThreads = 1;
/// Threads of the traced mode's scaling probes (thread speedups, fan-out
/// efficiency, host capacity): min(4, hardware threads).
std::size_t probe_threads();

/// Mixes doubles/integers into a 64-bit digest of a run's simulated
/// outputs (bit patterns, so any difference in any output shows).
class Digest {
public:
    void add(double v) noexcept;
    void add(std::uint64_t v) noexcept;
    std::uint64_t value() const noexcept { return h_; }

private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// In-memory span log of the traced mode: name, start, end, parent. Spans
/// are recorded after the fact (the caller already timed the call) and
/// written once, at exit, as a Chrome trace-event file whose args carry
/// each span's self time (duration minus the time its children cover).
class SpanLog {
public:
    using Id = std::uint32_t; ///< 0 = no parent.

    explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
    bool enabled() const noexcept { return enabled_; }

    /// Opens a span starting at t0 under `parent`; returns its id (0 when
    /// disabled). Thread-safe, like close and record.
    Id open(const char* name, Id parent, Clock::time_point t0);
    void close(Id id, Clock::time_point t1);
    /// open + close for a call the caller already timed.
    Id record(const char* name, Id parent, Clock::time_point t0, Clock::time_point t1) {
        const Id id = open(name, parent, t0);
        close(id, t1);
        return id;
    }
    /// Writes the Chrome trace-event JSON; returns false on I/O failure.
    bool write(const std::string& path) const;
    std::size_t size() const;

private:
    struct Span {
        const char* name;
        Id parent;
        std::uint32_t thread;
        double t0_us;
        double t1_us;
    };
    double micros(Clock::time_point t) const;

    bool enabled_;
    Clock::time_point origin_;
    mutable std::mutex mu_; ///< guards spans_.
    std::vector<Span> spans_;
};

/// One named value with its unit.
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// One output check of one operation batch.
struct Check {
    std::string name;
    bool ok = true;
    std::string detail;
};

/// Host and build facts recorded in every artifact.
struct HostInfo {
    unsigned nproc = 0;
    std::size_t threads = kTimedThreads; ///< the timed runs' worker threads.
    std::size_t probe_threads = 0; ///< k of the capacity and speedup probes.
    double parallel_capacity = 0;  ///< k busy threads' throughput / one thread's.
    double stream_gbps = 0;        ///< single-thread copy bandwidth (read + write).
    double stream_array_mb = 0;    ///< size of each copy array.
    double llc_mb = 0;             ///< last-level cache size (0 = unknown).
};
/// Measures capacity (at probe_threads()) and copy bandwidth.
HostInfo probe_host();

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// Everything a run reports. `metrics` go into the final result line; the
/// rest (checks, sample counts, host block) into the artifact.
struct Report {
    std::string workload;
    std::uint64_t seed = 0;
    bool trace = false;
    std::vector<Metric> metrics;
    std::vector<Check> checks;
    std::vector<std::pair<std::string, double>> details; ///< sample counts, sizes.
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::uint64_t output_digest = 0; ///< digest of the simulated outputs.

    void metric(std::string name, double value, std::string unit) {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    void detail(std::string name, double value) { details.emplace_back(std::move(name), value); }
    /// Records a check; returns `ok`.
    bool check(std::string name, bool ok, std::string detail_text);
    const Metric* find(const std::string& name) const;
};

/// Run options shared by all workloads.
struct RunOptions {
    std::uint64_t seed = 1;
    double seconds = 20.0; ///< sizes the fixed batch (see each workload).
    bool trace = false;
    std::string out_dir;   ///< artifact / trace directory ("" = none).
};

/// Name and unit of every metric a mode reports, in BENCHMARK.json order.
struct MetricSpec {
    const char* name;
    const char* unit;
};
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();
/// Puts `report.metrics` in the mode's canonical order with its units.
/// Per-layer metrics of layers the workload does not run are reported as
/// 0; a missing end-to-end metric is a bug and throws std::logic_error.
void finalize_metrics(Report& report);

/// Renders the artifact (host block, checks, details, metrics).
std::string render_artifact(const Report& report, const HostInfo& host);
/// Renders the final result line {"correct","attempted","failed","metrics"}.
std::string render_result_line(const Report& report);

/// Appends the host-level per-layer metrics and host facts to `report`.
void add_host_metrics(Report& report, const HostInfo& host);

} // namespace perfbench
