#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

double quantile(std::vector<double> values, double q) {
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const auto n = static_cast<double>(values.size());
    const auto rank = static_cast<std::size_t>(std::ceil(q * n));
    return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> values) {
    if (values.empty()) {
        return 0.0;
    }
    const std::size_t mid = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                     values.end());
    const double upper = values[mid];
    if (values.size() % 2 == 1) {
        return upper;
    }
    const double lower =
        *std::max_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
    return 0.5 * (lower + upper);
}

std::size_t window_count(std::size_t n, std::size_t min_window) {
    constexpr std::size_t kMaxWindows = 5;
    return std::clamp<std::size_t>(n / std::max<std::size_t>(1, min_window), 1, kMaxWindows);
}

double windowed_median(std::size_t n, std::size_t min_window,
                       const std::function<double(std::size_t, std::size_t)>& per_window) {
    const std::size_t windows = window_count(n, min_window);
    std::vector<double> values;
    for (std::size_t w = 0; w < windows; ++w) {
        values.push_back(per_window(w * n / windows, (w + 1) * n / windows));
    }
    return median(values);
}

double sum_of(const std::vector<double>& values, std::size_t first, std::size_t last) {
    double s = 0.0;
    for (std::size_t i = first; i < last; ++i) {
        s += values[i];
    }
    return s;
}

std::vector<double> concat(const std::vector<std::vector<double>>& parts, std::size_t first,
                           std::size_t last) {
    std::vector<double> all;
    for (std::size_t i = first; i < last; ++i) {
        all.insert(all.end(), parts[i].begin(), parts[i].end());
    }
    return all;
}

double slice_quantile(const std::vector<double>& values, std::size_t first, std::size_t last,
                      double q) {
    return quantile(std::vector<double>(values.begin() + static_cast<std::ptrdiff_t>(first),
                                        values.begin() + static_cast<std::ptrdiff_t>(last)),
                    q);
}

std::size_t probe_threads() {
    return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

void Digest::add(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xffu;
        h_ *= 0x100000001b3ULL;
    }
}

void Digest::add(double v) noexcept {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    add(bits);
}

double SpanLog::micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
}

SpanLog::Id SpanLog::open(const char* name, Id parent, Clock::time_point t0) {
    if (!enabled_) {
        return 0;
    }
    const auto thread =
        static_cast<std::uint32_t>(std::hash<std::thread::id>{}(std::this_thread::get_id()));
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, parent, thread, micros(t0), micros(t0)});
    return static_cast<Id>(spans_.size());
}

void SpanLog::close(Id id, Clock::time_point t1) {
    if (id == 0) {
        return;
    }
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].t1_us = micros(t1);
}

std::size_t SpanLog::size() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

bool SpanLog::write(const std::string& path) const {
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> child_us(spans_.size() + 1, 0.0);
    for (const Span& s : spans_) {
        child_us[s.parent] += s.t1_us - s.t0_us;
    }
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        const double dur = s.t1_us - s.t0_us;
        std::snprintf(buf, sizeof(buf),
                      "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                      "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%u,\"self_us\":%.3f}}",
                      i == 0 ? "" : ",", s.name, s.thread, s.t0_us, dur, i + 1, s.parent,
                      dur - child_us[i + 1]);
        out << buf;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

namespace {

/// Integer busy loop for the capacity probe (no memory traffic).
std::uint64_t spin(std::uint64_t iterations, std::uint64_t x) {
    for (std::uint64_t i = 0; i < iterations; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    return x;
}

std::atomic<std::uint64_t> g_sink{0};

/// Wall time for `k` threads each spinning `iterations` steps.
double spin_wall(std::size_t k, std::uint64_t iterations) {
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> workers;
    workers.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
        workers.emplace_back([iterations, i] {
            g_sink.fetch_add(spin(iterations, 0x9e3779b97f4a7c15ULL + i),
                             std::memory_order_relaxed);
        });
    }
    for (std::thread& w : workers) {
        w.join();
    }
    return seconds_since(t0);
}

double measure_parallel_capacity(std::size_t threads, int reps) {
    constexpr std::uint64_t kIterations = 20'000'000; // ~25 ms per thread.
    std::vector<double> one;
    std::vector<double> many;
    for (int r = 0; r < reps; ++r) {
        one.push_back(spin_wall(1, kIterations));
        many.push_back(spin_wall(threads, kIterations));
    }
    return static_cast<double>(threads) * median(one) / median(many);
}

} // namespace

HostInfo probe_host() {
    HostInfo host;
    host.nproc = std::max(1u, std::thread::hardware_concurrency());
    host.probe_threads = probe_threads();
    host.parallel_capacity = measure_parallel_capacity(host.probe_threads, 5);

    const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
    host.llc_mb = llc > 0 ? static_cast<double>(llc) / (1024.0 * 1024.0) : 0.0;
    // Arrays of 4x the LLC would need 2 x 1.2 GiB on a 300 MiB-LLC host;
    // the probe caps each array at 512 MiB to bound memory on shared
    // machines. Both sizes are in the artifact, so a cache-assisted
    // figure is visible as such.
    const double want_mb = std::max(64.0, 4.0 * host.llc_mb);
    host.stream_array_mb = std::min(512.0, want_mb);
    const auto n = static_cast<std::size_t>(host.stream_array_mb * 1024.0 * 1024.0 / 8.0);
    std::vector<double> a(n, 1.0);
    std::vector<double> b(n, 0.0);
    std::vector<double> walls;
    for (int r = 0; r < 5; ++r) {
        a[static_cast<std::size_t>(r)] = static_cast<double>(r);
        const Clock::time_point t0 = Clock::now();
        std::memcpy(b.data(), a.data(), n * sizeof(double));
        walls.push_back(seconds_since(t0));
        g_sink.fetch_add(static_cast<std::uint64_t>(b[static_cast<std::size_t>(r)]),
                         std::memory_order_relaxed);
    }
    host.stream_gbps = 2.0 * static_cast<double>(n * sizeof(double)) / median(walls) / 1e9;
    return host;
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

bool Report::check(std::string name, bool ok, std::string detail_text) {
    checks.push_back({std::move(name), ok, std::move(detail_text)});
    return ok;
}

const Metric* Report::find(const std::string& name) const {
    for (const Metric& m : metrics) {
        if (m.name == name) {
            return &m;
        }
    }
    return nullptr;
}

const std::vector<MetricSpec>& end_to_end_metrics() {
    static const std::vector<MetricSpec> specs = {
        {"setup_s", "s"},         {"sim_time_per_s", "1/s"},   {"epoch_ms_p50", "ms"},
        {"epoch_ms_p90", "ms"},   {"iter_s_p50", "s"},         {"train_steps_per_s", "1/s"},
        {"sweep_s", "s"},         {"peak_rss_mb", "MB"},
    };
    return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
    static const std::vector<MetricSpec> specs = {
        {"des.step_ms", "ms"},
        {"des.events", "count"},
        {"des.ns_per_event", "ns"},
        {"des.reset_s", "s"},
        {"des.thread_speedup", "x"},
        {"field.observe_us", "us"},
        {"field.routing_law_ms", "ms"},
        {"field.routing_law_gbps", "GB/s"},
        {"math.prefix_gbps", "GB/s"},
        {"math.prefix_stream_share", "ratio"},
        {"math.stream_gbps", "GB/s"},
        {"field.mfc_step_us", "us"},
        {"rl.collect_s", "s"},
        {"rl.collect_steps_per_s", "1/s"},
        {"rl.update_s", "s"},
        {"rl.update_samples_per_s", "1/s"},
        {"rl.collect_thread_speedup", "x"},
        {"queueing.finite_epoch_us", "us"},
        {"core.fanout_efficiency", "ratio"},
        {"support.host_parallel_capacity", "x"},
        {"trace.overhead_epoch_ms", "ms"},
        {"trace.overhead_iter_s", "s"},
        {"trace.overhead_sweep_s", "s"},
    };
    return specs;
}

void finalize_metrics(Report& report) {
    const std::vector<MetricSpec>& specs =
        report.trace ? per_layer_metrics() : end_to_end_metrics();
    std::vector<Metric> ordered;
    ordered.reserve(specs.size());
    for (const MetricSpec& spec : specs) {
        const Metric* found = report.find(spec.name);
        if (found == nullptr && !report.trace) {
            throw std::logic_error(std::string("end-to-end metric not measured: ") + spec.name);
        }
        ordered.push_back({spec.name, found != nullptr ? found->value : 0.0, spec.unit});
    }
    report.metrics = std::move(ordered);
}

void add_host_metrics(Report& report, const HostInfo& host) {
    report.metric("support.host_parallel_capacity", host.parallel_capacity, "x");
    report.metric("math.stream_gbps", host.stream_gbps, "GB/s");
}

namespace {

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string json_number(double v) {
    if (!std::isfinite(v)) {
        return "null";
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string env_or(const char* name, const char* fallback) {
    const char* v = std::getenv(name);
    return v != nullptr && *v != '\0' ? v : fallback;
}

std::string metrics_object(const std::vector<Metric>& metrics) {
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out += (i == 0 ? "" : ", ") + json_string(metrics[i].name) +
               ": {\"value\": " + json_number(metrics[i].value) +
               ", \"unit\": " + json_string(metrics[i].unit) + "}";
    }
    return out + "}";
}

} // namespace

std::string render_artifact(const Report& report, const HostInfo& host) {
#ifdef NDEBUG
    const bool asserts = false;
#else
    const bool asserts = true;
#endif
    const std::string build_type = PERFBENCH_BUILD_TYPE;
    const bool release = build_type == "Release" && !asserts;
    std::ostringstream out;
    out << "{\"artifact\": \"mflb-perfbench\", \"workload\": " << json_string(report.workload)
        << ", \"seed\": " << report.seed << ", \"trace\": " << (report.trace ? 1 : 0)
        << ",\n \"build\": {\"label\": "
        << json_string(release ? "Release build, assertions off"
                               : "NOT A RELEASE NUMBER: " + build_type +
                                     (asserts ? " build, assertions on" : " build"))
        << ", \"build_type\": " << json_string(build_type)
        << ", \"assertions\": " << (asserts ? "true" : "false")
        << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
        << ", \"cxx_flags\": " << json_string(PERFBENCH_CXX_FLAGS)
        << ", \"git_sha\": " << json_string(env_or("PERFBENCH_GIT_SHA", "unavailable"))
        << ", \"source_sha256\": "
        << json_string(env_or("PERFBENCH_SOURCE_SHA256", "unavailable")) << "},\n \"host\": {"
        << "\"nproc\": " << host.nproc << ", \"threads\": " << host.threads
        << ", \"probe_threads\": " << host.probe_threads
        << ", \"host_parallel_capacity\": " << json_number(host.parallel_capacity)
        << ", \"stream_gbps\": " << json_number(host.stream_gbps)
        << ", \"stream_array_mb\": " << json_number(host.stream_array_mb)
        << ", \"llc_mb\": " << json_number(host.llc_mb) << "},\n \"checks\": [";
    for (std::size_t i = 0; i < report.checks.size(); ++i) {
        const Check& c = report.checks[i];
        out << (i == 0 ? "" : ",") << "\n  {\"name\": " << json_string(c.name)
            << ", \"ok\": " << (c.ok ? "true" : "false")
            << ", \"detail\": " << json_string(c.detail) << "}";
    }
    out << "],\n \"details\": {";
    for (std::size_t i = 0; i < report.details.size(); ++i) {
        out << (i == 0 ? "" : ", ") << json_string(report.details[i].first) << ": "
            << json_number(report.details[i].second);
    }
    out << "},\n \"attempted\": " << report.attempted << ", \"failed\": " << report.failed
        << ", \"output_digest\": \"" << std::hex << report.output_digest << std::dec << "\""
        << ",\n \"metrics\": " << metrics_object(report.metrics) << "}";
    return out.str();
}

std::string render_result_line(const Report& report) {
    std::ostringstream out;
    out << "{\"correct\": " << (report.failed == 0 ? "true" : "false")
        << ", \"attempted\": " << report.attempted << ", \"failed\": " << report.failed
        << ", \"metrics\": " << metrics_object(report.metrics) << "}";
    return out.str();
}

} // namespace perfbench
