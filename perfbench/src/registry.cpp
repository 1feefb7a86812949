#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

std::size_t batch_size(double per_second, double seconds) {
    return std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(per_second * seconds)));
}

RunResult run_workload(const std::string& name, const RunOptions& options) {
    RunResult result;
    if (name == "fleet-sparse") {
        result.report = run_fleet(fleet_sparse_spec(), options);
    } else if (name == "fleet-dense") {
        result.report = run_fleet(fleet_dense_spec(), options);
    } else if (name == "ppo-train") {
        result.report = run_ppo(ppo_train_spec(), options);
    } else if (name == "table1-sweep") {
        result.report = run_sweep(table1_sweep_spec(), options);
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    Report& report = result.report;
    result.host = probe_host();
    if (report.trace) {
        add_host_metrics(report, result.host);
        const Metric* prefix = report.find("math.prefix_gbps");
        if (prefix != nullptr && result.host.stream_gbps > 0.0) {
            report.metric("math.prefix_stream_share", prefix->value / result.host.stream_gbps,
                          "ratio");
        }
    }
    finalize_metrics(report);
    return result;
}

} // namespace perfbench
