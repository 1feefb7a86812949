/// Benchmark binary: one workload, one seed, one mode per process.
///
///   mflb_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///                  [--out-dir <dir>]
///
/// Prints the run's artifact (host/build block, checks, sample counts) and,
/// as the last line of stdout, the result object
/// {"correct", "attempted", "failed", "metrics"}. Exit codes: 0 = the run
/// completed (a failed output check shows as correct = false), 1 = the run
/// could not complete, 2 = bad arguments.
#include "workloads.hpp"

#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>

namespace {

void usage() {
    std::fprintf(stderr,
                 "usage: mflb_perfbench --workload <fleet-sparse|fleet-dense|ppo-train|"
                 "table1-sweep> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n");
}

bool parse_number(const std::string& text, double& out) {
    try {
        std::size_t used = 0;
        out = std::stod(text, &used);
        return used == text.size();
    } catch (const std::exception&) {
        return false;
    }
}

} // namespace

int main(int argc, char** argv) {
    using namespace perfbench;
    RunOptions options;
    std::string workload;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--help" || flag == "-h") {
            usage();
            return 0;
        }
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", flag.c_str());
            usage();
            return 2;
        }
        const std::string value = argv[++i];
        double number = 0.0;
        if (flag == "--workload") {
            workload = value;
        } else if (flag == "--out-dir") {
            options.out_dir = value;
        } else if (!parse_number(value, number)) {
            std::fprintf(stderr, "bad value '%s' for %s\n", value.c_str(), flag.c_str());
            return 2;
        } else if (flag == "--seed" && number >= 0 && number < 1.8e19 &&
                   number == std::floor(number)) {
            options.seed = static_cast<std::uint64_t>(number);
        } else if (flag == "--seconds" && number > 0 && number <= 600) {
            options.seconds = number;
        } else if (flag == "--trace" && (number == 0 || number == 1)) {
            options.trace = number == 1;
        } else {
            std::fprintf(stderr, "bad flag or value: %s %s\n", flag.c_str(), value.c_str());
            usage();
            return 2;
        }
    }
    if (workload.empty()) {
        usage();
        return 2;
    }
    try {
        const RunResult result = run_workload(workload, options);
        const std::string artifact = render_artifact(result.report, result.host);
        if (!options.out_dir.empty()) {
            const std::string path = options.out_dir + "/" + workload + "-seed" +
                                     std::to_string(options.seed) + "-trace" +
                                     (options.trace ? "1" : "0") + ".json";
            std::ofstream(path) << artifact << "\n";
        }
        std::printf("%s\n%s\n", artifact.c_str(), render_result_line(result.report).c_str());
        return 0;
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        usage();
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
