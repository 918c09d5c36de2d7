/**
 * @file
 * Benchmark entry point:
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--root DIR] [--trace-out FILE]
 *
 * Prints progress on stderr and, as the last line of stdout, one JSON
 * object: {"correct", "attempted", "failed", "metrics": {name:
 * {"value", "unit"}}}. Exits non-zero, printing no result, on bad
 * arguments or when a workload cannot run.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

namespace {

perfbench::Options
parseArgs(int argc, char **argv)
{
    perfbench::Options options;
    bool has_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + key);
        const std::string value = argv[++i];
        if (key == "--workload") {
            options.workload = value;
            has_workload = true;
        } else if (key == "--seed") {
            options.seed = std::stoull(value);
        } else if (key == "--seconds") {
            options.seconds = std::stod(value);
            if (!(options.seconds > 0.0))
                throw std::invalid_argument("--seconds must be > 0");
        } else if (key == "--trace") {
            if (value != "0" && value != "1")
                throw std::invalid_argument("--trace must be 0 or 1");
            options.trace = value == "1";
        } else if (key == "--root") {
            options.repoRoot = value;
        } else if (key == "--trace-out") {
            options.traceOut = value;
        } else {
            throw std::invalid_argument("unknown argument " + key);
        }
    }
    if (!has_workload)
        throw std::invalid_argument("--workload is required");
    return options;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const perfbench::Outcome outcome =
            perfbench::runWorkload(parseArgs(argc, argv));
        std::string line = "{\"correct\": ";
        line += outcome.correct ? "true" : "false";
        line += ", \"attempted\": " + std::to_string(outcome.attempted);
        line += ", \"failed\": " + std::to_string(outcome.failed);
        line += ", \"metrics\": {";
        char value[64];
        for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
            const perfbench::Metric &m = outcome.metrics[i];
            if (!std::isfinite(m.value))
                throw std::runtime_error("metric " + m.name +
                                         " is not finite");
            std::snprintf(value, sizeof(value), "%.17g", m.value);
            line += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
                    value + ", \"unit\": \"" + m.unit + "\"}";
        }
        line += "}}";
        std::printf("%s\n", line.c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: error: %s\n", e.what());
        return 1;
    }
}
