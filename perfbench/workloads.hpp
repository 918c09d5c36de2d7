/**
 * @file
 * The benchmark's workloads and the traced layer ledger. Each
 * workload is a closed loop: one op at a time from one thread, with
 * kernel threads fixed at 1.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /** Checkout root: where bench/baselines/ is read from. */
    std::string repoRoot = ".";
    /** Where the Chrome trace is written when tracing (may be empty). */
    std::string traceOut;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Outcome of one run: the benchmark's last output line. */
struct Outcome
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
};

/**
 * Run @p options.workload: repeated set-ups, then timed passes for
 * about options.seconds. Untraced runs report the end-to-end metrics;
 * traced runs report the per-layer ledger. Throws on unknown names.
 */
Outcome runWorkload(const Options &options);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
