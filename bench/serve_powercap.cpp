/**
 * @file
 * Flash crowd under a cluster power cap: the "serve-flashcrowd"
 * preset (quiet baseline, then an 8x arrival burst) replayed on a
 * 4-instance EDF cluster uncapped and under two watt budgets chosen
 * around the cluster's concurrency steps — ~21 W admits three
 * concurrent batches, ~15 W two. Reports tail latency, deferred
 * placements, and the modeled peak/mean cluster draw per case, and
 * *asserts* the control-plane contract the PR promises: at no event
 * time does the summed modeled draw exceed the cap (exit 1 on
 * violation — this harness is the CI gate's teeth, not just its
 * numbers).
 *
 * With --json PATH the harness writes the machine-readable
 * BENCH_powercap.json consumed by ci/check_bench_regression.py. All
 * gated metrics derive from simulated cycles and the deterministic
 * energy model, so they are portable across CI hosts.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "bench/common.hpp"
#include "serve/scheduler.hpp"

using namespace hygcn;
using namespace hygcn::bench;

namespace {

struct CapCase
{
    std::string name;
    double capWatts = 0.0; // 0 = uncapped
};

serve::ServeConfig
powercapWorkload(double cap_watts)
{
    serve::ServeConfig config =
        api::Registry::global().makeWorkload("serve-flashcrowd");
    // EDF on a wider cluster than the preset's two instances, so the
    // cap has concurrency steps to bite into (each batch draws ~6.9 W
    // here; four replicas peak near 27.7 W).
    config.policy = "edf";
    config.instances = 4;
    config.control.powerCapWatts = cap_watts;
    return config;
}

/**
 * The modeled cluster draw reconstructed from the batch records as a
 * step function (each batch draws joules * clock / service watts from
 * dispatch to completion); returns its peak. Independent of the
 * scheduler's own accounting, so the assert below cross-checks
 * peakClusterWatts rather than trusting it.
 */
double
reconstructedPeakWatts(const serve::ServeResult &result)
{
    std::map<Cycle, double> deltas;
    for (const serve::BatchRecord &batch : result.batches) {
        const Cycle service = batch.completion - batch.dispatch;
        if (service == 0)
            continue;
        const double watts = batch.joules * result.clockHz /
                             static_cast<double>(service);
        deltas[batch.dispatch] += watts;
        deltas[batch.completion] -= watts;
    }
    double current = 0.0;
    double peak = 0.0;
    for (const auto &[cycle, delta] : deltas) {
        current += delta;
        peak = std::max(peak, current);
    }
    return peak;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];

    banner("serve_powercap",
           "flash crowd under a cluster power cap (serve-flashcrowd "
           "preset, EDF, 4 HyGCN instances)");

    // "uncapped" carries a budget far above the ~27.7 W whole-cluster
    // draw: it engages the watt accounting (a true 0 turns the
    // control plane off entirely) without ever refusing a placement.
    const std::vector<CapCase> cases = {
        {"uncapped", 1000.0}, {"cap21w", 21.0}, {"cap15w", 15.0}};

    std::printf("\nstream: 192 requests, 8x burst at 1 Mcycles; cap "
                "enforced on the summed per-batch draw\n");
    header("case", {"cap W", "peak W", "mean W", "deferred",
                    "p99 kcyc", "slo miss"});

    bool violation = false;
    std::vector<std::pair<CapCase, serve::ServeStats>> series;
    for (const CapCase &cap_case : cases) {
        const serve::ServeResult result =
            serve::runServe(powercapWorkload(cap_case.capWatts));
        const serve::ServeStats &stats = result.stats;
        row(cap_case.name,
            {cap_case.capWatts, stats.peakClusterWatts,
             stats.meanClusterWatts,
             static_cast<double>(stats.powerDeferredBatches),
             stats.p99LatencyCycles / 1e3,
             static_cast<double>(
                 stats.tenantStats.at(0).sloViolations)});
        // The contract: capped runs never exceed the budget, by the
        // scheduler's accounting *and* by independent reconstruction
        // from the emitted batch records.
        if (cap_case.capWatts > 0.0) {
            const double reconstructed = reconstructedPeakWatts(result);
            const double bound = cap_case.capWatts * (1.0 + 1e-9);
            if (stats.peakClusterWatts > bound ||
                reconstructed > bound) {
                std::fprintf(stderr,
                             "VIOLATION: %s peak %.4f W "
                             "(reconstructed %.4f W) exceeds the "
                             "%.2f W cap\n",
                             cap_case.name.c_str(),
                             stats.peakClusterWatts, reconstructed,
                             cap_case.capWatts);
                violation = true;
            }
        }
        series.emplace_back(cap_case, stats);
    }

    if (violation)
        return 1;
    std::printf("\nmodeled cluster draw stayed within every cap; "
                "tighter budgets trade tail latency for watts\n");

    if (!json_path.empty()) {
        JsonWriter w;
        w.beginObject().field("bench", "serve_powercap").key("series");
        w.array(series, [&](const auto &point) {
            const serve::ServeStats &s = point.second;
            w.beginObject()
                .field("case", point.first.name)
                .field("cap_watts", point.first.capWatts)
                .field("peak_cluster_watts", s.peakClusterWatts)
                .field("mean_cluster_watts", s.meanClusterWatts)
                .field("power_deferred_batches", s.powerDeferredBatches)
                .field("p99_latency_cycles", s.p99LatencyCycles)
                .field("interactive_slo_violations",
                       s.tenantStats.at(0).sloViolations)
                .endObject();
        });
        if (!writeJson(json_path, w.endObject().str()))
            return 1;
    }
    return 0;
}
