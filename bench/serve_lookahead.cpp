/**
 * @file
 * Queue-aware lookahead routing on a two-class cluster shaped like a
 * real fleet refresh: a current-generation accelerator that is both
 * the fastest and the most energy-efficient class, next to a
 * kept-for-capacity legacy class that is slower *and* hotter. Under
 * the energy objective, greedy free-instance routing spills every
 * batch that finds the good class momentarily busy onto the legacy
 * one — paying more joules and a longer service time for the
 * privilege. Lookahead routing scores the busy class at its
 * wait-until-free horizon (delay-damped energy), holds the batch for
 * the good class while the wait is cheaper than the spill, and lets
 * the held batch keep accumulating co-batchable arrivals — the
 * classic heterogeneous-server result that work-conserving greedy
 * dispatch is the wrong policy when the spare server is slow.
 *
 * The harness runs greedy vs lookahead vs lookahead+affinity on the
 * same Poisson stream and *asserts* the dominance contract the PR
 * promises: lookahead total joules <= greedy AND lookahead p99 <=
 * greedy (exit 1 on violation — this harness is the CI gate's teeth,
 * not just its numbers).
 *
 * With --json PATH the harness writes the machine-readable
 * BENCH_lookahead.json consumed by ci/check_bench_regression.py;
 * --baseline PATH writes the same document as the checked-in
 * baseline (every gated metric derives from simulated cycles and the
 * deterministic energy model, so no derating is needed).
 */

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "bench/common.hpp"
#include "serve/scheduler.hpp"

using namespace hygcn;
using namespace hygcn::bench;

namespace {

/** Deterministic stub accelerator (fixed cycles/joules per
 *  inference, linear in co-batch copies) so the bench is free of
 *  host noise and model retuning: the routing policy is the only
 *  variable. */
class StubPlatform : public api::Platform
{
  public:
    StubPlatform(std::string name, Cycle cycles, double joules)
        : name_(std::move(name)), cycles_(cycles), joules_(joules)
    {
    }

    std::string name() const override { return name_; }

    api::RunResult run(const api::RunSpec &spec) const override
    {
        api::RunResult out;
        out.spec = spec;
        out.report.platform = name_;
        out.report.cycles = cycles_ * spec.batchCopies;
        out.report.clockHz = 1e9;
        out.report.energy.charge(
            "stub", joules_ * 1e12 *
                        static_cast<double>(spec.batchCopies));
        return out;
    }

  private:
    std::string name_;
    Cycle cycles_;
    double joules_;
};

void
registerCluster()
{
    api::Registry &registry = api::Registry::global();
    if (registry.hasPlatform("bench-la-current"))
        return;
    // The 1.6x joules ratio is the design point: the delay-damped
    // energy score holds for the good class only while its wait
    // stays under 0.6x the batch's service time there, so a deep
    // backlog still spills to the legacy class instead of queueing
    // unboundedly.
    registry.registerPlatform("bench-la-current", [] {
        return std::make_unique<StubPlatform>("bench-la-current",
                                              1000000, 1.0);
    });
    registry.registerPlatform("bench-la-legacy", [] {
        return std::make_unique<StubPlatform>("bench-la-legacy",
                                              2500000, 1.6);
    });
}

struct RoutingCase
{
    std::string name;
    bool lookahead = false;
    double affinityMargin = 0.0;
};

serve::ServeConfig
lookaheadWorkload(const RoutingCase &routing_case)
{
    serve::ServeConfig config;
    config.cluster.classes = {{"bench-la-current", 1, {}, "current"},
                              {"bench-la-legacy", 1, {}, "legacy"}};
    config.scenarios = {{"bench-la/gcn", {}}};
    config.numRequests = 4000;
    // Sustained load heavy enough that the good class is busy at
    // most dispatch instants (so greedy keeps spilling onto the
    // legacy class), light enough that either routing serves every
    // request.
    config.meanInterarrivalCycles = 550000.0;
    config.batching.maxBatch = 8;
    // A short fill timeout: greedy dispatches under-filled batches
    // the moment a class frees, which is exactly the behavior
    // lookahead's held-batch accumulation improves on.
    config.batching.timeoutCycles = 100000;
    config.seed = kSeed;
    config.routing.objective = "energy";
    config.routing.lookahead = routing_case.lookahead;
    config.routing.affinityMargin = routing_case.affinityMargin;
    return config;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    bool as_baseline = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];
        else if (std::strcmp(argv[i], "--baseline") == 0 &&
                 i + 1 < argc) {
            json_path = argv[++i];
            as_baseline = true;
        }
    }

    registerCluster();
    banner("serve_lookahead",
           "queue-aware lookahead routing vs greedy energy routing "
           "(current-gen vs legacy two-class stub cluster)");

    const std::vector<RoutingCase> cases = {
        {"greedy", false, 0.0},
        {"lookahead", true, 0.0},
        {"lookahead_affinity", true, 0.05},
    };

    std::printf("\nstream: 4000 requests, Poisson interarrival 550 "
                "kcycles; energy objective on current(1M cyc, 1.0 J) "
                "+ legacy(2.5M cyc, 1.6 J)\n");
    header("case", {"joules", "p99 Mcyc", "mean B", "holds",
                    "affinity", "legacy %"});

    std::vector<std::pair<RoutingCase, serve::ServeStats>> series;
    for (const RoutingCase &routing_case : cases) {
        const serve::ServeResult result =
            serve::runServe(lookaheadWorkload(routing_case));
        const serve::ServeStats &stats = result.stats;
        const double legacy_share =
            stats.requests > 0
                ? 100.0 *
                      static_cast<double>(
                          stats.classStats.at(1).requests) /
                      static_cast<double>(stats.requests)
                : 0.0;
        row(routing_case.name,
            {stats.totalJoules, stats.p99LatencyCycles / 1e6,
             stats.meanBatchSize,
             static_cast<double>(stats.lookaheadHolds),
             static_cast<double>(stats.affinityHits),
             legacy_share});
        series.emplace_back(routing_case, stats);
    }

    // The dominance contract: against greedy routing of the same
    // stream, lookahead must win on energy without losing on tail
    // latency.
    const serve::ServeStats &greedy = series[0].second;
    bool violation = false;
    for (std::size_t i = 1; i < series.size(); ++i) {
        const serve::ServeStats &s = series[i].second;
        if (s.totalJoules > greedy.totalJoules ||
            s.p99LatencyCycles > greedy.p99LatencyCycles) {
            std::fprintf(
                stderr,
                "VIOLATION: %s (%.2f J, p99 %.0f cyc) does not "
                "dominate greedy (%.2f J, p99 %.0f cyc)\n",
                series[i].first.name.c_str(), s.totalJoules,
                s.p99LatencyCycles, greedy.totalJoules,
                greedy.p99LatencyCycles);
            violation = true;
        }
    }
    if (violation)
        return 1;
    std::printf("\nlookahead dominated greedy on joules and p99 in "
                "every case\n");

    if (!json_path.empty()) {
        JsonWriter w;
        w.beginObject().field("bench", "serve_lookahead").key("series");
        w.array(series, [&](const auto &point) {
            const serve::ServeStats &s = point.second;
            w.beginObject()
                .field("case", point.first.name)
                .field("total_joules", s.totalJoules)
                .field("p99_latency_cycles", s.p99LatencyCycles)
                .field("mean_batch_size", s.meanBatchSize)
                .field("lookahead_holds", s.lookaheadHolds)
                .field("affinity_hits", s.affinityHits)
                .endObject();
        });
        if (!writeJson(json_path, w.endObject().str(),
                       as_baseline ? " as baseline" : ""))
            return 1;
    }
    return 0;
}
