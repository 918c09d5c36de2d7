/**
 * Queue-aware lookahead routing and the RoutingSpec API: busy
 * classes scored at their wait-until-free horizon dominate greedy
 * energy routing on joules AND p99 on the current-gen/legacy
 * cluster, hold/dispatch decisions on hand-written traces match the
 * wait-horizon oracle exactly, a held fifo batch re-admits behind
 * younger same-scenario arrivals, the delay-damped energy score
 * migrates once the wait outweighs the joules gap, the affinity
 * margin separates retention from migration at the predicted
 * boundary (and raises scenario->class locality on a ping-pong-prone
 * mix), lookahead-off runs stay byte-identical to greedy routing,
 * the grouped ServeSession::routing() setter matches its
 * granular delegates, PricedScenarioCache hit/miss counters surface
 * per run as an exact ledger even under a concurrent sweep, the
 * "scheduled" ScalingPolicy follows its timetable, and
 * the ServeSweep lookahead/affinity axes expand the cartesian grid.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/registry.hpp"
#include "api/serve_session.hpp"
#include "api/serve_sweep.hpp"
#include "serve/priced_cache.hpp"
#include "serve/scheduler.hpp"
#include "sim/json.hpp"
#include "workload/trace.hpp"

using namespace hygcn;
using namespace hygcn::serve;

namespace {

/**
 * Deterministic stub accelerator: fixed service cycles and joules
 * per inference, linear in co-batch copies, so every dispatch and
 * hold decision in these tests is hand-computable.
 */
class StubPlatform : public api::Platform
{
  public:
    StubPlatform(std::string name, Cycle cycles, double joules,
                 std::chrono::milliseconds delay = {})
        : name_(std::move(name)), cycles_(cycles), joules_(joules),
          delay_(delay)
    {
    }

    std::string name() const override { return name_; }

    api::RunResult run(const api::RunSpec &spec) const override
    {
        std::this_thread::sleep_for(delay_);
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
    std::chrono::milliseconds delay_;
};

/** Register a stub whose every pricing run takes @p delay of wall
 *  time (none by default). */
void
registerStub(const std::string &name, Cycle cycles, double joules,
             std::chrono::milliseconds delay = {})
{
    api::Registry &registry = api::Registry::global();
    if (registry.hasPlatform(name))
        return;
    registry.registerPlatform(name, [name, cycles, joules, delay] {
        return std::make_unique<StubPlatform>(name, cycles, joules,
                                              delay);
    });
}

/** Absolute arrival cycles -> a replayable single-scenario trace
 *  file (tenant "default", scenario "la/gcn"). */
std::string
writeArrivals(const std::string &name,
              const std::vector<Cycle> &arrivals)
{
    const std::string path = testing::TempDir() + name;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << workload::kTraceHeader << "\n";
    for (Cycle arrival : arrivals)
        out << arrival << ",default,la/gcn\n";
    return path;
}

/**
 * One-scenario cluster over stub classes, serving the given trace
 * one request per batch (maxBatch 1, no fill timeout) so every
 * routing decision maps to exactly one arrival.
 */
ServeConfig
traceConfig(std::vector<ClusterSpec::InstanceClass> classes,
            const std::string &trace_path,
            std::size_t num_requests)
{
    ServeConfig config;
    config.cluster.classes = std::move(classes);
    config.scenarios = {{"la/gcn", {}}};
    config.numRequests = num_requests;
    config.batching.maxBatch = 1;
    config.batching.timeoutCycles = 0;
    config.arrival.process = "trace";
    config.arrival.traceFile = trace_path;
    config.routing.objective = "energy";
    config.routing.lookahead = true;
    return config;
}

/** The resolved instance-class index that served a batch. */
std::uint32_t
classOf(const ServeResult &result, const BatchRecord &batch)
{
    return result.instances.at(batch.instance).classIndex;
}

} // namespace

// ---- dominance: the tentpole's headline claim ----------------------

TEST(LookaheadRouting, EnergyLookaheadDominatesGreedyOnBothMetrics)
{
    registerStub("la-current", 1000000, 1.0);
    registerStub("la-legacy", 2500000, 1.6);

    ServeConfig config;
    config.cluster.classes = {{"la-current", 1, {}, "current"},
                              {"la-legacy", 1, {}, "legacy"}};
    config.scenarios = {{"la/gcn", {}}};
    config.numRequests = 1200;
    config.meanInterarrivalCycles = 550000.0;
    config.batching.maxBatch = 8;
    config.batching.timeoutCycles = 100000;
    config.seed = 20200222;
    config.routing.objective = "energy";

    config.routing.lookahead = false;
    const ServeResult greedy = runServe(config);
    config.routing.lookahead = true;
    const ServeResult lookahead = runServe(config);

    // Greedy energy routing spills to the slower, hotter legacy
    // class whenever the good class is momentarily busy; lookahead
    // holds briefly instead and must win on BOTH metrics.
    EXPECT_LE(lookahead.stats.totalJoules, greedy.stats.totalJoules);
    EXPECT_LE(lookahead.stats.p99LatencyCycles,
              greedy.stats.p99LatencyCycles);
    EXPECT_GT(lookahead.stats.lookaheadHolds, 0u);
    EXPECT_EQ(greedy.stats.lookaheadHolds, 0u);

    // The win mechanism is visible in the class mix: lookahead
    // routes a strictly larger share onto the efficient class.
    EXPECT_GT(lookahead.stats.classStats.at(0).requests,
              greedy.stats.classStats.at(0).requests);
}

// ---- wait horizon vs a hand-computed oracle ------------------------

TEST(LookaheadRouting, WaitHorizonMatchesOracleOnDeterministicTrace)
{
    registerStub("la-x", 1000000, 1.0);
    registerStub("la-y", 1000000, 10.0);

    // Four near-simultaneous arrivals onto 2x class X (cheap) + 1x
    // class Y (10x the joules). The damped X score while both X
    // instances are busy is joules * (wait + service) / service
    // < 2.0, far below Y's 10.0, so every batch belongs on X: the
    // first two dispatch immediately and the last two are held until
    // exactly the instant an X instance frees.
    const std::string trace =
        writeArrivals("la_oracle.csv", {0, 1, 2, 3});
    const ServeResult result = runServe(traceConfig(
        {{"la-x", 2, {}, "x"}, {"la-y", 1, {}, "y"}}, trace, 4));
    std::remove(trace.c_str());

    ASSERT_EQ(result.batches.size(), 4u);
    for (const BatchRecord &batch : result.batches)
        EXPECT_EQ(classOf(result, batch), 0u);
    EXPECT_EQ(result.stats.classStats.at(1).requests, 0u);
    EXPECT_GE(result.stats.lookaheadHolds, 1u);

    // Wait-horizon oracle: each dispatch lands at the earliest cycle
    // an X instance is free and the batch has arrived — b1/b2 at
    // their arrivals, b3 at b1's completion, b4 at b2's.
    const BatchRecord &b1 = result.batches[0];
    const BatchRecord &b2 = result.batches[1];
    const BatchRecord &b3 = result.batches[2];
    const BatchRecord &b4 = result.batches[3];
    EXPECT_EQ(b1.dispatch, 0u);
    EXPECT_EQ(b2.dispatch, 1u);
    EXPECT_EQ(b3.dispatch, b1.completion);
    EXPECT_EQ(b3.instance, b1.instance);
    EXPECT_EQ(b4.dispatch, b2.completion);
    EXPECT_EQ(b4.instance, b2.instance);
}

TEST(LookaheadRouting, HeldFifoBatchReadmitsBehindYoungerArrivals)
{
    registerStub("la-x", 1000000, 1.0);
    registerStub("la-y", 1000000, 10.0);

    // The oracle trace again, read for request order. A held batch
    // re-enters the fifo queue at its back, so it queues behind
    // same-scenario requests that arrived after it: request 2 is
    // held at cycle 2 and again at cycle 3, which leaves it behind
    // request 3. Request 3 takes the first X instance to free, and
    // request 2 is held a third time, one cycle, for the second.
    // Pinned as the accepted behaviour, not a fairness guarantee.
    const std::string trace =
        writeArrivals("la_readmit.csv", {0, 1, 2, 3});
    ServeConfig config = traceConfig(
        {{"la-x", 2, {}, "x"}, {"la-y", 1, {}, "y"}}, trace, 4);
    config.policy = "fifo";
    const ServeResult result = runServe(config);
    std::remove(trace.c_str());

    ASSERT_EQ(result.batches.size(), 4u);
    const std::vector<std::vector<std::uint64_t>> order = {
        {0}, {1}, {3}, {2}};
    for (std::size_t b = 0; b < order.size(); ++b)
        EXPECT_EQ(result.batches[b].requestIds, order[b]) << b;
    EXPECT_EQ(result.stats.lookaheadHolds, 3u);
    // The younger request dispatches first and waits less.
    EXPECT_LT(result.requests[3].dispatch, result.requests[2].dispatch);
}

TEST(LookaheadRouting, DelayDampingMigratesWhenWaitOutweighsEnergy)
{
    registerStub("la-a", 1000000, 1.0);
    registerStub("la-b", 1000000, 1.1);

    // With class B only 10% hotter, waiting a full service time for
    // class A (damped score ~2.0) is never worth it: the second
    // arrival must spill to B immediately, with no hold.
    const std::string trace = writeArrivals("la_damping.csv", {0, 1});
    const ServeResult result = runServe(traceConfig(
        {{"la-a", 1, {}, "a"}, {"la-b", 1, {}, "b"}}, trace, 2));
    std::remove(trace.c_str());

    ASSERT_EQ(result.batches.size(), 2u);
    EXPECT_EQ(classOf(result, result.batches[0]), 0u);
    EXPECT_EQ(classOf(result, result.batches[1]), 1u);
    EXPECT_EQ(result.batches[1].dispatch, 1u);
    EXPECT_EQ(result.stats.lookaheadHolds, 0u);
}

TEST(LookaheadRouting, HoldsWhenDampedScoreStillBeatsTheSpill)
{
    registerStub("la-a", 1000000, 1.0);
    registerStub("la-y", 1000000, 10.0);

    // Same shape but the alternative is 10x hotter: the damped score
    // of busy A (~2.0) still wins, so the second arrival is held and
    // dispatches on A the instant the first batch completes.
    const std::string trace = writeArrivals("la_hold.csv", {0, 1});
    const ServeResult result = runServe(traceConfig(
        {{"la-a", 1, {}, "a"}, {"la-y", 1, {}, "y"}}, trace, 2));
    std::remove(trace.c_str());

    ASSERT_EQ(result.batches.size(), 2u);
    EXPECT_EQ(classOf(result, result.batches[0]), 0u);
    EXPECT_EQ(classOf(result, result.batches[1]), 0u);
    EXPECT_EQ(result.batches[1].dispatch,
              result.batches[0].completion);
    EXPECT_GE(result.stats.lookaheadHolds, 1u);
}

// ---- affinity margin -----------------------------------------------

TEST(AffinityMargin, BoundarySeparatesMigrationFromRetention)
{
    registerStub("la-a", 1000000, 1.0);
    registerStub("la-b", 1000000, 1.1);

    // Arrivals 0 and 1: the second sees incumbent A busy at damped
    // score ~2.0 and rival B free at 1.1. Migration needs
    // 1.1 < 2.0 * (1 - margin), i.e. margin < ~0.45: a 0.44 margin
    // migrates, a 0.46 margin retains the incumbent — and since the
    // retained incumbent is busy, retention shows up as a lookahead
    // hold (dispatch at A's completion), not an affinity hit.
    const std::string trace =
        writeArrivals("la_boundary.csv", {0, 1});
    ServeConfig config = traceConfig(
        {{"la-a", 1, {}, "a"}, {"la-b", 1, {}, "b"}}, trace, 2);

    config.routing.affinityMargin = 0.44;
    const ServeResult migrated = runServe(config);
    ASSERT_EQ(migrated.batches.size(), 2u);
    EXPECT_EQ(classOf(migrated, migrated.batches[1]), 1u);
    EXPECT_EQ(migrated.batches[1].dispatch, 1u);
    EXPECT_EQ(migrated.stats.affinityMigrations, 1u);
    EXPECT_EQ(migrated.stats.affinityHits, 0u);

    config.routing.affinityMargin = 0.46;
    const ServeResult retained = runServe(config);
    std::remove(trace.c_str());
    ASSERT_EQ(retained.batches.size(), 2u);
    EXPECT_EQ(classOf(retained, retained.batches[1]), 0u);
    EXPECT_EQ(retained.batches[1].dispatch,
              retained.batches[0].completion);
    EXPECT_EQ(retained.stats.affinityMigrations, 0u);
    EXPECT_EQ(retained.stats.affinityHits, 0u);
    EXPECT_GE(retained.stats.lookaheadHolds, 1u);
}

TEST(AffinityMargin, HitCountedWhenFreeIncumbentRetained)
{
    registerStub("la-hit-a", 1000000, 1.05);
    registerStub("la-hit-b", 1000000, 1.0);

    // r1 picks B (cheapest). r2 finds B busy and migrates to A
    // (damped B ~2.0 loses to free A's 1.05 past the 10% margin),
    // making A the incumbent. r3 arrives with everything idle: best
    // is B at 1.0, but 1.0 is not below 1.05 * 0.9, so the free
    // incumbent A is retained and dispatches immediately — the one
    // shape that counts an affinity hit.
    const std::string trace =
        writeArrivals("la_hit.csv", {0, 1, 2500000});
    ServeConfig config = traceConfig(
        {{"la-hit-a", 2, {}, "a"}, {"la-hit-b", 1, {}, "b"}}, trace,
        3);
    config.routing.affinityMargin = 0.1;
    const ServeResult result = runServe(config);
    std::remove(trace.c_str());

    ASSERT_EQ(result.batches.size(), 3u);
    EXPECT_EQ(classOf(result, result.batches[0]), 1u);
    EXPECT_EQ(classOf(result, result.batches[1]), 0u);
    EXPECT_EQ(classOf(result, result.batches[2]), 0u);
    EXPECT_EQ(result.batches[2].dispatch, 2500000u);
    EXPECT_EQ(result.stats.affinityMigrations, 1u);
    EXPECT_EQ(result.stats.affinityHits, 1u);
}

TEST(AffinityMargin, RaisesScenarioClassLocalityOnPingPongMix)
{
    registerStub("la-a", 1000000, 1.0);
    registerStub("la-b", 1000000, 1.1);

    // Near-tie classes under sustained load ping-pong a scenario
    // between them under pure scoring; the margin should cut the
    // scenario's class switches without routing everything one way.
    ServeConfig config;
    config.cluster.classes = {{"la-a", 1, {}, "a"},
                              {"la-b", 1, {}, "b"}};
    config.scenarios = {{"la/gcn", {}}};
    config.numRequests = 400;
    config.meanInterarrivalCycles = 400000.0;
    config.batching.maxBatch = 4;
    config.batching.timeoutCycles = 50000;
    config.seed = 20200222;
    config.routing.objective = "energy";
    config.routing.lookahead = true;

    const auto switches = [](const ServeResult &result) {
        std::uint64_t count = 0;
        for (std::size_t i = 1; i < result.batches.size(); ++i)
            if (result.instances[result.batches[i].instance]
                    .classIndex !=
                result.instances[result.batches[i - 1].instance]
                    .classIndex)
                ++count;
        return count;
    };

    config.routing.affinityMargin = 0.0;
    const ServeResult loose = runServe(config);
    config.routing.affinityMargin = 0.3;
    const ServeResult sticky = runServe(config);

    EXPECT_LT(switches(sticky), switches(loose));
    EXPECT_GT(sticky.stats.affinityHits, 0u);
    // Still a two-class run, not a one-way collapse.
    EXPECT_GT(sticky.stats.classStats.at(1).requests, 0u);
}

// ---- off-by-default identity ---------------------------------------

TEST(RoutingSpec, DefaultsLeaveJsonByteIdenticalAndKeyFree)
{
    registerStub("la-a", 1000000, 1.0);
    registerStub("la-b", 1000000, 1.1);

    ServeConfig config;
    config.cluster.classes = {{"la-a", 1, {}, "a"},
                              {"la-b", 1, {}, "b"}};
    config.scenarios = {{"la/gcn", {}}};
    config.numRequests = 64;
    config.meanInterarrivalCycles = 300000.0;
    config.batching.maxBatch = 4;
    config.batching.timeoutCycles = 50000;
    config.seed = 7;

    const std::string implicit = toJson(runServe(config));
    ServeConfig spelled = config;
    spelled.routing = RoutingSpec{};
    spelled.routing.objective = "cycles";
    spelled.routing.lookahead = false;
    spelled.routing.affinityMargin = 0.0;
    EXPECT_FALSE(spelled.routing.enabled());
    EXPECT_EQ(toJson(runServe(spelled)), implicit);

    // Off-default-only emission: none of the new keys may leak into
    // a default run's JSON...
    for (const char *key :
         {"\"route_objective\"", "\"routing_lookahead\"",
          "\"affinity_margin\"", "\"lookahead_holds\"",
          "\"affinity_hits\"", "\"priced_cache_hits\""}) {
        EXPECT_EQ(implicit.find(key), std::string::npos) << key;
    }

    // ...and all of them surface once routing engages.
    config.routing.objective = "energy";
    config.routing.lookahead = true;
    config.routing.affinityMargin = 0.25;
    const std::string engaged = toJson(runServe(config));
    for (const char *key :
         {"\"route_objective\":\"energy\"",
          "\"routing_lookahead\":true", "\"affinity_margin\":0.25",
          "\"lookahead_holds\"", "\"affinity_hits\"",
          "\"affinity_migrations\"", "\"priced_cache_hits\"",
          "\"priced_cache_misses\""}) {
        EXPECT_NE(engaged.find(key), std::string::npos) << key;
    }
}

TEST(RoutingSpec, LookaheadOnAnIdleClusterMatchesGreedySchedule)
{
    registerStub("la-a", 1000000, 1.0);
    registerStub("la-b", 1000000, 1.1);

    // Arrivals spaced far past the service time: every batch finds
    // all instances free, waits are all zero, and the lookahead tie
    // chain must reduce to the legacy one — identical placements.
    std::vector<Cycle> arrivals;
    for (Cycle i = 0; i < 12; ++i)
        arrivals.push_back(i * 10000000);
    const std::string trace = writeArrivals("la_idle.csv", arrivals);
    ServeConfig config = traceConfig(
        {{"la-a", 1, {}, "a"}, {"la-b", 1, {}, "b"}}, trace, 12);

    const ServeResult on = runServe(config);
    config.routing.lookahead = false;
    const ServeResult off = runServe(config);
    std::remove(trace.c_str());

    ASSERT_EQ(on.batches.size(), off.batches.size());
    for (std::size_t i = 0; i < on.batches.size(); ++i) {
        EXPECT_EQ(on.batches[i].instance, off.batches[i].instance);
        EXPECT_EQ(on.batches[i].dispatch, off.batches[i].dispatch);
        EXPECT_EQ(on.batches[i].completion,
                  off.batches[i].completion);
    }
    EXPECT_EQ(on.stats.lookaheadHolds, 0u);
}

// ---- RoutingSpec API surface ---------------------------------------

TEST(RoutingSpec, GroupedSessionSetterMatchesGranularDelegates)
{
    api::ServeSession grouped;
    grouped.routing(RoutingSpec{"energy", true, 0.25});

    api::ServeSession granular;
    granular.routeObjective("energy")
        .lookaheadRouting()
        .affinityMargin(0.25);

    EXPECT_EQ(toJson(grouped.config()), toJson(granular.config()));
    EXPECT_TRUE(grouped.config().routing.enabled());
    EXPECT_EQ(granular.config().routing.objective, "energy");
    EXPECT_TRUE(granular.config().routing.lookahead);
    EXPECT_EQ(granular.config().routing.affinityMargin, 0.25);
}

TEST(RoutingSpec, ValidateRejectsBadValues)
{
    ServeConfig config;
    config.scenarios = {{"cora/gcn", {}}};

    config.routing.affinityMargin = 1.0;
    EXPECT_THROW(config.validate(), std::invalid_argument);
    config.routing.affinityMargin = -0.1;
    EXPECT_THROW(config.validate(), std::invalid_argument);
    config.routing.affinityMargin = 0.99;
    EXPECT_NO_THROW(config.validate());

    config.routing = RoutingSpec{};
    config.routing.objective = "";
    EXPECT_THROW(config.validate(), std::invalid_argument);
}

// ---- priced-cache counters -----------------------------------------

TEST(PricedCache, CountersSurfacePerRunHitAndMissDeltas)
{
    // Unique platform names so this test owns its cache entries: the
    // cache is process-wide and keyed on (platform, scenario).
    registerStub("la-cache-a", 1000000, 1.0);
    registerStub("la-cache-b", 1000000, 1.1);

    ServeConfig config;
    config.cluster.classes = {{"la-cache-a", 1, {}, "a"},
                              {"la-cache-b", 1, {}, "b"}};
    config.scenarios = {{"la/gcn", {}}};
    config.numRequests = 8;
    config.meanInterarrivalCycles = 300000.0;
    config.batching.maxBatch = 2;
    config.routing.objective = "energy";
    config.routing.lookahead = true;

    const ServeResult first = runServe(config);
    EXPECT_GT(first.stats.pricedCacheMisses, 0u);

    const ServeResult second = runServe(config);
    EXPECT_GT(second.stats.pricedCacheHits, 0u);
    EXPECT_EQ(second.stats.pricedCacheMisses, 0u);
}

TEST(PricedCache, ConcurrentSweepTalliesAreAnExactLedger)
{
    // Four clusters over disjoint stub platforms, so no run's lookups
    // touch another's entries. Each pricing run sleeps, so the runs'
    // pricing overlaps on a 4-thread pool; per-run counts must still
    // equal the run's solo counts and sum to the cache's own.
    std::vector<ClusterSpec> clusters;
    for (int k = 0; k < 4; ++k) {
        const std::string a = "la-ledger-a" + std::to_string(k);
        const std::string b = "la-ledger-b" + std::to_string(k);
        registerStub(a, 1000000, 1.0, std::chrono::milliseconds(2));
        registerStub(b, 1000000, 1.1, std::chrono::milliseconds(2));
        ClusterSpec cluster;
        cluster.classes = {{a, 1, {}, "a"}, {b, 1, {}, "b"}};
        clusters.push_back(cluster);
    }
    ServeConfig base;
    // Two scenarios on one spec: the second prices as cache hits.
    base.scenarios = {{"la/gcn", {}}, {"la/gcn-again", {}}};
    base.numRequests = 32;
    base.meanInterarrivalCycles = 300000.0;
    base.batching.maxBatch = 2;
    base.batching.costModel = "measured";
    base.routing.objective = "energy";
    base.routing.lookahead = true;
    base.routing.affinityMargin = 0.1;
    api::ServeSweep sweep{base};
    sweep.clusters(clusters).threads(4);

    PricedScenarioCache &cache = PricedScenarioCache::global();
    cache.clear();
    std::vector<ServeStats> solo;
    for (const ServeConfig &config : sweep.expand()) {
        solo.push_back(runServe(config).stats);
        cache.clear();
    }

    const std::vector<ServeResult> runs = sweep.runAll();
    ASSERT_EQ(runs.size(), solo.size());
    std::uint64_t hits = 0, misses = 0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const ServeStats &stats = runs[i].stats;
        // Per class: the first scenario misses its curve, its B = 1
        // unit and its B = 2 co-batch run, then hits that co-batch
        // run again for joules; the second scenario hits the curve.
        EXPECT_EQ(solo[i].pricedCacheMisses, 6u) << i;
        EXPECT_EQ(solo[i].pricedCacheHits, 4u) << i;
        EXPECT_EQ(stats.pricedCacheHits, solo[i].pricedCacheHits) << i;
        EXPECT_EQ(stats.pricedCacheMisses, solo[i].pricedCacheMisses)
            << i;
        hits += stats.pricedCacheHits;
        misses += stats.pricedCacheMisses;
    }
    EXPECT_EQ(hits, cache.hits());
    EXPECT_EQ(misses, cache.misses());
}

// ---- scheduled scaling ---------------------------------------------

TEST(ScheduledScaling, ValidateRejectsMalformedTimetables)
{
    ServeConfig config;
    config.scenarios = {{"cora/gcn", {}}};
    config.control.scalingPolicy = "scheduled";

    config.control.schedule = {};
    EXPECT_THROW(config.validate(), std::invalid_argument);

    config.control.schedule = {{1000, 0}};
    EXPECT_THROW(config.validate(), std::invalid_argument);

    config.control.schedule = {{2000, 2}, {1000, 3}};
    EXPECT_THROW(config.validate(), std::invalid_argument);
    config.control.schedule = {{1000, 2}, {1000, 3}};
    EXPECT_THROW(config.validate(), std::invalid_argument);

    config.control.schedule = {{1000, 2}, {2000, 3}};
    EXPECT_NO_THROW(config.validate());

    // The timetable is only constrained when the policy consumes it.
    config.control.scalingPolicy = "static";
    config.control.schedule = {};
    EXPECT_NO_THROW(config.validate());
}

TEST(ScheduledScaling, FollowsTheTimetable)
{
    registerStub("la-sched", 400000, 1.0);

    ServeConfig config;
    config.cluster.classes = {{"la-sched", 2, {}, "sched", 1, 6}};
    config.scenarios = {{"la/gcn", {}}};
    config.numRequests = 256;
    config.meanInterarrivalCycles = 150000.0;
    config.batching.maxBatch = 2;
    config.batching.timeoutCycles = 30000;
    config.seed = 11;
    config.control.scalingPolicy = "scheduled";
    config.control.minInstances = 1;
    config.control.maxInstances = 6;
    config.control.schedule = {{3000000, 5}, {20000000, 1}};
    EXPECT_TRUE(config.control.enabled());

    const ServeResult result = runServe(config);

    ASSERT_EQ(result.stats.replicaTimelines.size(), 1u);
    const auto &timeline = result.stats.replicaTimelines[0];
    ASSERT_FALSE(timeline.empty());
    EXPECT_EQ(timeline.front().cycle, 0u);
    EXPECT_EQ(timeline.front().replicas, 2u);

    std::uint32_t peak = 0;
    for (const ServeStats::ReplicaSample &sample : timeline) {
        // Before the first timetable step the policy holds the
        // configured count.
        if (sample.cycle < 3000000)
            EXPECT_EQ(sample.replicas, 2u);
        peak = std::max(peak, sample.replicas);
        EXPECT_GE(sample.replicas, 1u);
        EXPECT_LE(sample.replicas, 6u);
    }
    EXPECT_EQ(peak, 5u);
    EXPECT_EQ(timeline.back().replicas, 1u);
    EXPECT_GT(result.stats.scaleUpEvents, 0u);
    EXPECT_GT(result.stats.scaleDownEvents, 0u);

    // Every request still served exactly once through the resizes.
    std::set<std::uint64_t> seen;
    for (const BatchRecord &batch : result.batches)
        for (std::uint64_t id : batch.requestIds)
            EXPECT_TRUE(seen.insert(id).second);
    EXPECT_EQ(seen.size(), config.numRequests);
}

// ---- sweep axes ----------------------------------------------------

TEST(ServeSweepRouting, LookaheadAndAffinityAxesExpand)
{
    registerStub("la-a", 1000000, 1.0);

    ServeConfig base;
    base.cluster.classes = {{"la-a", 1, {}, "a"}};
    base.scenarios = {{"la/gcn", {}}};
    base.routing.objective = "energy";

    api::ServeSweep sweep(base);
    sweep.routingLookaheads({false, true})
        .affinityMargins({0.0, 0.1});
    EXPECT_EQ(sweep.size(), 4u);

    const std::vector<ServeConfig> configs = sweep.expand();
    ASSERT_EQ(configs.size(), 4u);
    // Margins are the inner axis: they vary fastest.
    EXPECT_FALSE(configs[0].routing.lookahead);
    EXPECT_EQ(configs[0].routing.affinityMargin, 0.0);
    EXPECT_FALSE(configs[1].routing.lookahead);
    EXPECT_EQ(configs[1].routing.affinityMargin, 0.1);
    EXPECT_TRUE(configs[2].routing.lookahead);
    EXPECT_EQ(configs[2].routing.affinityMargin, 0.0);
    EXPECT_TRUE(configs[3].routing.lookahead);
    EXPECT_EQ(configs[3].routing.affinityMargin, 0.1);
    for (const ServeConfig &config : configs)
        EXPECT_EQ(config.routing.objective, "energy");
}
