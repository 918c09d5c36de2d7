/**
 * Property-style invariants of the serving scheduler, checked over a
 * grid of instance counts, batching knobs, and seeds, and over a cube
 * of every routing and control-plane feature combined on a two-class
 * cluster: no request is lost or duplicated, every lifecycle is
 * causally ordered, instances never serve two batches at once, the
 * power cap holds, and identical configs reproduce identical traces.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "serve/scheduler.hpp"
#include "sim/json.hpp"

using namespace hygcn;
using namespace hygcn::serve;

namespace {

/** Small dataset scale so the property grid stays fast. */
constexpr double kScale = 0.2;

ServeConfig
makeConfig(std::uint32_t instances, std::uint32_t max_batch,
           Cycle timeout, std::uint64_t seed)
{
    ServeConfig config;
    config.platform = "hygcn-agg";
    config.scenarios = {{"cora/gcn", {}}, {"citeseer/gcn", {}}};
    config.scenarios[0].spec.dataset = DatasetId::CR;
    config.scenarios[1].spec.dataset = DatasetId::CS;
    for (ServeScenario &s : config.scenarios)
        s.spec.datasetScale = kScale;
    config.numRequests = 96;
    config.meanInterarrivalCycles = 15000.0;
    config.instances = instances;
    config.batching.maxBatch = max_batch;
    config.batching.timeoutCycles = timeout;
    config.seed = seed;
    return config;
}

/**
 * The cluster draw reconstructed from the batch records: each batch
 * draws joules * clock / service watts from dispatch to completion (a
 * preempted batch's scaled joules over its truncated interval give
 * the same draw). Returns the peak of the summed step function.
 */
double
reconstructedPeakWatts(const ServeResult &result)
{
    std::map<Cycle, double> deltas;
    for (const BatchRecord &batch : result.batches) {
        const double watts = batch.joules * result.clockHz /
                             static_cast<double>(batch.serviceCycles());
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

/** The largest draw any single batch can have on the priced cluster:
 *  the cap below which the progress guarantee may exceed it. */
double
maxSingleBatchWatts(const ServeResult &result)
{
    double watts = 0.0;
    for (std::size_t c = 0; c < result.cyclesByBatchByClass.size(); ++c)
        for (std::size_t s = 0; s < result.cyclesByBatchByClass[c].size();
             ++s)
            for (std::size_t b = 0;
                 b < result.cyclesByBatchByClass[c][s].size(); ++b)
                watts = std::max(
                    watts, result.joulesByBatchByClass[c][s][b] *
                               result.clockHz /
                               static_cast<double>(
                                   result.cyclesByBatchByClass[c][s][b]));
    return watts;
}

void
checkInvariants(const ServeConfig &config, const ServeResult &result)
{
    const std::size_t instances = result.instances.size();

    // Conservation: every request of the stream has exactly one
    // record, and the batches that ran to completion partition the id
    // space. A preempted batch's members re-queued and rode a later
    // batch, so its record is excluded.
    ASSERT_EQ(result.requests.size(), config.numRequests);
    std::set<std::uint64_t> batched_ids;
    std::uint64_t batched_count = 0;
    for (const BatchRecord &batch : result.batches) {
        EXPECT_FALSE(batch.requestIds.empty());
        EXPECT_LE(batch.requestIds.size(), config.batching.maxBatch);
        if (batch.preempted)
            continue;
        for (std::uint64_t id : batch.requestIds) {
            EXPECT_TRUE(batched_ids.insert(id).second)
                << "request " << id << " served twice";
            ++batched_count;
            const RequestRecord &record = result.requests.at(id);
            EXPECT_EQ(record.batch, batch.id);
            EXPECT_EQ(record.scenario, batch.scenario);
            EXPECT_EQ(record.instance, batch.instance);
            EXPECT_EQ(record.dispatch, batch.dispatch);
            EXPECT_EQ(record.completion, batch.completion);
        }
    }
    EXPECT_EQ(batched_count, config.numRequests);

    for (std::uint64_t id = 0; id < config.numRequests; ++id) {
        const RequestRecord &record = result.requests[id];
        EXPECT_EQ(record.id, id);
        // Causal ordering: queued at arrival, dispatched no earlier,
        // completed strictly later.
        EXPECT_LE(record.arrival, record.dispatch);
        EXPECT_LT(record.dispatch, record.completion);
        EXPECT_LE(record.completion, result.makespan);
        EXPECT_LT(record.instance, instances);
    }

    // Per-instance service intervals never overlap, preempted ones
    // (cut short at their checkpoint) included, and they add up to
    // the instance's busy cycles.
    std::map<std::uint32_t, std::vector<const BatchRecord *>> by_instance;
    for (const BatchRecord &batch : result.batches) {
        EXPECT_LT(batch.instance, instances);
        EXPECT_LT(batch.dispatch, batch.completion);
        by_instance[batch.instance].push_back(&batch);
    }
    for (const auto &[instance, batches] : by_instance) {
        // Batches are recorded in dispatch order.
        for (std::size_t i = 1; i < batches.size(); ++i)
            EXPECT_LE(batches[i - 1]->completion, batches[i]->dispatch)
                << "instance " << instance << " overlaps batches";
        Cycle busy = 0;
        for (const BatchRecord *batch : batches)
            busy += batch->completion - batch->dispatch;
        EXPECT_EQ(result.instances.at(instance).busyCycles, busy);
    }

    // Aggregates agree with the records.
    EXPECT_EQ(result.stats.requests, config.numRequests);
    EXPECT_EQ(result.stats.batches, result.batches.size());
    Cycle last_completion = 0;
    for (const BatchRecord &batch : result.batches)
        last_completion = std::max(last_completion, batch.completion);
    EXPECT_EQ(result.makespan, last_completion);
    for (double utilization : result.stats.instanceUtilization) {
        EXPECT_GE(utilization, 0.0);
        EXPECT_LE(utilization, 1.0);
    }

    // A cap above every single batch's draw is never exceeded; below
    // that, the progress guarantee may place one batch past it.
    const double cap = config.control.powerCapWatts;
    if (cap > maxSingleBatchWatts(result)) {
        EXPECT_LE(reconstructedPeakWatts(result), cap * (1.0 + 1e-9));
        EXPECT_LE(result.stats.peakClusterWatts, cap * (1.0 + 1e-9));
    }
}

} // namespace

class ServeInvariants
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint32_t, Cycle, std::uint64_t>>
{
};

TEST_P(ServeInvariants, HoldOnScheduleTrace)
{
    const auto [instances, max_batch, timeout, seed] = GetParam();
    const ServeConfig config =
        makeConfig(instances, max_batch, timeout, seed);
    checkInvariants(config, runServe(config));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ServeInvariants,
    ::testing::Values(
        // single totally-ordered instance
        std::tuple<std::uint32_t, std::uint32_t, Cycle, std::uint64_t>{
            1, 4, 50000, 1},
        // no batching: every request rides alone
        std::tuple<std::uint32_t, std::uint32_t, Cycle, std::uint64_t>{
            3, 1, 50000, 1},
        // zero timeout: batches only form behind busy instances
        std::tuple<std::uint32_t, std::uint32_t, Cycle, std::uint64_t>{
            2, 8, 0, 1},
        // long timeout: batches mostly fill
        std::tuple<std::uint32_t, std::uint32_t, Cycle, std::uint64_t>{
            2, 4, 500000, 1},
        // different traffic
        std::tuple<std::uint32_t, std::uint32_t, Cycle, std::uint64_t>{
            2, 4, 50000, 99}));

TEST(ServeDeterminism, IdenticalSeedsIdenticalTraces)
{
    const ServeConfig config = makeConfig(2, 4, 50000, 7);
    const std::string a = toJson(runServe(config));
    const std::string b = toJson(runServe(config));
    EXPECT_EQ(a, b);
}

TEST(ServeDeterminism, SeedChangesTrace)
{
    const ServeConfig base = makeConfig(2, 4, 50000, 7);
    ServeConfig reseeded = base;
    reseeded.seed = 8;
    EXPECT_NE(toJson(runServe(base)), toJson(runServe(reseeded)));
}

TEST(ServeDeterminism, WorkIsConservedAcrossInstanceCounts)
{
    // The same stream served on more instances completes no later:
    // makespan is non-increasing in the replica count under this
    // scheduler (identical arrivals, work-conserving dispatch).
    Cycle previous = ~Cycle{0};
    for (std::uint32_t instances : {1u, 2u, 4u}) {
        const ServeResult result =
            runServe(makeConfig(instances, 4, 50000, 7));
        EXPECT_LE(result.makespan, previous);
        previous = result.makespan;
    }
}

// ---- feature-combination cube --------------------------------------

namespace {

/** One corner of the cube: each routing or control feature an axis. */
struct Features
{
    const char *policy;
    const char *objective;
    bool lookahead; ///< lookahead routing plus an affinity margin
    bool preemption;
    bool capped;
    bool scaling;

    std::string label() const
    {
        return std::string(policy) + "/" + objective +
               (lookahead ? "/lookahead" : "") +
               (preemption ? "/preempt" : "") + (capped ? "/cap" : "") +
               (scaling ? "/scaling" : "");
    }
};

/** A two-class hygcn/hygcn-agg cluster serving a deadline tenant
 *  beside a bulk one, busy enough for every feature to fire. */
ServeConfig
cubeBase()
{
    ServeConfig config = makeConfig(2, 4, 20000, 11);
    config.cluster.classes = {{"hygcn", 2, {}, ""}, {"hygcn-agg", 2, {}, ""}};
    for (ClusterSpec::InstanceClass &cls : config.cluster.classes) {
        cls.minCount = 1;
        cls.maxCount = 3;
    }
    config.tenants = {{"interactive", 0.5, {4.0, 1.0}, 80000, 0.0},
                      {"analytics", 0.5, {1.0, 4.0}, 0, 1.0}};
    config.numRequests = 160;
    config.meanInterarrivalCycles = 8000.0;
    config.arrival.process = "heavy-tail";
    return config;
}

ServeConfig
cubeConfig(const Features &f, double cap_watts)
{
    ServeConfig config = cubeBase();
    config.policy = f.policy;
    config.routing.objective = f.objective;
    config.routing.lookahead = f.lookahead;
    config.routing.affinityMargin = f.lookahead ? 0.1 : 0.0;
    config.control.preemption = f.preemption;
    config.control.powerCapWatts = f.capped ? cap_watts : 0.0;
    config.control.scalingPolicy = f.scaling ? "queue-depth" : "static";
    return config;
}

/** Streamed stats equal the materialized ones: counters exactly,
 *  order-dependent float sums to 1e-9. */
void
expectSameStats(const ServeStats &mat, const ServeStats &str)
{
    auto near = [](double a, double b) {
        return std::fabs(a - b) <=
               1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
    };
    EXPECT_EQ(mat.requests, str.requests);
    EXPECT_EQ(mat.batches, str.batches);
    EXPECT_EQ(mat.makespanCycles, str.makespanCycles);
    EXPECT_TRUE(near(mat.meanLatencyCycles, str.meanLatencyCycles));
    EXPECT_TRUE(near(mat.meanQueueWaitCycles, str.meanQueueWaitCycles));
    EXPECT_DOUBLE_EQ(mat.p99LatencyCycles, str.p99LatencyCycles);
    EXPECT_DOUBLE_EQ(mat.maxLatencyCycles, str.maxLatencyCycles);
    EXPECT_EQ(mat.instanceUtilization, str.instanceUtilization);
    EXPECT_TRUE(near(mat.totalJoules, str.totalJoules));
    EXPECT_EQ(mat.deadlineCapsAvoided, str.deadlineCapsAvoided);
    EXPECT_EQ(mat.lookaheadHolds, str.lookaheadHolds);
    EXPECT_EQ(mat.affinityHits, str.affinityHits);
    EXPECT_EQ(mat.affinityMigrations, str.affinityMigrations);
    EXPECT_EQ(mat.powerDeferredBatches, str.powerDeferredBatches);
    EXPECT_EQ(mat.peakClusterWatts, str.peakClusterWatts);
    EXPECT_TRUE(near(mat.meanClusterWatts, str.meanClusterWatts));
    EXPECT_EQ(mat.scaleUpEvents, str.scaleUpEvents);
    EXPECT_EQ(mat.scaleDownEvents, str.scaleDownEvents);
    ASSERT_EQ(mat.replicaTimelines.size(), str.replicaTimelines.size());
    for (std::size_t c = 0; c < mat.replicaTimelines.size(); ++c) {
        ASSERT_EQ(mat.replicaTimelines[c].size(),
                  str.replicaTimelines[c].size());
        for (std::size_t i = 0; i < mat.replicaTimelines[c].size(); ++i) {
            EXPECT_EQ(mat.replicaTimelines[c][i].cycle,
                      str.replicaTimelines[c][i].cycle);
            EXPECT_EQ(mat.replicaTimelines[c][i].replicas,
                      str.replicaTimelines[c][i].replicas);
        }
    }
    ASSERT_EQ(mat.tenantStats.size(), str.tenantStats.size());
    for (std::size_t t = 0; t < mat.tenantStats.size(); ++t)
        EXPECT_EQ(mat.tenantStats[t].sloViolations,
                  str.tenantStats[t].sloViolations);
}

} // namespace

TEST(ServeFeatureCube, EveryCombinationHoldsTheInvariants)
{
    // A binding cap that still admits any single batch: halfway
    // between the largest one-batch draw and the uncapped peak.
    const ServeResult probe = runServe(cubeBase());
    const double single = maxSingleBatchWatts(probe);
    const double peak = reconstructedPeakWatts(probe);
    ASSERT_GT(peak, single);
    const double cap_watts = single + (peak - single) / 2.0;

    std::uint64_t preemptions = 0, scale_ups = 0, deferred = 0;
    std::uint64_t holds = 0, affinity = 0;
    for (const char *policy : {"fifo", "edf", "fair-share"})
        for (const char *objective : {"cycles", "energy"})
            for (int mask = 0; mask < 16; ++mask) {
                const Features f{policy,        objective,
                                 (mask & 1) != 0, (mask & 2) != 0,
                                 (mask & 4) != 0, (mask & 8) != 0};
                SCOPED_TRACE(f.label());
                const ServeConfig config = cubeConfig(f, cap_watts);
                const ServeResult result = runServe(config);
                checkInvariants(config, result);
                EXPECT_EQ(toJson(result), toJson(runServe(config)));
                if (!f.preemption) {
                    ServeConfig streamed = config;
                    streamed.stats.streaming = true;
                    expectSameStats(result.stats,
                                    runServe(streamed).stats);
                }
                preemptions += result.stats.preemptions;
                scale_ups += result.stats.scaleUpEvents;
                deferred += result.stats.powerDeferredBatches;
                holds += result.stats.lookaheadHolds;
                affinity += result.stats.affinityHits +
                            result.stats.affinityMigrations;
            }
    // The cube exercised every mechanism, not just the default path.
    EXPECT_GT(preemptions, 0u);
    EXPECT_GT(scale_ups, 0u);
    EXPECT_GT(deferred, 0u);
    EXPECT_GT(holds, 0u);
    EXPECT_GT(affinity, 0u);
}
