/**
 * @file
 * Per-request, per-batch, and per-instance outcome records of a
 * serving simulation, and the aggregate ServeStats derived from them
 * (throughput, utilization, latency percentiles, per-tenant SLO
 * accounting, per-instance-class breakdowns). The percentile math
 * itself lives in sim/stats so any consumer of StatGroup-style
 * metrics can reuse it.
 */

#ifndef HYGCN_SERVE_SERVE_STATS_HPP
#define HYGCN_SERVE_SERVE_STATS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "serve/workload.hpp"
#include "sim/types.hpp"

namespace hygcn::serve {

/** Lifecycle of one request: queued at arrival, served in a batch. */
struct RequestRecord
{
    std::uint64_t id = 0;
    std::uint32_t tenant = 0;
    std::uint32_t scenario = 0;

    /** Arrival into the cluster queue. */
    Cycle arrival = 0;

    /** Completion deadline (kNeverCycle when the tenant has no SLO). */
    Cycle deadline = kNeverCycle;

    /** Batch dispatch onto an instance (>= arrival). */
    Cycle dispatch = 0;

    /** Batch completion (> dispatch). */
    Cycle completion = 0;

    /** Instance that served the request. */
    std::uint32_t instance = 0;

    /** Batch the request rode in. */
    std::uint64_t batch = 0;

    Cycle queueWait() const { return dispatch - arrival; }
    Cycle latency() const { return completion - arrival; }

    /** Completed past its deadline? (never true without an SLO) */
    bool missedDeadline() const
    { return deadline != kNeverCycle && completion > deadline; }
};

/** One dispatched batch: same-scenario requests served together. */
struct BatchRecord
{
    std::uint64_t id = 0;
    std::uint32_t scenario = 0;
    std::uint32_t instance = 0;
    Cycle dispatch = 0;
    Cycle completion = 0;

    /** Member requests, in queue order. */
    std::vector<std::uint64_t> requestIds;

    /** Energy the serving instance spent on the batch, joules (from
     *  the priced joules(B) curve of the routed class). */
    double joules = 0.0;

    /**
     * Batch was checkpoint-displaced by a tight-deadline arrival:
     * completion marks the preemption instant (executed prefix plus
     * the checkpoint overhead), joules are scaled to the cycles
     * actually burned, and the members re-enter the queue to ride a
     * later batch. Always false with preemption off.
     */
    bool preempted = false;

    Cycle serviceCycles() const { return completion - dispatch; }
};

/** Utilization accounting for one accelerator instance. */
struct InstanceRecord
{
    std::uint32_t id = 0;

    /** Index into the resolved cluster classes (0 when homogeneous). */
    std::uint32_t classIndex = 0;

    std::uint64_t batches = 0;
    std::uint64_t requests = 0;

    /** Cycles spent serving batches. */
    Cycle busyCycles = 0;

    /** busyCycles / makespan (0 for an empty run). */
    double utilization = 0.0;
};

/** Per-tenant serving outcome (one entry per configured tenant). */
struct TenantStats
{
    std::string name;
    std::uint64_t requests = 0;
    double meanLatencyCycles = 0.0;
    double p99LatencyCycles = 0.0;

    /** Requests completed past their deadline (0 without an SLO). */
    std::uint64_t sloViolations = 0;

    /**
     * Tenant's fraction of consumed service cycles, each batch's
     * cycles split evenly across its members.
     */
    double servedShare = 0.0;

    /** Energy consumed serving the tenant, joules (each batch's
     *  joules split evenly across its members). */
    double joules = 0.0;
};

/** Per-instance-class serving outcome (heterogeneous clusters). */
struct ClassStats
{
    /** Class label (platform key, or the class's explicit name). */
    std::string label;

    std::uint32_t instances = 0;
    std::uint64_t batches = 0;
    std::uint64_t requests = 0;
    Cycle busyCycles = 0;

    /** busyCycles / (instances * makespan). */
    double utilization = 0.0;

    /** Energy the class's instances spent serving batches, joules. */
    double joules = 0.0;
};

/** Aggregate serving metrics over one simulated run. */
struct ServeStats
{
    std::uint64_t requests = 0;
    std::uint64_t batches = 0;
    double meanBatchSize = 0.0;

    /** Last completion cycle. */
    Cycle makespanCycles = 0;

    /** Requests per second at the platform clock. */
    double throughputRps = 0.0;

    double meanQueueWaitCycles = 0.0;
    double meanLatencyCycles = 0.0;
    double p50LatencyCycles = 0.0;
    double p95LatencyCycles = 0.0;
    double p99LatencyCycles = 0.0;
    double maxLatencyCycles = 0.0;

    /** Per-instance busy fraction, indexed by instance id. */
    std::vector<double> instanceUtilization;

    /** Total serving energy across all dispatched batches, joules. */
    double totalJoules = 0.0;

    /** totalJoules / requests (0 for an empty run). */
    double meanJoulesPerRequest = 0.0;

    /**
     * Deadline misses avoided by deadline-aware batch sizing: fills
     * the policy capped below maxBatch because the cost curve said
     * one more member would blow the tightest queued deadline, and
     * whose realized service time then actually kept that head
     * inside it. 0 unless ServeConfig::deadlineAwareBatching drives
     * an "edf" run.
     */
    std::uint64_t deadlineCapsAvoided = 0;

    // --- Routing accounting (all zero with RoutingSpec defaults —
    // --- lookahead off, no affinity — so default-config JSON stays
    // --- byte-identical).

    /** Dispatch rounds lookahead routing held a ready batch for a
     *  busy-but-cheaper class instead of dispatching to a free one
     *  (counted once per hold decision, however long the hold). */
    std::uint64_t lookaheadHolds = 0;

    /** Dispatches the affinity margin kept on the scenario's
     *  last-served class against a better-scoring rival. */
    std::uint64_t affinityHits = 0;

    /** Dispatches that left the scenario's last-served class because
     *  the rival's score beat the margin. */
    std::uint64_t affinityMigrations = 0;

    /** PricedScenarioCache lookups this run served from cache /
     *  priced fresh, counted per lookup so concurrent runs never
     *  share a count (0/0 for runs that price outside the cache). */
    std::uint64_t pricedCacheHits = 0;
    std::uint64_t pricedCacheMisses = 0;

    /** Per-tenant breakdown, in ServeConfig::tenants order. */
    std::vector<TenantStats> tenantStats;

    /** Per-class breakdown, in resolved cluster-class order. */
    std::vector<ClassStats> classStats;

    // --- Control-plane accounting. The counters stay zero/empty with
    // --- their half of the plane off; the two cluster-draw figures
    // --- are tracked on every run, though JSON emits them only under
    // --- a power cap, so default-config JSON stays byte-identical.

    /** Batches whose dispatch the cluster-wide power cap deferred
     *  (counted once per batch, however long it waited). */
    std::uint64_t powerDeferredBatches = 0;

    /** Highest modeled cluster draw at any event instant, watts
     *  (sum over concurrently-running batches of joules/seconds),
     *  with or without a cap. */
    double peakClusterWatts = 0.0;

    /** totalJoules over the makespan wall time, watts. */
    double meanClusterWatts = 0.0;

    /** Running batches displaced by a tight-deadline arrival. */
    std::uint64_t preemptions = 0;

    /** Cycles of displaced batches' executed-then-redone work (from
     *  each victim's dispatch to its preemption instant). */
    Cycle preemptedCycles = 0;

    /** Replicas brought up / retired by the scaling policy. */
    std::uint64_t scaleUpEvents = 0;
    std::uint64_t scaleDownEvents = 0;

    /** One (cycle, replicas) step point of a class's replica-count
     *  timeline. */
    struct ReplicaSample
    {
        Cycle cycle = 0;
        std::uint32_t replicas = 0;
    };

    /** Per-class replica-count timelines, in resolved cluster-class
     *  order: the initial count at cycle 0 plus one sample per
     *  applied scaling action. Empty with "static" scaling. */
    std::vector<std::vector<ReplicaSample>> replicaTimelines;
};

/**
 * Derive the aggregate stats of a finished run. @p tenants is the
 * resolved tenant list (the single default tenant when the config
 * declares none) and @p class_labels the resolved instance-class
 * labels; instance records carry their classIndex.
 */
ServeStats computeServeStats(const std::vector<RequestRecord> &requests,
                             const std::vector<BatchRecord> &batches,
                             const std::vector<InstanceRecord> &instances,
                             Cycle makespan, double clock_hz,
                             const std::vector<TenantMix> &tenants,
                             const std::vector<std::string> &class_labels);

} // namespace hygcn::serve

#endif // HYGCN_SERVE_SERVE_STATS_HPP
