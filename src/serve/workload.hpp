/**
 * @file
 * Serving workload description and the seeded open-loop request
 * generator. A ServeConfig names the scenarios a cluster can serve
 * (each a RunSpec), the tenants issuing them (with optional SLO
 * targets and fair-share quotas), the cluster shape (homogeneous
 * replicas or a heterogeneous ClusterSpec), the scheduling policy,
 * and the arrival process; RequestGenerator turns it into a
 * deterministic timestamped request stream on sim/rng, so identical
 * seeds always reproduce identical traffic.
 */

#ifndef HYGCN_SERVE_WORKLOAD_HPP
#define HYGCN_SERVE_WORKLOAD_HPP

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/platform.hpp"
#include "sim/rng.hpp"
#include "sim/types.hpp"
#include "workload/arrival.hpp"

namespace hygcn::workload {
class ArrivalProcess;
class TraceWriter;
} // namespace hygcn::workload

namespace hygcn::serve {

/** Sentinel cycle value: "never" / "no deadline". */
inline constexpr Cycle kNeverCycle = ~Cycle{0};

/** a + b, saturating at kNeverCycle so huge timeouts, SLO targets,
 *  and deadlines mean "never" instead of wrapping. */
inline Cycle
satAddCycles(Cycle a, Cycle b)
{
    const Cycle sum = a + b;
    return sum < a ? kNeverCycle : sum;
}

/**
 * One inference type the cluster serves: a named RunSpec. The spec's
 * platform field is ignored — scenarios are priced on each instance
 * class of the cluster (or on the config's platform when the cluster
 * is homogeneous).
 */
struct ServeScenario
{
    /** Stable label echoed into records and JSON ("cora/gcn"). */
    std::string name;

    /** Dataset/model/seed/scale of one inference of this type. */
    api::RunSpec spec;
};

/** One traffic source and its scenario preferences. */
struct TenantMix
{
    std::string name = "default";

    /** Relative share of the request stream (> 0). */
    double weight = 1.0;

    /**
     * Relative weight per ServeConfig scenario (same order); empty
     * selects uniformly across all scenarios.
     */
    std::vector<double> scenarioWeights;

    /**
     * Latency SLO target in cycles; a request's deadline is
     * arrival + sloLatencyCycles. 0 means no SLO: the "edf" policy
     * treats such requests as best-effort (deadline = never), and no
     * SLO-violation accounting applies.
     */
    Cycle sloLatencyCycles = 0;

    /**
     * Relative service quota under the "fair-share" policy; 0 falls
     * back to the traffic weight. Quotas divide *service cycles*, so
     * a tenant issuing expensive scenarios is charged accordingly.
     */
    double shareQuota = 0.0;
};

/**
 * Heterogeneous cluster shape: instance classes, each replicating
 * one platform (optionally with its own accelerator config) count
 * times. Empty classes mean the homogeneous shorthand
 * (ServeConfig::platform x ServeConfig::instances) applies.
 */
struct ClusterSpec
{
    struct InstanceClass
    {
        /** Registry key of the platform this class runs. */
        std::string platform;

        /** Replicated instances of this class (>= 1); the initial
         *  replica count when the control plane autoscales. */
        std::uint32_t count = 1;

        /**
         * Per-class accelerator config override; unset classes price
         * scenarios with the scenario spec's own config. Inert for
         * the pyg baselines.
         */
        std::optional<HyGCNConfig> hygcn;

        /** Stats/JSON label; empty defaults to the platform key. */
        std::string name;

        /**
         * Autoscaling floor/ceiling on the class's replica count,
         * consulted only when ControlPlaneSpec::scalingPolicy is not
         * "static". 0 resolves to `count`, so un-annotated classes
         * stay fixed-size even under an autoscaling policy. (Last
         * fields so positional InstanceClass initializers predating
         * the control plane stay valid.)
         */
        std::uint32_t minCount = 0;
        std::uint32_t maxCount = 0;

        const std::string &label() const
        { return name.empty() ? platform : name; }
    };

    std::vector<InstanceClass> classes;

    bool empty() const { return classes.empty(); }

    /** Total instance count across classes. */
    std::uint32_t totalInstances() const;
};

/**
 * Batch-formation knobs, grouped: how large batches grow, how long a
 * queue head waits for co-batchable requests, and which cost model
 * prices the resulting co-batches. Defaults reproduce the historic
 * flat-knob behavior byte-exactly.
 */
struct BatchingSpec
{
    /** Largest batch one instance serves at once (>= 1). */
    std::uint32_t maxBatch = 8;

    /**
     * Longest a queue head waits for co-batchable requests before it
     * dispatches under-full (cycles).
     */
    Cycle timeoutCycles = 200000;

    /**
     * Marginal cost of each request beyond the first in a batch, as
     * a fraction of the scenario's unit service cycles: weights and
     * graph structure are already resident, so co-batched inferences
     * amortize them. 1.0 disables the batching benefit. Consumed by
     * the "marginal" cost model only.
     */
    double marginalFraction = 0.35;

    /**
     * Registry key of the batch cost model pricing co-scheduled
     * requests ("marginal", "analytic", "measured"): the model turns
     * each (instance class, scenario) unit run into a cost curve
     * cycles(B) for B = 1..maxBatch that service times, routing, and
     * deadline-aware batch sizing all consult.
     */
    std::string costModel = "marginal";

    /**
     * Deadline-aware batch sizing for the "edf" policy: stop filling
     * a batch at the size where the cost curve says one more member
     * would push the tightest queued deadline past its SLO.
     * ServeStats::deadlineCapsAvoided counts the saves. On by
     * default since the curve-blind legacy fills only ever traded
     * deadline hits for nothing; switch off to reproduce pre-flip
     * EDF schedules. Other policies ignore the flag.
     */
    bool deadlineAware = true;
};

/**
 * Routing knobs, grouped: which objective scores candidate instance
 * classes, whether scoring looks past currently-free classes to each
 * class's busy-until horizon, and how sticky a scenario stays to the
 * class that last served it. Defaults — greedy "cycles" routing over
 * free classes only — reproduce the historic behavior byte-exactly.
 */
struct RoutingSpec
{
    /**
     * Registry key of the routing objective that scores candidate
     * placements: "cycles" (the default — legacy cheapest-service-
     * time routing, byte-identical schedules), "energy" (fewest
     * joules per request), or "edp" (lowest energy-delay product).
     * Consults the joules(B) energy twin the cost model prices next
     * to cycles(B); under "cycles" that twin is never read.
     */
    std::string objective = "cycles";

    /**
     * Queue-aware lookahead: score *every* instance class on
     * (wait-until-free + service) using its busy-until horizon, not
     * just the currently-free ones, so a batch can hold for a cheap
     * class about to free instead of burning an expensive idle one.
     * Off by default — greedy free-class routing, byte-identical
     * schedules.
     */
    bool lookahead = false;

    /**
     * Scenario→class affinity threshold: a batch only migrates off
     * the class that last served its scenario when the winning score
     * improves on the incumbent's by more than this relative margin
     * (0.05 = 5%). Preserves PricedScenarioCache/weight locality and
     * stops scenarios ping-ponging across near-tied classes. 0 (the
     * default) disables retention entirely.
     */
    double affinityMargin = 0.0;

    /** Any non-default routing path active? */
    bool enabled() const { return lookahead || affinityMargin > 0.0; }
};

/** Stats-collection knobs, grouped: streaming aggregation and its
 *  reservoir/flush parameters. Defaults keep the materialized path
 *  (and the checked-in goldens) byte-identical. */
struct StatsSpec
{
    /**
     * Stream aggregate stats instead of materializing per-request
     * records: ServeResult.requests and .batches stay empty and
     * ServeStats is folded batch-by-batch through a StreamingStatsSink
     * (serve/stats_sink.hpp), so memory stays bounded at
     * million-request scale. Percentiles come from a deterministic
     * reservoir — exact while the request count fits
     * reservoirCapacity, an unbiased estimate beyond it; every other
     * stat matches the materialized path to accumulation-order noise.
     */
    bool streaming = false;

    /**
     * Latency samples each streaming reservoir retains (global and
     * per-tenant). Runs at or below this many requests get exact
     * percentiles; larger runs get a uniform-sample estimate.
     * Ignored unless streaming is set.
     */
    std::uint64_t reservoirCapacity = 65536;

    /**
     * Progress pulse for streaming runs: every this-many served
     * requests, print one running-stats line (requests, batches,
     * mean latency, approximate p99) to stderr. 0 disables. Ignored
     * unless streaming is set.
     */
    std::uint64_t flushEveryRequests = 0;
};

/**
 * The cluster control plane: autoscaling, a cluster-wide power cap,
 * and batch preemption, all evaluated on the scheduler's event
 * timeline (serve/control_plane.hpp). The defaults — "static"
 * scaling, no cap, preemption off — disable every control path, and
 * the scheduler then reproduces pre-control-plane schedules
 * byte-identically.
 */
struct ControlPlaneSpec
{
    /**
     * Registry key of the scaling policy deciding per-class replica
     * deltas each control interval: "static" (never scales — the
     * default), "queue-depth" (queued requests per active replica
     * against the high/low watermarks), "slo-burn" (window deadline
     *-miss rate against sloBurnHigh, queue-depth low watermark for
     * scale-down). Custom policies register through
     * Registry::registerScalingPolicy.
     */
    std::string scalingPolicy = "static";

    /** Control-loop evaluation period in cycles; 0 resolves to 16x
     *  the mean interarrival gap. */
    Cycle intervalCycles = 0;

    /** Modeled replica warm-up (weights load, clocks up) between a
     *  scale-up decision and the replica serving; 0 resolves to 8x
     *  the mean interarrival gap. */
    Cycle warmupCycles = 0;

    /** Modeled drain/park cost after a replica retires before it can
     *  warm up again; 0 resolves to 4x the mean interarrival gap. */
    Cycle drainCycles = 0;

    /** Scale up when queued requests per active replica exceed this
     *  ("queue-depth", and "slo-burn" scale-ups too). */
    double queueDepthHigh = 4.0;

    /** Scale down when queued requests per active replica fall below
     *  this with idle replicas to spare. */
    double queueDepthLow = 0.5;

    /** "slo-burn": scale up when the window's deadline-miss fraction
     *  (missed / completed) exceeds this. */
    double sloBurnHigh = 0.1;

    /** One step of the "scheduled" policy's timetable: from
     *  @p atCycle on, the class should run @p replicas replicas
     *  (clamped into its min/max bounds by the scheduler). */
    struct ScheduleEntry
    {
        Cycle atCycle = 0;
        std::uint32_t replicas = 0;
    };

    /**
     * Fixed cycle→replica-count timetable of the "scheduled" policy:
     * at each control tick the class targets the replicas of the
     * last entry at or before now (the initial replica count before
     * the first entry). Entries must be sorted by atCycle, strictly
     * increasing, and non-empty when scalingPolicy is "scheduled";
     * other policies ignore the table. The timetable is per class in
     * *target* terms — every class follows the same shape, clamped
     * into its own min/max bounds.
     */
    std::vector<ScheduleEntry> schedule;

    /**
     * Cluster-wide power cap in watts over the modeled per-batch
     * draw (joules / service seconds); 0 means uncapped. Routing
     * skips classes whose dispatch would exceed the cap and the
     * scheduler defers cap-bound batches head-of-line
     * (ServeStats::powerDeferredBatches) until completions free
     * budget. A batch arriving at an idle cluster always dispatches,
     * so an over-cap single batch throttles rather than livelocks.
     */
    double powerCapWatts = 0.0;

    /**
     * Batch preemption: a tight-deadline head the "edf" policy
     * cannot otherwise save may checkpoint-displace a running batch
     * whose members carry no deadline. The victim's work re-enqueues
     * at its original queue position and the preempting instance
     * pays a checkpoint overhead priced from the victim scenario's
     * cost curve. Incompatible with StatsSpec::streaming (the sink
     * folds batches at dispatch time, before a preemption could
     * undo one).
     */
    bool preemption = false;

    /** Checkpoint/displacement overhead as a fraction of the
     *  victim scenario's unit service cycles on its class. */
    double preemptionOverheadFraction = 0.1;

    /**
     * Homogeneous-shorthand autoscaling floor/ceiling, applied to
     * the synthetic instance class when ServeConfig::cluster is
     * empty (heterogeneous classes carry their own min/max). 0
     * resolves to ServeConfig::instances.
     */
    std::uint32_t minInstances = 0;
    std::uint32_t maxInstances = 0;

    /** Any control path active? False for the defaults, which
     *  leave every replica active and the JSON control-key free. */
    bool enabled() const
    {
        return scalingPolicy != "static" || powerCapWatts > 0.0 ||
               preemption;
    }
};

/** Everything needed to reproduce one serving simulation. */
struct ServeConfig
{
    /**
     * Registry key of the platform every instance replicates — the
     * homogeneous shorthand, used when cluster is empty.
     */
    std::string platform = "hygcn";

    /**
     * Heterogeneous cluster shape; when non-empty it overrides
     * platform/instances above.
     */
    ClusterSpec cluster;

    /** Registry key of the scheduling policy ("fifo", "edf",
     *  "fair-share"). */
    std::string policy = "fifo";

    /** Inference types on offer (>= 1). */
    std::vector<ServeScenario> scenarios;

    /** Traffic sources; empty means one uniform default tenant. */
    std::vector<TenantMix> tenants;

    /** Open-loop stream length. */
    std::uint64_t numRequests = 256;

    /** Mean of the exponential interarrival gap, in cycles. */
    double meanInterarrivalCycles = 200000.0;

    /**
     * Arrival-process selection and parameters (workload/arrival.hpp):
     * which registry process shapes the stream ("poisson" default,
     * "diurnal", "flash-crowd", "mmpp", "heavy-tail", "trace"), its
     * knobs, and an optional record-to-trace path.
     */
    workload::ArrivalSpec arrival;

    /** Seed for arrivals and tenant/scenario draws. */
    std::uint64_t seed = 1;

    /** Replicated accelerator instances (>= 1; homogeneous case). */
    std::uint32_t instances = 1;

    /** Batch formation: size cap, head timeout, cost model, and
     *  deadline-aware fill (BatchingSpec defaults are the legacy
     *  flat-knob values, byte-identical). */
    BatchingSpec batching;

    /** Routing: objective, queue-aware lookahead, and scenario→class
     *  affinity (RoutingSpec defaults are the legacy greedy
     *  free-class "cycles" routing, byte-identical). */
    RoutingSpec routing;

    /** Stats collection: streaming aggregation and its reservoir /
     *  flush knobs. Defaults materialize per-request records. */
    StatsSpec stats;

    /** The cluster control plane: autoscaling, power cap, and batch
     *  preemption. Defaults disable every control path. */
    ControlPlaneSpec control;

    /** Instances across the cluster (classes, or the shorthand). */
    std::uint32_t totalInstances() const
    { return cluster.empty() ? instances : cluster.totalInstances(); }

    /** Throws std::invalid_argument on an unserveable config. */
    void validate() const;
};

/** One timestamped inference request of the open-loop stream. */
struct ServeRequest
{
    /** Stream position, 0-based; also the record index. */
    std::uint64_t id = 0;

    /** Index into ServeConfig::tenants (0 for the default tenant). */
    std::uint32_t tenant = 0;

    /** Index into ServeConfig::scenarios. */
    std::uint32_t scenario = 0;

    /** Arrival time in cluster cycles (non-decreasing in id). */
    Cycle arrival = 0;

    /**
     * Completion deadline (arrival + the tenant's SLO target), or
     * kNeverCycle when the tenant has no SLO.
     */
    Cycle deadline = kNeverCycle;
};

/**
 * The config's tenant list as the generator and policies see it: the
 * declared tenants, or the single uniform default tenant when none
 * are declared.
 */
std::vector<TenantMix> resolvedTenants(const ServeConfig &config);

/**
 * Seeded open-loop request stream: the configured ArrivalProcess
 * (registry-resolved from ServeConfig::arrival, "poisson" by
 * default) samples interarrival gaps on sim/rng, tenants are drawn
 * by weight and scenarios by the tenant's mix (unless the process
 * pins them, as trace replay does), and deadlines come from the
 * tenant's SLO target. The generator never looks at service state —
 * arrivals are independent of how fast the cluster drains them —
 * and when ArrivalSpec::recordPath is set it appends every request
 * to a replayable trace as it is drawn.
 */
class RequestGenerator
{
  public:
    explicit RequestGenerator(const ServeConfig &config);
    ~RequestGenerator();

    /** Next request in arrival order. */
    ServeRequest next();

    /** The remaining requests, through config.numRequests. */
    std::vector<ServeRequest> generate();

  private:
    /** Index drawn from a cumulative weight table. */
    std::uint32_t draw(const std::vector<double> &cumulative);

    std::uint64_t numRequests_;
    std::vector<double> tenantCumulative_;
    std::vector<std::vector<double>> scenarioCumulative_;
    std::vector<Cycle> tenantSlo_;
    std::vector<std::string> tenantNames_;
    std::vector<std::string> scenarioNames_;
    std::unique_ptr<workload::ArrivalProcess> process_;
    std::unique_ptr<workload::TraceWriter> recorder_;
    Rng rng_;
    std::uint64_t nextId_ = 0;
    Cycle now_ = 0;
};

} // namespace hygcn::serve

#endif // HYGCN_SERVE_WORKLOAD_HPP
