/**
 * @file
 * The serving cluster: a pluggable SchedulerPolicy (serve/policy.hpp)
 * queues arrived requests and a Scheduler dispatches formed batches
 * across the cluster's accelerator instances in an event-driven
 * loop. Clusters are homogeneous replicas of one platform or a
 * heterogeneous ClusterSpec of instance classes; service times come
 * from per-(class, scenario) cost curves cycles(B) priced by the
 * configured BatchCostModel (serve/cost_model.hpp) over one
 * deterministic Platform run each — shared process-wide through the
 * PricedScenarioCache. Batches route to the instance class scoring
 * best under the configured RouteObjective ("cycles" / "energy" /
 * "edp", serve/route_objective.hpp) at the batch's actual size,
 * consulting the joules(B) energy twin each cost model prices next
 * to cycles(B).
 */

#ifndef HYGCN_SERVE_SCHEDULER_HPP
#define HYGCN_SERVE_SCHEDULER_HPP

#include <cstdint>
#include <vector>

#include "serve/policy.hpp"
#include "serve/serve_stats.hpp"
#include "serve/workload.hpp"

namespace hygcn::serve {

/** Cost curves indexed [class][scenario][batch-1]. */
using CostCurves = std::vector<std::vector<std::vector<Cycle>>>;

/** Energy curves (joules) indexed [class][scenario][batch-1]. */
using EnergyCurves = std::vector<std::vector<std::vector<double>>>;

/** Complete, reproducible outcome of one serving simulation. */
struct ServeResult
{
    /** The config this result answers (echoed into JSON). */
    ServeConfig config;

    /** Per-request lifecycle records, indexed by request id. */
    std::vector<RequestRecord> requests;

    /** Dispatched batches, in dispatch order. */
    std::vector<BatchRecord> batches;

    /** Per-instance utilization accounting. */
    std::vector<InstanceRecord> instances;

    /**
     * Unit service cycles per scenario on the first instance class
     * (the whole cluster, when homogeneous).
     */
    std::vector<Cycle> scenarioUnitCycles;

    /**
     * Unit service cycles per [class][scenario], normalized into the
     * cluster time base (the first class's clock) so heterogeneous
     * platforms with different clocks price comparably.
     */
    std::vector<std::vector<Cycle>> unitCyclesByClass;

    /**
     * Full cost curves per [class][scenario][batch-1] in the cluster
     * time base: the cycles(B) each dispatch, routing choice, and
     * deadline-aware fill consulted. Element [c][s][0] equals
     * unitCyclesByClass[c][s].
     */
    CostCurves cyclesByBatchByClass;

    /**
     * The energy twins per [class][scenario][batch-1], in joules:
     * what energy/EDP routing scored and what the per-batch joules
     * accounting charged. Clock-independent, so never normalized.
     */
    EnergyCurves joulesByBatchByClass;

    /** Cluster clock (the first class's), for cycles -> seconds. */
    double clockHz = 1e9;

    /** Last batch completion cycle. */
    Cycle makespan = 0;

    /** Aggregate metrics (throughput, percentiles, utilization,
     *  per-tenant and per-class breakdowns). */
    ServeStats stats;
};

/**
 * Event-driven serving simulation: generates the request stream,
 * prices each (instance class, scenario) pair into a cost curve with
 * one Platform run plus the configured BatchCostModel (through the
 * PricedScenarioCache), then advances cluster time over arrivals,
 * batch timeouts, instance completions and control ticks. Each
 * policy-chosen batch routes to the class its RouteObjective ranks
 * best at the batch's size; under lookahead that may be a busy class
 * the batch then waits for, and a power cap can defer it. Equal
 * configs yield equal results, including the per-request trace.
 */
class Scheduler
{
  public:
    explicit Scheduler(ServeConfig config);

    /**
     * Resolve the cluster's platforms from the Registry, price
     * scenario curves through the process-wide PricedScenarioCache,
     * and simulate.
     */
    ServeResult run() const;

    /**
     * Simulate on an explicit platform (ignoring config.platform's
     * registry key), so the scheduler is drivable with a stub.
     * Prices directly — stub results never enter the process-wide
     * cache. Homogeneous clusters only: throws std::invalid_argument
     * when the config carries an explicit ClusterSpec.
     */
    ServeResult run(const api::Platform &platform) const;

  private:
    /** The cluster's instance classes (one synthetic class when
     *  homogeneous). */
    std::vector<ClusterSpec::InstanceClass> resolveClasses() const;

    /** Scenario spec as priced on @p cls. */
    api::RunSpec classSpec(const ClusterSpec::InstanceClass &cls,
                           const ServeScenario &scenario) const;

    /** Event loop over a priced cluster: @p priced carries the
     *  config echo and the curves in the cluster time base. */
    ServeResult
    simulate(const std::vector<ClusterSpec::InstanceClass> &classes,
             ServeResult priced) const;

    ServeConfig config_;
};

/**
 * Service cycles of a batch of @p size unit-cost-@p unit requests
 * under the legacy marginal-fraction pricing (what the "marginal"
 * cost model computes per curve point).
 */
Cycle batchServiceCycles(Cycle unit, std::size_t size,
                         double marginal_fraction);

/** Convenience: Scheduler(config).run(). */
ServeResult runServe(const ServeConfig &config);

} // namespace hygcn::serve

#endif // HYGCN_SERVE_SCHEDULER_HPP
