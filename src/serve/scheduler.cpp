#include "serve/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <queue>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "api/registry.hpp"
#include "serve/control_plane.hpp"
#include "serve/cost_model.hpp"
#include "serve/priced_cache.hpp"
#include "serve/route_objective.hpp"
#include "serve/stats_sink.hpp"

namespace hygcn::serve {

// ---- batch pricing -------------------------------------------------

Cycle
batchServiceCycles(Cycle unit, std::size_t size, double marginal_fraction)
{
    if (size == 0)
        return 0;
    const double marginal =
        static_cast<double>(unit) * marginal_fraction *
        static_cast<double>(size - 1);
    const Cycle total =
        unit + static_cast<Cycle>(std::llround(marginal));
    // Every batch occupies its instance for at least one cycle so
    // service intervals are never empty.
    return std::max<Cycle>(total, 1);
}

// ---- Scheduler -----------------------------------------------------

Scheduler::Scheduler(ServeConfig config) : config_(std::move(config))
{
    config_.validate();
}

namespace {

/**
 * Convert natively-clocked cost curves into the cluster time base
 * (the first class's last-scenario clock, matching the clockHz the
 * result reports) so one simulated cycle means the same wall-clock
 * time on every instance class — the pyg baselines run at CPU/GPU
 * clocks, not the accelerator's, and per-scenario configs may vary
 * clockHz too. Normalization applies per curve point, since measured
 * and analytic points are independent timings, not multiples of the
 * unit. Equal clocks pass through untouched, keeping uniform-clock
 * schedules (and the checked-in goldens) bit-exact.
 */
CostCurves
normalizeClocks(CostCurves curves,
                const std::vector<std::vector<double>> &clock)
{
    const double base_hz = clock[0].back();
    for (std::size_t c = 0; c < curves.size(); ++c)
        for (std::size_t s = 0; s < curves[c].size(); ++s) {
            if (clock[c][s] == base_hz)
                continue;
            for (Cycle &point : curves[c][s])
                point = std::max<Cycle>(
                    1, static_cast<Cycle>(std::llround(
                           static_cast<double>(point) *
                           (base_hz / clock[c][s]))));
        }
    return curves;
}

} // namespace

std::vector<ClusterSpec::InstanceClass>
Scheduler::resolveClasses() const
{
    if (!config_.cluster.empty())
        return config_.cluster.classes;
    ClusterSpec::InstanceClass homogeneous;
    homogeneous.platform = config_.platform;
    homogeneous.count = config_.instances;
    homogeneous.minCount = config_.control.minInstances;
    homogeneous.maxCount = config_.control.maxInstances;
    return {homogeneous};
}

api::RunSpec
Scheduler::classSpec(const ClusterSpec::InstanceClass &cls,
                     const ServeScenario &scenario) const
{
    api::RunSpec spec = scenario.spec;
    spec.platform = cls.platform;
    if (cls.hygcn)
        spec.hygcn = *cls.hygcn;
    return spec;
}

ServeResult
Scheduler::run() const
{
    const std::vector<ClusterSpec::InstanceClass> classes =
        resolveClasses();

    // Price each (class, scenario) pair once, through the
    // process-wide cache: runs are deterministic in their spec, so
    // the cached curve is exactly the time any instance of the class
    // spends replaying a co-batch of the scenario.
    CostCurves curves(classes.size());
    EnergyCurves energy(classes.size());
    std::vector<std::vector<double>> clock(classes.size());
    PricedScenarioCache &cache = PricedScenarioCache::global();
    PricedScenarioCache::Tally tally;
    for (std::size_t c = 0; c < classes.size(); ++c) {
        curves[c].reserve(config_.scenarios.size());
        energy[c].reserve(config_.scenarios.size());
        clock[c].reserve(config_.scenarios.size());
        for (const ServeScenario &scenario : config_.scenarios) {
            const PricedScenarioCache::Priced priced =
                cache.priceCurve(classes[c].platform,
                                 classSpec(classes[c], scenario),
                                 config_, &tally);
            curves[c].push_back(priced.cyclesByBatch);
            energy[c].push_back(priced.joulesByBatch);
            clock[c].push_back(priced.clockHz);
        }
    }
    ServeResult result =
        simulate(classes, normalizeClocks(std::move(curves), clock),
                 energy, clock[0].back());
    // The pricing phase above is this run's cache traffic, tallied
    // lookup by lookup, so the counts stay exact under a concurrent
    // sweep and make affinity's locality benefit observable per run.
    result.stats.pricedCacheHits = tally.hits;
    result.stats.pricedCacheMisses = tally.misses;
    return result;
}

ServeResult
Scheduler::run(const api::Platform &platform) const
{
    if (!config_.cluster.empty())
        throw std::invalid_argument(
            "serve: explicit-platform run() supports homogeneous "
            "clusters only (use the registry path for a ClusterSpec)");

    const std::unique_ptr<BatchCostModel> model =
        api::Registry::global().makeCostModel(config_.batching.costModel);

    CostCurves curves(1);
    EnergyCurves energy(1);
    std::vector<std::vector<double>> clock(1);
    curves[0].reserve(config_.scenarios.size());
    energy[0].reserve(config_.scenarios.size());
    clock[0].reserve(config_.scenarios.size());
    for (const ServeScenario &scenario : config_.scenarios) {
        api::RunSpec spec = scenario.spec;
        spec.platform = config_.platform;
        const api::RunResult run = platform.run(spec);
        CostModelInputs in;
        in.unitCycles = run.report.cycles;
        in.weightLoadCycles = run.report.combWeightLoadCycles;
        in.unitJoules = run.report.joules();
        in.weightLoadJoules = run.report.weightLoadJoules();
        in.maxBatch = config_.batching.maxBatch;
        in.marginalFraction = config_.batching.marginalFraction;
        // One co-batch run serves both curves (the registry path gets
        // the same sharing from the PricedScenarioCache).
        std::map<std::uint32_t, SimReport> co_batch;
        auto measure = [&](std::uint32_t copies) -> const SimReport & {
            auto it = co_batch.find(copies);
            if (it == co_batch.end()) {
                api::RunSpec batched = spec;
                batched.batchCopies = copies;
                it = co_batch
                         .emplace(copies, platform.run(batched).report)
                         .first;
            }
            return it->second;
        };
        in.measuredCycles = [&](std::uint32_t copies) {
            return measure(copies).cycles;
        };
        in.measuredJoules = [&](std::uint32_t copies) {
            return measure(copies).joules();
        };
        curves[0].push_back(model->curve(in));
        energy[0].push_back(model->energyCurve(in));
        clock[0].push_back(run.report.clockHz);
    }
    return simulate(resolveClasses(),
                    normalizeClocks(std::move(curves), clock), energy,
                    clock[0].back());
}

ServeResult
Scheduler::simulate(const std::vector<ClusterSpec::InstanceClass> &classes,
                    const CostCurves &curves, const EnergyCurves &energy,
                    double clock_hz) const
{
    ServeResult result;
    result.config = config_;
    result.cyclesByBatchByClass = curves;
    result.joulesByBatchByClass = energy;
    result.unitCyclesByClass.resize(curves.size());
    for (std::size_t c = 0; c < curves.size(); ++c) {
        result.unitCyclesByClass[c].reserve(curves[c].size());
        for (const std::vector<Cycle> &curve : curves[c])
            result.unitCyclesByClass[c].push_back(curveAt(curve, 1));
    }
    result.scenarioUnitCycles = result.unitCyclesByClass.front();
    result.clockHz = clock_hz;

    // Requests generate lazily, one look-ahead arrival at a time:
    // generation never reads service state, so interleaving it with
    // the event loop reproduces the up-front stream exactly while a
    // million-request run holds one pending request instead of all
    // of them. The materialized path keeps its arena — a single
    // contiguous RequestRecord vector indexed by request id,
    // preallocated once; streaming runs skip it entirely.
    const std::uint64_t total_requests = config_.numRequests;
    const bool streaming = config_.stats.streaming;
    if (!streaming)
        result.requests.resize(total_requests);

    RequestGenerator generator(config_);
    std::uint64_t generated = 0;
    std::optional<ServeRequest> pending;
    auto refill = [&generator, &generated, &pending, total_requests] {
        if (generated < total_requests) {
            pending = generator.next();
            ++generated;
        } else {
            pending.reset();
        }
    };
    refill();

    const std::unique_ptr<SchedulerPolicy> policy =
        api::Registry::global().makePolicy(config_.policy, config_);
    const std::unique_ptr<RouteObjective> objective =
        api::Registry::global().makeObjective(config_.routing.objective);

    const std::size_t num_classes = curves.size();
    const std::size_t num_scenarios = config_.scenarios.size();
    const std::size_t max_batch = config_.batching.maxBatch;
    const bool raw_cycles = objective->scoresServiceCycles();

    // Routing-spec switches. With both off every candidate waits 0
    // cycles and no incumbent is retained, so the dispatch chain
    // below ranks free classes only.
    const RoutingSpec &routing = config_.routing;
    const bool lookahead_on = routing.lookahead;
    const bool affinity_on = routing.affinityMargin > 0.0;

    // Objective scores depend only on (class, scenario, batch size),
    // so they price once into a flat table here and the hot loop
    // never calls the objective again. Under the default "cycles"
    // objective routing ranks on the raw integer curves instead, so
    // no table is needed at all.
    std::vector<std::vector<std::vector<double>>> scores;
    if (!raw_cycles) {
        scores.assign(num_classes, {});
        for (std::size_t c = 0; c < num_classes; ++c) {
            scores[c].assign(num_scenarios, {});
            for (std::size_t s = 0; s < num_scenarios; ++s) {
                scores[c][s].resize(max_batch);
                for (std::size_t b = 1; b <= max_batch; ++b)
                    scores[c][s][b - 1] = objective->score(
                        curveAt(curves[c][s], b),
                        energyCurveAt(energy[c][s], b), b, clock_hz);
            }
        }
    }

    // The policy's view of batch cost: the service cycles of the
    // class the configured objective would pick with every instance
    // free — the same best case routing aims for. Under "cycles"
    // that is the cheapest curve (the legacy oracle, byte-identical);
    // under "energy"/"edp" it is the efficient class's (slower)
    // curve, so deadline-aware batch sizing budgets against where
    // the batch will actually land instead of a class routing would
    // never choose. Answers for the policy-reachable sizes
    // (1..batching.maxBatch) precompute into a table; anything else falls
    // back to the direct scan.
    const RouteObjective *scorer = objective.get();
    auto oracle_direct = [&curves, &energy, scorer, clock_hz](
                             std::uint32_t scenario,
                             std::size_t batch) {
        const bool raw = scorer->scoresServiceCycles();
        Cycle best_cycles = kNeverCycle;
        double best_score = 0.0;
        for (std::size_t c = 0; c < curves.size(); ++c) {
            const Cycle cyc = curveAt(curves[c][scenario], batch);
            if (raw) {
                best_cycles = std::min(best_cycles, cyc);
                continue;
            }
            const double score = scorer->score(
                cyc, energyCurveAt(energy[c][scenario], batch), batch,
                clock_hz);
            const int order = best_cycles == kNeverCycle
                                  ? -1
                                  : compareScores(score, best_score);
            if (order < 0 || (order == 0 && cyc < best_cycles)) {
                best_cycles = cyc;
                best_score = score;
            }
        }
        return best_cycles;
    };
    std::vector<std::vector<Cycle>> oracle_table(num_scenarios);
    for (std::size_t s = 0; s < num_scenarios; ++s) {
        oracle_table[s].resize(max_batch);
        for (std::size_t b = 1; b <= max_batch; ++b)
            oracle_table[s][b - 1] =
                oracle_direct(static_cast<std::uint32_t>(s), b);
    }
    policy->bindCostOracle([&oracle_table, oracle_direct](
                               std::uint32_t scenario,
                               std::size_t batch) {
        const std::vector<Cycle> &row = oracle_table[scenario];
        if (batch >= 1 && batch <= row.size())
            return row[batch - 1];
        return oracle_direct(scenario, batch);
    });

    // ---- control plane ---------------------------------------------
    // Scaling, the power cap and preemption each gate their own
    // bookkeeping; with all three off no replica ever warms, drains,
    // parks or is displaced, so instances just alternate Idle/Busy.
    const ControlPlaneSpec &control = config_.control;
    const bool control_on = control.enabled();
    const bool scaling_on =
        control_on && control.scalingPolicy != "static";
    const bool cap_on = control_on && control.powerCapWatts > 0.0;
    const bool preempt_on = control_on && control.preemption;
    const double cap_watts = control.powerCapWatts;

    // Cycle-valued control knobs resolve against the mean
    // interarrival gap, like ArrivalSpec's, so presets scale with
    // their load level.
    const double mean_gap =
        std::max(config_.meanInterarrivalCycles, 1.0);
    auto resolve_cycles = [mean_gap](Cycle configured, double factor) {
        if (configured > 0)
            return configured;
        return std::max<Cycle>(
            1, static_cast<Cycle>(std::llround(factor * mean_gap)));
    };
    const Cycle control_interval =
        resolve_cycles(control.intervalCycles, 16.0);
    const Cycle warmup_cycles = resolve_cycles(control.warmupCycles, 8.0);
    const Cycle drain_cycles = resolve_cycles(control.drainCycles, 4.0);

    std::unique_ptr<ScalingPolicy> scaler;
    if (scaling_on)
        scaler = api::Registry::global().makeScalingPolicy(
            control.scalingPolicy, config_);

    // Per-class replica bounds. The instance arena is laid out at
    // each class's ceiling so autoscaling never reindexes anything;
    // replicas beyond the initial count start Parked. Without
    // autoscaling every ceiling equals the configured count.
    std::vector<std::uint32_t> min_rep(num_classes);
    std::vector<std::uint32_t> max_rep(num_classes);
    std::vector<std::uint32_t> init_rep(num_classes);
    for (std::size_t c = 0; c < num_classes; ++c) {
        init_rep[c] = classes[c].count;
        min_rep[c] = scaling_on && classes[c].minCount
                         ? classes[c].minCount
                         : classes[c].count;
        max_rep[c] = scaling_on && classes[c].maxCount
                         ? classes[c].maxCount
                         : classes[c].count;
        if (!scaling_on)
            min_rep[c] = max_rep[c] = classes[c].count;
    }
    std::uint32_t total_instances = 0;
    std::vector<std::uint32_t> class_start(num_classes, 0);
    for (std::size_t c = 0; c < num_classes; ++c) {
        class_start[c] = total_instances;
        total_instances += max_rep[c];
    }
    std::vector<std::uint32_t> class_of(total_instances, 0);
    result.instances.resize(total_instances);

    /** Replica lifecycle. Without the control plane every instance
     *  just alternates Idle/Busy. */
    enum class InstState : std::uint8_t {
        Idle,     ///< active, free to dispatch (on its class heap)
        Busy,     ///< active, serving a batch
        Warming,  ///< scale-up in flight; online at warm_ready
        Draining, ///< serving its last batch, parks at completion
        Parked,   ///< offline capacity (above the active count)
    };

    // Per-class ready lists keyed (last-freed cycle, instance id):
    // each class's top is its least-recently-freed instance (then
    // lowest id), and instance ids are assigned in class blocks, so
    // comparing class representatives in class order reproduces a
    // whole-cluster least-recently-freed scan. Busy instances sit in
    // one completion min-heap, making both "any instance free?" and
    // "next completion event" O(log instances) instead of scans.
    //
    // Replica churn invalidates heap entries lazily: a free entry is
    // live only while its key equals last_freed[id] and the instance
    // is still Idle; a completion entry only while its key equals
    // expected_completion[id] (warm-ups ride the completion heap as
    // pseudo-completions validated against warm_ready[id]). Stale
    // entries pop and drop. Only preemption and scaling ever
    // invalidate an entry.
    using InstanceKey = std::pair<Cycle, std::uint32_t>;
    using InstanceMinHeap =
        std::priority_queue<InstanceKey, std::vector<InstanceKey>,
                            std::greater<InstanceKey>>;
    std::vector<InstanceMinHeap> free_by_class(num_classes);
    InstanceMinHeap completions;
    // Queue-aware lookahead mirrors the completion pushes into
    // per-class busy-until horizon heaps: each class's earliest
    // expected completion (or warm-ready cycle) is heap-top, so
    // scoring a busy class's wait-until-free costs O(1) amortized —
    // no new scans in the hot loop. Entries invalidate lazily against
    // expected_completion / warm_ready exactly like the completion
    // heap's. Without lookahead nothing reads them, and nothing
    // would ever pop them, so the heaps stay empty.
    std::vector<InstanceMinHeap> horizon_by_class(
        lookahead_on ? num_classes : 0);
    std::size_t free_count = 0;
    std::vector<InstState> state(total_instances, InstState::Parked);
    std::vector<Cycle> last_freed(total_instances, 0);
    std::vector<Cycle> expected_completion(total_instances, kNeverCycle);
    std::vector<Cycle> warm_ready(total_instances, kNeverCycle);
    std::vector<Cycle> park_ready(total_instances, 0);
    std::vector<std::uint32_t> active_count(num_classes, 0);
    std::vector<std::uint32_t> free_in_class(num_classes, 0);
    {
        std::uint32_t next = 0;
        for (std::size_t c = 0; c < classes.size(); ++c)
            for (std::uint32_t k = 0; k < max_rep[c]; ++k) {
                result.instances[next].id = next;
                result.instances[next].classIndex =
                    static_cast<std::uint32_t>(c);
                class_of[next] = static_cast<std::uint32_t>(c);
                if (k < init_rep[c]) {
                    state[next] = InstState::Idle;
                    free_by_class[c].push({Cycle{0}, next});
                    ++free_count;
                    ++active_count[c];
                    ++free_in_class[c];
                }
                ++next;
            }
    }

    // Power accounting: each running batch draws its priced joules
    // over its priced service time; the cluster draw is the step
    // function summing concurrent batches.
    double current_watts = 0.0;
    double peak_watts = 0.0;
    std::vector<double> busy_watts(cap_on ? total_instances : 0, 0.0);

    // Running-batch bookkeeping for preemption (members to re-queue,
    // the record to truncate, and what the victim has executed).
    std::vector<std::vector<ServeRequest>> run_members(
        preempt_on ? total_instances : 0);
    std::vector<Cycle> run_dispatch(preempt_on ? total_instances : 0, 0);
    std::vector<Cycle> run_service(preempt_on ? total_instances : 0, 0);
    std::vector<double> run_joules(preempt_on ? total_instances : 0, 0.0);
    std::vector<std::uint64_t> run_batch(preempt_on ? total_instances : 0,
                                         0);
    std::vector<Cycle> run_min_deadline(preempt_on ? total_instances : 0,
                                        kNeverCycle);

    // Scaling-signal window counters and the applied-action trail.
    std::uint64_t window_dispatched = 0;
    std::uint64_t window_missed = 0;
    std::uint64_t scale_ups = 0;
    std::uint64_t scale_downs = 0;
    std::uint64_t power_deferred = 0;
    std::uint64_t lookahead_holds = 0;
    std::uint64_t affinity_hits = 0;
    std::uint64_t affinity_migrations = 0;

    // Affinity retention: the class that last served each scenario
    // (num_classes = "none yet"), and the candidate scratch the
    // routing scan fills per dispatch (hoisted out of the hot loop).
    std::vector<std::size_t> last_class(
        affinity_on ? num_scenarios : 0, num_classes);
    struct Candidate
    {
        bool eligible = false;
        Cycle wait = 0;
        Cycle cost = 0;
        /** Integer completion horizon (wait + cost) the raw-cycles
         *  path ranks on instead of a double score. */
        Cycle completionKey = 0;
        double score = 0.0;
        InstanceKey rep{};
    };
    std::vector<Candidate> cands(num_classes);
    std::uint64_t preempt_count = 0;
    Cycle preempted_cycles = 0;
    Cycle released_makespan = 0;
    Cycle next_control = control_interval;
    std::vector<std::vector<ServeStats::ReplicaSample>> timelines;
    if (scaling_on) {
        timelines.assign(num_classes, {});
        for (std::size_t c = 0; c < num_classes; ++c)
            timelines[c].push_back({Cycle{0}, init_rep[c]});
    }

    // Batches the power cap refused to place: strict head-of-line —
    // while one waits, nothing younger dispatches past it.
    std::deque<std::vector<ServeRequest>> deferred;

    const std::vector<TenantMix> tenants = resolvedTenants(config_);
    std::optional<StreamingStatsSink> sink;
    if (streaming)
        sink.emplace(tenants.size(), num_classes,
                     config_.stats.reservoirCapacity, config_.seed,
                     config_.stats.flushEveryRequests, &std::cerr);

    std::uint64_t served = 0;
    Cycle now = 0;

    while (served < total_requests) {
        // Release completions due by now back onto their class's
        // ready list. The freed key keeps the completion cycle, which
        // least-recently-freed ties compare. Each entry is validated
        // first (stale entries from preemptions and cancelled
        // warm-ups drop), warm-ups come online, and draining
        // replicas park instead of re-listing.
        while (!completions.empty() && completions.top().first <= now) {
            const InstanceKey done = completions.top();
            completions.pop();
            const std::uint32_t inst = done.second;
            const std::uint32_t cls = class_of[inst];
            if (state[inst] == InstState::Warming &&
                done.first == warm_ready[inst]) {
                state[inst] = InstState::Idle;
                warm_ready[inst] = kNeverCycle;
                free_by_class[cls].push(done);
                last_freed[inst] = done.first;
                ++free_count;
                ++free_in_class[cls];
                continue;
            }
            if ((state[inst] == InstState::Busy ||
                 state[inst] == InstState::Draining) &&
                done.first == expected_completion[inst]) {
                expected_completion[inst] = kNeverCycle;
                if (cap_on) {
                    current_watts -= busy_watts[inst];
                    busy_watts[inst] = 0.0;
                    if (current_watts < 1e-9)
                        current_watts = 0.0;
                }
                released_makespan =
                    std::max(released_makespan, done.first);
                if (state[inst] == InstState::Draining) {
                    state[inst] = InstState::Parked;
                    park_ready[inst] =
                        satAddCycles(done.first, drain_cycles);
                } else {
                    state[inst] = InstState::Idle;
                    free_by_class[cls].push(done);
                    last_freed[inst] = done.first;
                    ++free_count;
                    ++free_in_class[cls];
                }
                continue;
            }
            // Stale: a cancelled warm-up, or the original completion
            // of a batch that was preempted mid-flight.
        }
        while (pending && pending->arrival <= now) {
            policy->admit(*pending);
            refill();
        }
        const bool drain = !pending;

        // Control tick: snapshot per-class signals, ask the scaling
        // policy for a delta, apply it with warm-up/drain costs.
        if (scaling_on && now >= next_control) {
            for (std::size_t c = 0; c < num_classes; ++c) {
                ScalingSignals signals;
                signals.now = now;
                signals.queuedRequests = policy->pending();
                signals.activeReplicas = active_count[c];
                signals.freeReplicas = free_in_class[c];
                signals.minReplicas = min_rep[c];
                signals.maxReplicas = max_rep[c];
                signals.windowDispatched = window_dispatched;
                signals.windowMissed = window_missed;
                const std::int64_t target = std::clamp<std::int64_t>(
                    static_cast<std::int64_t>(active_count[c]) +
                        scaler->delta(signals),
                    min_rep[c], max_rep[c]);
                const std::uint32_t lo = class_start[c];
                const std::uint32_t hi = lo + max_rep[c];
                while (target >
                       static_cast<std::int64_t>(active_count[c])) {
                    // Bring up the lowest-id parked replica; it joins
                    // the free list warmup_cycles after it can start
                    // (its drain must have finished first).
                    std::uint32_t pick = hi;
                    for (std::uint32_t i = lo; i < hi; ++i)
                        if (state[i] == InstState::Parked) {
                            pick = i;
                            break;
                        }
                    if (pick == hi)
                        break;
                    state[pick] = InstState::Warming;
                    warm_ready[pick] = satAddCycles(
                        std::max(now, park_ready[pick]), warmup_cycles);
                    completions.push({warm_ready[pick], pick});
                    if (lookahead_on)
                        horizon_by_class[c].push(
                            {warm_ready[pick], pick});
                    ++active_count[c];
                    ++scale_ups;
                    timelines[c].push_back({now, active_count[c]});
                }
                while (target <
                       static_cast<std::int64_t>(active_count[c])) {
                    // Retire the highest-id replica that costs the
                    // least to stop: cancel a warm-up, else park an
                    // idle replica, else drain a busy one after its
                    // in-flight batch.
                    std::uint32_t pick = hi;
                    for (std::uint32_t i = hi; i-- > lo;)
                        if (state[i] == InstState::Warming) {
                            pick = i;
                            break;
                        }
                    if (pick != hi) {
                        state[pick] = InstState::Parked;
                        warm_ready[pick] = kNeverCycle;
                        park_ready[pick] = now;
                    } else {
                        for (std::uint32_t i = hi; i-- > lo;)
                            if (state[i] == InstState::Idle) {
                                pick = i;
                                break;
                            }
                        if (pick != hi) {
                            state[pick] = InstState::Parked;
                            park_ready[pick] =
                                satAddCycles(now, drain_cycles);
                            --free_count;
                            --free_in_class[c];
                        } else {
                            for (std::uint32_t i = hi; i-- > lo;)
                                if (state[i] == InstState::Busy) {
                                    pick = i;
                                    break;
                                }
                            if (pick == hi)
                                break;
                            state[pick] = InstState::Draining;
                        }
                    }
                    --active_count[c];
                    ++scale_downs;
                    timelines[c].push_back({now, active_count[c]});
                }
            }
            window_dispatched = 0;
            window_missed = 0;
            while (next_control <= now)
                next_control =
                    satAddCycles(next_control, control_interval);
        }

        // Route one batch: Dispatched commits it, Blocked reports
        // that the power cap (the only reason routing can refuse
        // while an instance is free) left it unplaced, and Held
        // reports that lookahead/affinity chose a busy class that
        // frees soon.
        enum class Placement : std::uint8_t {
            Dispatched,
            Blocked,
            Held,
        };
        auto dispatch_batch =
            [&](const std::vector<ServeRequest> &members) -> Placement {
            const std::uint32_t scenario = members.front().scenario;
            const std::size_t batch_size = members.size();
            const std::size_t score_idx =
                std::min(batch_size, max_batch) - 1;

            std::size_t best_class = num_classes;
            bool cap_skipped = false;
            bool affinity_hit = false;
            bool affinity_migrated = false;

            // Free classes are candidates at wait 0, scored from the
            // static table. Under lookahead busy classes are too, at
            // their heap-top busy-until horizon, scored per dispatch
            // since the wait term is dynamic. The power cap filters
            // only wait-0 candidates: holding for a busy class defers
            // the draw to a completion that frees budget anyway.
            for (std::size_t c = 0; c < num_classes; ++c) {
                Candidate &cand = cands[c];
                cand.eligible = false;
                InstanceMinHeap &heap = free_by_class[c];
                while (!heap.empty() &&
                       (state[heap.top().second] != InstState::Idle ||
                        heap.top().first != last_freed[heap.top().second]))
                    heap.pop();
                const Cycle cost = curveAt(curves[c][scenario], batch_size);
                if (!heap.empty()) {
                    if (cap_on) {
                        const double watts =
                            energyCurveAt(energy[c][scenario], batch_size) *
                            clock_hz / static_cast<double>(cost);
                        if (current_watts + watts > cap_watts) {
                            cap_skipped = true;
                            continue;
                        }
                    }
                    cand.eligible = true;
                    cand.wait = 0;
                    cand.cost = cost;
                    cand.completionKey = cost;
                    cand.rep = heap.top();
                    cand.score =
                        raw_cycles ? 0.0 : scores[c][scenario][score_idx];
                    continue;
                }
                if (!lookahead_on)
                    continue;
                InstanceMinHeap &busy = horizon_by_class[c];
                while (!busy.empty()) {
                    const auto [cycle, inst] = busy.top();
                    if ((state[inst] == InstState::Busy &&
                         cycle == expected_completion[inst]) ||
                        (state[inst] == InstState::Warming &&
                         cycle == warm_ready[inst]))
                        break;
                    busy.pop();
                }
                if (busy.empty())
                    continue;
                // Completions due by now were already released, so a
                // live horizon is strictly in the future.
                const Cycle wait = busy.top().first - now;
                cand.eligible = true;
                cand.wait = wait;
                cand.cost = cost;
                cand.completionKey = satAddCycles(wait, cost);
                cand.rep = busy.top();
                if (raw_cycles) {
                    cand.score = 0.0;
                } else {
                    RouteCandidate rc;
                    rc.classIndex = c;
                    rc.waitCycles = wait;
                    rc.serviceCycles = cost;
                    rc.joules = energyCurveAt(energy[c][scenario], batch_size);
                    rc.batchSize = batch_size;
                    cand.score = objective->score(rc, clock_hz);
                }
            }
            // Deterministic chain: score (raw integer completion
            // horizon under "cycles"), then service cycles, then wait
            // (a free class beats a busy tie), then the representative
            // (last-freed, id) key. Class-blocked instance ids make
            // that last compare reproduce a whole-cluster
            // least-recently-freed scan.
            for (std::size_t c = 0; c < num_classes; ++c) {
                const Candidate &cand = cands[c];
                if (!cand.eligible)
                    continue;
                if (best_class != num_classes) {
                    const Candidate &best = cands[best_class];
                    const int order =
                        raw_cycles
                            ? (cand.completionKey < best.completionKey   ? -1
                               : cand.completionKey > best.completionKey ? 1
                                                                         : 0)
                            : compareScores(cand.score, best.score);
                    if (order > 0 ||
                        (order == 0 &&
                         std::tie(cand.cost, cand.wait, cand.rep) >=
                             std::tie(best.cost, best.wait, best.rep)))
                        continue;
                }
                best_class = c;
            }
            // Affinity retention: stay on the scenario's last-served
            // class unless the winner's score beats it by more than the
            // configured relative margin. Without lookahead a busy
            // incumbent is not a candidate, so retention only
            // arbitrates among free classes.
            if (affinity_on && best_class != num_classes) {
                const std::size_t last = last_class[scenario];
                if (last < num_classes && last != best_class &&
                    cands[last].eligible) {
                    auto metric = [raw_cycles](const Candidate &cand) {
                        return raw_cycles
                                   ? static_cast<double>(cand.completionKey)
                                   : cand.score;
                    };
                    const double keep = 1.0 - routing.affinityMargin;
                    if (metric(cands[best_class]) <
                        metric(cands[last]) * keep) {
                        affinity_migrated = true;
                    } else {
                        affinity_hit = true;
                        best_class = last;
                    }
                }
            }
            if (best_class == num_classes && cap_skipped &&
                current_watts <= 0.0) {
                // Progress guarantee: an idle cluster always places
                // the batch on its least-thirsty class, even when
                // that one batch alone exceeds the cap — otherwise a
                // cap below any single batch's draw would live-lock.
                double min_watts = 0.0;
                for (std::size_t c = 0; c < num_classes; ++c) {
                    if (free_by_class[c].empty())
                        continue;
                    const Cycle cost =
                        curveAt(curves[c][scenario], batch_size);
                    const double watts =
                        energyCurveAt(energy[c][scenario],
                                      batch_size) *
                        clock_hz / static_cast<double>(cost);
                    if (best_class == num_classes ||
                        watts < min_watts) {
                        best_class = c;
                        min_watts = watts;
                        cands[c].wait = 0;
                        cands[c].cost = cost;
                        cands[c].rep = free_by_class[c].top();
                    }
                }
            }
            if (best_class == num_classes)
                return Placement::Blocked;
            const Candidate &win = cands[best_class];
            if (win.wait > 0)
                return Placement::Held;

            const std::uint32_t inst = win.rep.second;
            free_by_class[best_class].pop();
            --free_count;

            const Cycle service = win.cost;
            policy->onDispatch(members, service);
            const Cycle completion = now + service;
            const double joules = energyCurveAt(
                energy[best_class][scenario], batch_size);
            const std::uint64_t batch_id =
                streaming ? 0 : result.batches.size();

            if (streaming) {
                sink->onBatch(now, completion, joules,
                              static_cast<std::uint32_t>(best_class),
                              members);
            } else {
                BatchRecord batch;
                batch.id = batch_id;
                batch.scenario = scenario;
                batch.instance = inst;
                batch.dispatch = now;
                batch.completion = completion;
                batch.joules = joules;
                for (const ServeRequest &member : members) {
                    // The record arena is indexed by request id;
                    // RequestGenerator assigns ids densely, so this
                    // only trips on a hand-built stream.
                    if (member.id >= result.requests.size())
                        throw std::invalid_argument(
                            "serve: request id " +
                            std::to_string(member.id) +
                            " is out of range for a " +
                            std::to_string(result.requests.size()) +
                            "-request stream (ids must be dense and "
                            "0-based)");
                    RequestRecord &record = result.requests[member.id];
                    record.id = member.id;
                    record.tenant = member.tenant;
                    record.scenario = member.scenario;
                    record.arrival = member.arrival;
                    record.deadline = member.deadline;
                    record.dispatch = batch.dispatch;
                    record.completion = batch.completion;
                    record.instance = batch.instance;
                    record.batch = batch.id;
                    batch.requestIds.push_back(member.id);
                }
                result.batches.push_back(std::move(batch));
            }

            state[inst] = InstState::Busy;
            --free_in_class[best_class];
            expected_completion[inst] = completion;
            if (cap_on) {
                const double watts =
                    joules * clock_hz / static_cast<double>(service);
                busy_watts[inst] = watts;
                current_watts += watts;
                peak_watts = std::max(peak_watts, current_watts);
            }
            if (scaling_on) {
                window_dispatched += batch_size;
                for (const ServeRequest &member : members)
                    if (member.deadline != kNeverCycle &&
                        completion > member.deadline)
                        ++window_missed;
            }
            if (preempt_on) {
                run_members[inst] = members;
                run_dispatch[inst] = now;
                run_service[inst] = service;
                run_joules[inst] = joules;
                run_batch[inst] = batch_id;
                run_min_deadline[inst] = kNeverCycle;
                for (const ServeRequest &member : members)
                    run_min_deadline[inst] =
                        std::min(run_min_deadline[inst], member.deadline);
            }

            InstanceRecord &instance = result.instances[inst];
            ++instance.batches;
            instance.requests += batch_size;
            instance.busyCycles += service;
            completions.push({completion, inst});
            if (lookahead_on)
                horizon_by_class[best_class].push({completion, inst});
            if (affinity_on) {
                if (affinity_hit)
                    ++affinity_hits;
                if (affinity_migrated)
                    ++affinity_migrations;
                last_class[scenario] = best_class;
            }
            served += batch_size;
            return Placement::Dispatched;
        };

        // A tight-deadline head about to burn while every replica
        // grinds a bulk batch: checkpoint-displace the bulk victim
        // with the most remaining work, re-queue its members, and
        // free its replica after the priced checkpoint overhead.
        // Only fires when it can actually save the head's deadline.
        auto try_preempt = [&]() -> bool {
            const SchedulerPolicy::HeadPeek peek =
                policy->peekHead(now, drain);
            if (!peek.valid || peek.deadline == kNeverCycle)
                return false;
            const Cycle unit = oracle_table[peek.scenario][0];
            Cycle earliest = kNeverCycle;
            for (std::uint32_t i = 0; i < total_instances; ++i) {
                if (state[i] == InstState::Busy ||
                    state[i] == InstState::Draining)
                    earliest =
                        std::min(earliest, expected_completion[i]);
                else if (state[i] == InstState::Warming)
                    earliest = std::min(earliest, warm_ready[i]);
            }
            if (earliest == kNeverCycle ||
                satAddCycles(earliest, unit) <= peek.deadline)
                return false; // a replica frees in time anyway
            std::uint32_t victim = total_instances;
            Cycle victim_completion = 0;
            for (std::uint32_t i = 0; i < total_instances; ++i)
                if (state[i] == InstState::Busy &&
                    run_min_deadline[i] == kNeverCycle &&
                    !run_members[i].empty() &&
                    expected_completion[i] > victim_completion) {
                    victim = i;
                    victim_completion = expected_completion[i];
                }
            if (victim == total_instances)
                return false; // nothing bulk to displace
            const Cycle executed = now - run_dispatch[victim];
            const Cycle overhead = std::max<Cycle>(
                1, static_cast<Cycle>(std::llround(
                       control.preemptionOverheadFraction *
                       static_cast<double>(run_service[victim]))));
            if (satAddCycles(satAddCycles(now, overhead), unit) >
                peek.deadline)
                return false; // too late for the checkpoint to help

            const std::size_t displaced = run_members[victim].size();
            BatchRecord &batch = result.batches[run_batch[victim]];
            batch.preempted = true;
            batch.completion = now + overhead;
            const double burned_fraction =
                static_cast<double>(executed + overhead) /
                static_cast<double>(run_service[victim]);
            batch.joules = run_joules[victim] * burned_fraction;
            InstanceRecord &vic = result.instances[victim];
            vic.busyCycles -= run_service[victim];
            vic.busyCycles += executed + overhead;
            vic.requests -= displaced;
            // busy_watts stays in place: the replica keeps drawing
            // power through the checkpoint; the pseudo-completion at
            // now + overhead subtracts it.
            expected_completion[victim] = now + overhead;
            completions.push({now + overhead, victim});
            for (const ServeRequest &member : run_members[victim])
                policy->admit(member);
            served -= displaced;
            run_members[victim].clear();
            run_min_deadline[victim] = kNeverCycle;
            ++preempt_count;
            preempted_cycles += executed;
            return true;
        };

        // Dispatch while a batch is formable and an instance is
        // free. The policy picks the batch; routing then picks the
        // class the configured objective scores best at the batch's
        // actual size. A cap-deferred batch holds the line: nothing
        // younger passes it, and it retries at every event until it
        // fits. A lookahead-held batch re-enters the policy's queues
        // instead, so it keeps growing while it waits for the busy
        // class it scored best.
        for (;;) {
            if (!deferred.empty()) {
                if (free_count == 0)
                    break;
                // A held verdict on a cap-deferred batch just waits:
                // its members already left the policy once, and the
                // completion it waits for is the next event anyway.
                if (dispatch_batch(deferred.front()) !=
                    Placement::Dispatched)
                    break;
                deferred.pop_front();
                continue;
            }
            if (free_count == 0) {
                if (preempt_on)
                    try_preempt();
                break;
            }
            if (!policy->ready(now, drain))
                break;

            std::vector<ServeRequest> members =
                policy->pop(now, drain);
            const Placement placed = dispatch_batch(members);
            if (placed == Placement::Held) {
                // The batch waits for a busy class that frees soon.
                // Its members re-enter the policy's queues — the
                // same re-admission preemption uses — so co-batchable
                // arrivals can still join, and the dispatch retries
                // at the completion (or arrival) event that changes
                // the scores. Head-of-line: nothing else dispatches
                // this event.
                ++lookahead_holds;
                for (const ServeRequest &member : members)
                    policy->admit(member);
                break;
            }
            if (placed == Placement::Blocked) {
                deferred.push_back(std::move(members));
                ++power_deferred;
                break;
            }
        }

        if (served == total_requests)
            break;

        // Advance to the next event: an arrival, a queue-head batch
        // timeout, an instance completion (or warm-up), or a control
        // tick.
        Cycle next = kNeverCycle;
        if (pending)
            next = std::min(next, pending->arrival);
        if (!policy->empty() || !deferred.empty()) {
            // A timeout already in the past made its queue ready; the
            // blocker is then a busy instance, so only future expiries
            // are events.
            const Cycle timeout = policy->nextTimeout();
            if (!drain && timeout > now)
                next = std::min(next, timeout);
            if (!completions.empty())
                next = std::min(next, completions.top().first);
        }
        if (scaling_on && next_control > now)
            next = std::min(next, next_control);
        if (next == kNeverCycle || next <= now)
            throw std::logic_error("serve: scheduler cannot advance");
        now = next;
    }

    // Work completions still in flight at exit count toward the
    // makespan; warm-up pseudo-completions and stale entries from
    // preemptions do not.
    result.makespan = released_makespan;
    for (; !completions.empty(); completions.pop()) {
        const auto [cycle, inst] = completions.top();
        if ((state[inst] == InstState::Busy ||
             state[inst] == InstState::Draining) &&
            cycle == expected_completion[inst])
            result.makespan = std::max(result.makespan, cycle);
    }

    for (InstanceRecord &instance : result.instances)
        instance.utilization =
            result.makespan > 0
                ? static_cast<double>(instance.busyCycles) /
                      static_cast<double>(result.makespan)
                : 0.0;

    std::vector<std::string> class_labels;
    class_labels.reserve(classes.size());
    for (const ClusterSpec::InstanceClass &cls : classes)
        class_labels.push_back(cls.label());

    if (streaming)
        result.stats =
            sink->finish(result.instances, result.makespan,
                         result.clockHz, tenants, class_labels);
    else
        result.stats = computeServeStats(
            result.requests, result.batches, result.instances,
            result.makespan, result.clockHz, tenants, class_labels);
    ServeStats &stats = result.stats;
    stats.deadlineCapsAvoided = policy->deadlineCapsAvoided();
    stats.lookaheadHolds = lookahead_holds;
    stats.affinityHits = affinity_hits;
    stats.affinityMigrations = affinity_migrations;
    stats.powerDeferredBatches = power_deferred;
    stats.peakClusterWatts = peak_watts;
    // Like the rest of the control-plane accounting, reported only
    // while the plane is on.
    if (control_on && result.makespan > 0)
        stats.meanClusterWatts = stats.totalJoules * clock_hz /
                                 static_cast<double>(result.makespan);
    stats.preemptions = preempt_count;
    stats.preemptedCycles = preempted_cycles;
    stats.scaleUpEvents = scale_ups;
    stats.scaleDownEvents = scale_downs;
    stats.replicaTimelines = std::move(timelines);
    return result;
}

ServeResult
runServe(const ServeConfig &config)
{
    return Scheduler(config).run();
}

} // namespace hygcn::serve
