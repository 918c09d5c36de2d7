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

using Priced = PricedScenarioCache::Priced;

/**
 * Price every (class, scenario) pair through @p price (the cache or
 * an injected platform) into a result's curve echo: the one pricing
 * loop behind both run() overloads. Cycle curves convert into the
 * cluster time base (the first class's last-scenario clock) so a
 * cycle means the same wall-clock time on every class, point by
 * point; equal clocks pass through, keeping the goldens bit-exact.
 */
ServeResult
priceCluster(const ServeConfig &config, std::size_t num_classes,
             const std::function<Priced(std::size_t, std::size_t)> &price)
{
    ServeResult result;
    result.config = config;
    result.cyclesByBatchByClass.resize(num_classes);
    result.joulesByBatchByClass.resize(num_classes);
    result.unitCyclesByClass.resize(num_classes);
    std::vector<std::vector<double>> clock(num_classes);
    for (std::size_t c = 0; c < num_classes; ++c)
        for (std::size_t s = 0; s < config.scenarios.size(); ++s) {
            Priced priced = price(c, s);
            result.cyclesByBatchByClass[c].push_back(
                std::move(priced.cyclesByBatch));
            result.joulesByBatchByClass[c].push_back(
                std::move(priced.joulesByBatch));
            clock[c].push_back(priced.clockHz);
        }
    result.clockHz = clock[0].back();
    for (std::size_t c = 0; c < num_classes; ++c)
        for (std::size_t s = 0; s < config.scenarios.size(); ++s) {
            std::vector<Cycle> &curve = result.cyclesByBatchByClass[c][s];
            if (clock[c][s] != result.clockHz)
                for (Cycle &point : curve)
                    point = std::max<Cycle>(
                        1, static_cast<Cycle>(std::llround(
                               static_cast<double>(point) *
                               (result.clockHz / clock[c][s]))));
            result.unitCyclesByClass[c].push_back(curveAt(curve, 1));
        }
    result.scenarioUnitCycles = result.unitCyclesByClass.front();
    return result;
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
    PricedScenarioCache::Tally tally;
    auto price = [&](std::size_t c, std::size_t s) {
        return PricedScenarioCache::global().priceCurve(
            classes[c].platform, classSpec(classes[c], config_.scenarios[s]),
            config_, &tally);
    };
    ServeResult result =
        simulate(classes, priceCluster(config_, classes.size(), price));
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
    const std::vector<ClusterSpec::InstanceClass> classes =
        resolveClasses();
    auto price = [&](std::size_t, std::size_t s) {
        const api::RunSpec spec = classSpec(classes[0], config_.scenarios[s]);
        // One co-batch run serves both curves (the registry path gets
        // the same sharing from the cache's unit entries).
        std::map<std::uint32_t, Priced> co_batch;
        auto measure = [&](std::uint32_t copies) {
            auto [it, fresh] = co_batch.try_emplace(copies);
            if (fresh) {
                api::RunSpec batched = spec;
                batched.batchCopies = copies;
                it->second = Priced::of(platform.run(batched).report);
            }
            return it->second;
        };
        return PricedScenarioCache::assemble(
            Priced::of(platform.run(spec).report), *model, config_, measure);
    };
    return simulate(classes, priceCluster(config_, 1, price));
}

// ---- the serving core ----------------------------------------------
//
// simulate() is an event loop over three parts, each owning one
// decision: the InstancePool owns where every replica is in its
// lifecycle and when it frees, the ControlLoop owns how many replicas
// run, how much power they may draw and which running batch a tight
// deadline may displace, and the Router owns which class a formed
// batch runs on, or whether it waits for one.

namespace {

/** Replica lifecycle, one bit per state so a heap can name the states
 *  its live entries expect. Control plane off: just Idle/Busy. */
enum InstState : unsigned {
    kIdle = 1,     ///< active, free to dispatch (on its class heap)
    kBusy = 2,     ///< active, serving a batch
    kWarming = 4,  ///< scale-up in flight
    kDraining = 8, ///< serving its last batch, parks at completion
    kParked = 16,  ///< offline capacity (above the active count)

    // Sets a heap's live entries may be in.
    kServing = kBusy | kDraining,   ///< a work completion is due
    kPending = kServing | kWarming, ///< a completion-heap event is due
    kRejoining = kBusy | kWarming,  ///< frees onto its class heap
};

using InstanceKey = std::pair<Cycle, std::uint32_t>;
using InstanceMinHeap =
    std::priority_queue<InstanceKey, std::vector<InstanceKey>,
                        std::greater<InstanceKey>>;

/** Cycle-valued control knobs resolve against the mean interarrival
 *  gap, like ArrivalSpec's, so presets scale with their load level. */
Cycle
resolveCycles(const ServeConfig &config, Cycle configured, double factor)
{
    if (configured > 0)
        return configured;
    const double mean_gap = std::max(config.meanInterarrivalCycles, 1.0);
    return std::max<Cycle>(
        1, static_cast<Cycle>(std::llround(factor * mean_gap)));
}

/** The batch an instance is serving: what the power ledger releases
 *  at its completion and what preemption needs to displace it: its
 *  BatchRecord index, its members and their tightest deadline (kept
 *  under preemption; a bulk batch has no deadline). */
struct RunningBatch
{
    std::uint32_t instance = 0;
    Cycle dispatch = 0;
    Cycle service = 0;
    double joules = 0.0;
    double watts = 0.0;
    std::uint64_t record = 0;
    std::vector<ServeRequest> members;
    Cycle minDeadline = kNeverCycle;
};

/**
 * The instance arena, its records and the replica lifecycle, in
 * class blocks at each class's replica ceiling so autoscaling never
 * reindexes; replicas beyond the initial count start Parked.
 * Per-class free heaps are keyed (last-freed cycle, id), so comparing
 * class tops in class order reproduces a whole-cluster
 * least-recently-freed scan. Busy and warming instances share one
 * completion heap, which lookahead mirrors into per-class horizons.
 *
 * Each instance has one ready_at cycle, read by its state: when it
 * freed (Idle), when its batch completes (Busy, Draining), when it
 * comes online (Warming), or when a warm-up may start (Parked). A
 * heap entry is live only while its key equals ready_at in a state
 * the heap expects, so churn and preemption invalidate lazily.
 */
class InstancePool
{
  public:
    InstancePool(const ServeConfig &config,
                 const std::vector<ClusterSpec::InstanceClass> &classes,
                 std::vector<InstanceRecord> &records)
        : active_(classes.size(), 0), idle_(classes.size(), 0),
          free_(classes.size()),
          horizon_(config.routing.lookahead ? classes.size() : 0),
          records_(records),
          warmup_(resolveCycles(config, config.control.warmupCycles, 8.0)),
          drain_(resolveCycles(config, config.control.drainCycles, 4.0))
    {
        const bool scaling = config.control.scalingPolicy != "static";
        for (std::uint32_t c = 0; c < classes.size(); ++c) {
            start_.push_back(size());
            capacity_.push_back(scaling && classes[c].maxCount
                                    ? classes[c].maxCount
                                    : classes[c].count);
            class_of_.resize(size() + capacity_[c], c);
        }
        state_.assign(size(), kParked);
        ready_at_.assign(size(), 0);
        running_.resize(size());
        records_.resize(size());
        for (std::uint32_t i = 0; i < size(); ++i) {
            const std::uint32_t c = class_of_[i];
            records_[i].id = i;
            records_[i].classIndex = c;
            if (i - start_[c] < classes[c].count) {
                ++active_[c];
                makeIdle(i, 0);
            }
        }
    }

    std::uint32_t size() const
    { return static_cast<std::uint32_t>(class_of_.size()); }
    std::uint32_t capacity(std::size_t c) const { return capacity_[c]; }
    std::uint32_t active(std::size_t c) const { return active_[c]; }
    std::uint32_t idle(std::size_t c) const { return idle_[c]; }
    bool in(std::uint32_t inst, unsigned states) const
    { return (states & state_[inst]) != 0; }
    Cycle readyAt(std::uint32_t inst) const { return ready_at_[inst]; }
    RunningBatch &running(std::uint32_t inst) { return running_[inst]; }
    std::uint32_t idleTotal() const
    {
        std::uint32_t total = 0;
        for (std::uint32_t n : idle_)
            total += n;
        return total;
    }

    /** Class @p c's least-recently-freed idle instance, or nullptr. */
    const InstanceKey *idleTop(std::size_t c)
    { return liveTop(free_[c], kIdle); }
    /** Class @p c's earliest busy-until horizon, or nullptr. */
    const InstanceKey *horizonTop(std::size_t c)
    { return liveTop(horizon_[c], kRejoining); }

    /** Put class @p c's idle top to work on @p size requests from
     *  @p now for @p service cycles. */
    RunningBatch &occupy(std::size_t c, Cycle now, Cycle service,
                         std::size_t size)
    {
        const std::uint32_t inst = free_[c].top().second;
        free_[c].pop();
        --idle_[c];
        state_[inst] = kBusy;
        expect(inst, now + service);
        InstanceRecord &record = records_[inst];
        ++record.batches;
        record.requests += size;
        record.busyCycles += service;
        RunningBatch &run = running_[inst];
        run.instance = inst;
        run.dispatch = now;
        run.service = service;
        return run;
    }

    /** Cut @p inst's batch short: it frees at @p cycle, without its
     *  @p displaced requests. Its horizon entry just goes stale. */
    void cutShort(std::uint32_t inst, Cycle cycle, std::size_t displaced)
    {
        InstanceRecord &record = records_[inst];
        record.busyCycles -= running_[inst].service;
        record.busyCycles += cycle - running_[inst].dispatch;
        record.requests -= displaced;
        ready_at_[inst] = cycle;
        completions_.push({cycle, inst});
    }

    /** Release the completions due by @p now: a finished batch's draw
     *  leaves @p ledger and its instance re-lists at the completion
     *  cycle, or parks if draining. Warm-ups come online. */
    template <typename Ledger>
    void release(Cycle now, Ledger &ledger)
    {
        while (!completions_.empty() && completions_.top().first <= now) {
            const auto [cycle, inst] = completions_.top();
            completions_.pop();
            if (!live({cycle, inst}, kPending))
                continue;
            if (in(inst, kServing)) {
                ledger.release(running_[inst]);
                released_makespan_ = std::max(released_makespan_, cycle);
            }
            if (state_[inst] == kDraining) {
                state_[inst] = kParked;
                ready_at_[inst] = satAddCycles(cycle, drain_);
            } else {
                makeIdle(inst, cycle);
            }
        }
    }

    /** Warm up class @p c's lowest-id parked replica once its drain
     *  is over. False when none is parked. */
    bool scaleUp(std::size_t c, Cycle now)
    {
        for (std::uint32_t i = start_[c]; i < start_[c] + capacity_[c];
             ++i)
            if (state_[i] == kParked) {
                state_[i] = kWarming;
                expect(i, satAddCycles(std::max(now, ready_at_[i]), warmup_));
                ++active_[c];
                return true;
            }
        return false;
    }

    /** Retire class @p c's highest-id replica that is cheapest to stop:
     *  cancel a warm-up, else park an idle one, else drain a busy one.
     *  False when none qualifies. */
    bool scaleDown(std::size_t c, Cycle now)
    {
        const std::uint32_t none = start_[c] + capacity_[c];
        std::uint32_t warming = none, idle = none, busy = none;
        for (std::uint32_t i = start_[c]; i < none; ++i) {
            if (state_[i] == kWarming)
                warming = i;
            else if (state_[i] == kIdle)
                idle = i;
            else if (state_[i] == kBusy)
                busy = i;
        }
        if (warming != none) {
            state_[warming] = kParked;
            ready_at_[warming] = now;
        } else if (idle != none) {
            state_[idle] = kParked;
            ready_at_[idle] = satAddCycles(now, drain_);
            --idle_[c];
        } else if (busy != none) {
            state_[busy] = kDraining;
        } else {
            return false;
        }
        --active_[c];
        return true;
    }

    /** The next completion-heap event, stale entries included. */
    Cycle nextCompletion() const
    { return completions_.empty() ? kNeverCycle : completions_.top().first; }

    /** The last work completion, released or in flight. */
    Cycle makespan()
    {
        Cycle makespan = released_makespan_;
        for (; !completions_.empty(); completions_.pop())
            if (live(completions_.top(), kServing))
                makespan = std::max(makespan, completions_.top().first);
        return makespan;
    }

  private:
    bool live(InstanceKey key, unsigned states) const
    { return in(key.second, states) && key.first == ready_at_[key.second]; }
    const InstanceKey *liveTop(InstanceMinHeap &heap, unsigned states)
    {
        while (!heap.empty() && !live(heap.top(), states))
            heap.pop();
        return heap.empty() ? nullptr : &heap.top();
    }

    void makeIdle(std::uint32_t inst, Cycle cycle)
    {
        state_[inst] = kIdle;
        ready_at_[inst] = cycle;
        free_[class_of_[inst]].push({cycle, inst});
        ++idle_[class_of_[inst]];
    }

    /** Schedule @p inst's completion (or warm-up) at @p cycle. */
    void expect(std::uint32_t inst, Cycle cycle)
    {
        ready_at_[inst] = cycle;
        completions_.push({cycle, inst});
        if (!horizon_.empty())
            horizon_[class_of_[inst]].push({cycle, inst});
    }

    std::vector<std::uint32_t> start_, capacity_, active_, idle_;
    std::vector<std::uint32_t> class_of_;
    std::vector<InstState> state_;
    std::vector<Cycle> ready_at_;
    std::vector<RunningBatch> running_;
    std::vector<InstanceMinHeap> free_, horizon_;
    InstanceMinHeap completions_;
    std::vector<InstanceRecord> &records_;
    Cycle warmup_, drain_;
    Cycle released_makespan_ = 0;
};

/**
 * The control plane: the scaling tick, the power ledger and
 * preemption. Scaling and preemption each gate their own work. The
 * ledger always runs, so every run reports its peak draw; only
 * enforcing a cap is gated.
 */
class ControlLoop
{
  public:
    ControlLoop(const ServeConfig &config,
                const std::vector<ClusterSpec::InstanceClass> &classes)
        : cap_watts_(config.control.powerCapWatts),
          preemption_(config.control.preemption),
          overhead_fraction_(config.control.preemptionOverheadFraction),
          interval_(resolveCycles(config, config.control.intervalCycles,
                                  16.0)),
          next_tick_(interval_)
    {
        if (config.control.scalingPolicy == "static")
            return;
        scaler_ = api::Registry::global().makeScalingPolicy(
            config.control.scalingPolicy, config);
        for (const ClusterSpec::InstanceClass &cls : classes) {
            min_replicas_.push_back(cls.minCount ? cls.minCount
                                                 : cls.count);
            timelines_.push_back({{Cycle{0}, cls.count}});
        }
    }

    bool preempts() const { return preemption_; }
    bool capped() const { return cap_watts_ > 0.0; }
    bool overCap(double watts) const
    { return current_watts_ + watts > cap_watts_; }
    bool drawsNothing() const { return current_watts_ <= 0.0; }
    Cycle nextTick() const { return scaler_ ? next_tick_ : kNeverCycle; }

    /** Charge a dispatched batch drawing @p watts to the ledger, the
     *  scaling window and preemption's bookkeeping. */
    void charge(RunningBatch &run, const std::vector<ServeRequest> &members,
                double watts)
    {
        run.watts = watts;
        current_watts_ += watts;
        peak_watts_ = std::max(peak_watts_, current_watts_);
        if (scaler_) {
            window_dispatched_ += members.size();
            for (const ServeRequest &member : members)
                if (member.deadline != kNeverCycle &&
                    run.dispatch + run.service > member.deadline)
                    ++window_missed_;
        }
        if (preemption_) {
            run.members = members;
            run.minDeadline = kNeverCycle;
            for (const ServeRequest &member : members)
                run.minDeadline = std::min(run.minDeadline, member.deadline);
        }
    }

    void release(RunningBatch &run)
    {
        current_watts_ -= run.watts;
        run.watts = 0.0;
        if (current_watts_ < 1e-9)
            current_watts_ = 0.0;
    }

    /** At a due tick, apply the scaling policy's per-class delta. */
    void tick(Cycle now, std::size_t queued, InstancePool &pool)
    {
        if (!scaler_ || now < next_tick_)
            return;
        for (std::size_t c = 0; c < min_replicas_.size(); ++c) {
            ScalingSignals signals;
            signals.now = now;
            signals.queuedRequests = queued;
            signals.activeReplicas = pool.active(c);
            signals.freeReplicas = pool.idle(c);
            signals.minReplicas = min_replicas_[c];
            signals.maxReplicas = pool.capacity(c);
            signals.windowDispatched = window_dispatched_;
            signals.windowMissed = window_missed_;
            const std::int64_t target = std::clamp<std::int64_t>(
                static_cast<std::int64_t>(pool.active(c)) +
                    scaler_->delta(signals),
                min_replicas_[c], pool.capacity(c));
            const bool up = target > pool.active(c);
            while (target != pool.active(c) &&
                   (up ? pool.scaleUp(c, now) : pool.scaleDown(c, now))) {
                ++(up ? scale_ups_ : scale_downs_);
                timelines_[c].push_back({now, pool.active(c)});
            }
        }
        window_dispatched_ = 0;
        window_missed_ = 0;
        while (next_tick_ <= now)
            next_tick_ = satAddCycles(next_tick_, interval_);
    }

    /**
     * A tight-deadline head about to burn while every replica grinds:
     * checkpoint-displace the bulk batch with the most remaining work,
     * re-queue its members and free its replica after the checkpoint
     * overhead, if that saves the head's deadline (priced by
     * @p oracle). Returns the requests displaced.
     */
    std::size_t preempt(Cycle now, bool drain, SchedulerPolicy &policy,
                        const CostOracle &oracle, InstancePool &pool,
                        std::vector<BatchRecord> &batches)
    {
        const SchedulerPolicy::HeadPeek peek = policy.peekHead(now, drain);
        if (!peek.valid || peek.deadline == kNeverCycle)
            return 0;
        Cycle earliest = kNeverCycle;
        RunningBatch *victim = nullptr;
        for (std::uint32_t i = 0; i < pool.size(); ++i) {
            if (pool.in(i, kPending))
                earliest = std::min(earliest, pool.readyAt(i));
            if (pool.in(i, kBusy) && !pool.running(i).members.empty() &&
                pool.running(i).minDeadline == kNeverCycle &&
                (victim == nullptr ||
                 pool.readyAt(i) > pool.readyAt(victim->instance)))
                victim = &pool.running(i);
        }
        const Cycle unit = oracle(peek.scenario, 1);
        if (earliest == kNeverCycle ||
            satAddCycles(earliest, unit) <= peek.deadline)
            return 0; // a replica frees in time anyway
        if (victim == nullptr)
            return 0; // nothing bulk to displace
        const Cycle executed = now - victim->dispatch;
        const Cycle overhead = std::max<Cycle>(
            1, static_cast<Cycle>(std::llround(
                   overhead_fraction_ *
                   static_cast<double>(victim->service))));
        if (satAddCycles(satAddCycles(now, overhead), unit) > peek.deadline)
            return 0; // too late for the checkpoint to help

        const std::size_t displaced = victim->members.size();
        BatchRecord &batch = batches[victim->record];
        batch.preempted = true;
        batch.completion = now + overhead;
        batch.joules = victim->joules *
                       (static_cast<double>(executed + overhead) /
                        static_cast<double>(victim->service));
        // Its watts stay charged through the checkpoint.
        pool.cutShort(victim->instance, now + overhead, displaced);
        for (const ServeRequest &member : victim->members)
            policy.admit(member);
        victim->members.clear();
        ++preemptions_;
        preempted_cycles_ += executed;
        return displaced;
    }

    void report(ServeStats &stats, Cycle makespan, double clock_hz)
    {
        stats.peakClusterWatts = peak_watts_;
        if (makespan > 0)
            stats.meanClusterWatts = stats.totalJoules * clock_hz /
                                     static_cast<double>(makespan);
        stats.preemptions = preemptions_;
        stats.preemptedCycles = preempted_cycles_;
        stats.scaleUpEvents = scale_ups_;
        stats.scaleDownEvents = scale_downs_;
        stats.replicaTimelines = std::move(timelines_);
    }

  private:
    double cap_watts_;
    bool preemption_;
    double overhead_fraction_;
    Cycle interval_, next_tick_;
    std::unique_ptr<ScalingPolicy> scaler_;
    std::vector<std::uint32_t> min_replicas_;
    std::vector<std::vector<ServeStats::ReplicaSample>> timelines_;
    double current_watts_ = 0.0, peak_watts_ = 0.0;
    std::uint64_t window_dispatched_ = 0, window_missed_ = 0;
    std::uint64_t scale_ups_ = 0, scale_downs_ = 0, preemptions_ = 0;
    Cycle preempted_cycles_ = 0;
};

/**
 * Picks the class a formed batch runs on: free classes at wait 0
 * and, under lookahead, busy ones at their horizon, ranked on the
 * objective; affinity may keep a scenario on its last class. The cap
 * filters wait-0 candidates only, since holding for a busy class
 * defers the draw to a completion that frees budget anyway.
 */
class Router
{
  public:
    /** Blocked: the cap refused every free class. Held: lookahead or
     *  affinity chose a busy class that frees soon. */
    enum class Placement : std::uint8_t {
        Dispatched,
        Blocked,
        Held,
    };

    struct Route
    {
        Placement placement = Placement::Blocked;
        std::size_t cls = 0;
        Cycle cost = 0;
    };

    Router(const ServeConfig &config, const ServeResult &priced)
        : curves_(priced.cyclesByBatchByClass),
          energy_(priced.joulesByBatchByClass), clock_hz_(priced.clockHz),
          objective_(api::Registry::global().makeObjective(
              config.routing.objective)),
          raw_cycles_(objective_->scoresServiceCycles()),
          lookahead_(config.routing.lookahead),
          margin_(config.routing.affinityMargin),
          max_batch_(config.batching.maxBatch),
          last_class_(margin_ > 0.0 ? config.scenarios.size() : 0,
                      curves_.size()),
          cands_(curves_.size())
    {
        // Free-class scores and the policy's best case depend only on
        // (class, scenario, size), so they price once. "cycles" ranks
        // on the raw integer curves and needs no score table.
        const std::size_t num_scenarios = config.scenarios.size();
        scores_.assign(raw_cycles_ ? 0 : curves_.size(),
                       std::vector<std::vector<double>>(num_scenarios));
        best_case_.resize(num_scenarios);
        for (std::uint32_t s = 0; s < num_scenarios; ++s)
            for (std::size_t b = 1; b <= max_batch_; ++b) {
                for (std::size_t c = 0; c < scores_.size(); ++c)
                    scores_[c][s].push_back(objective_->score(
                        cost(c, s, b), joules(c, s, b), b, clock_hz_));
                best_case_[s].push_back(bestCaseScan(s, b));
            }
    }

    Cycle cost(std::size_t c, std::uint32_t s, std::size_t batch) const
    { return curveAt(curves_[c][s], batch); }
    double joules(std::size_t c, std::uint32_t s, std::size_t batch) const
    { return energyCurveAt(energy_[c][s], batch); }
    /** A batch's draw on class @p c: its joules over its time. */
    double batchWatts(std::size_t c, std::uint32_t s,
                      std::size_t batch) const
    {
        return joules(c, s, batch) * clock_hz_ /
               static_cast<double>(cost(c, s, batch));
    }

    /** The policy's cost oracle: the cycles on the class the
     *  objective picks with every instance free, so deadline-aware
     *  sizing budgets against where the batch will land. */
    Cycle bestCase(std::uint32_t s, std::size_t batch) const
    {
        if (batch >= 1 && batch <= best_case_[s].size())
            return best_case_[s][batch - 1];
        return bestCaseScan(s, batch);
    }

    Route route(std::uint32_t scenario, std::size_t batch, Cycle now,
                InstancePool &pool, const ControlLoop &control)
    {
        const std::size_t none = cands_.size();
        bool cap_skipped = false;
        for (std::size_t c = 0; c < none; ++c)
            cap_skipped |= !consider(c, scenario, batch, now, pool, control);
        std::size_t best = none;
        for (std::size_t c = 0; c < none; ++c)
            if (cands_[c].eligible &&
                (best == none || beats(cands_[c], cands_[best])))
                best = c;

        // Affinity: stay on the scenario's last class unless the
        // winner beats it by more than the relative margin.
        const std::size_t last =
            last_class_.empty() ? none : last_class_[scenario];
        bool migrated = false, retained = false;
        if (best != none && last < none && last != best &&
            cands_[last].eligible) {
            migrated = cands_[best].score <
                       cands_[last].score * (1.0 - margin_);
            retained = !migrated;
            if (retained)
                best = last;
        }
        if (best == none && cap_skipped && control.drawsNothing()) {
            // Progress guarantee: an idle cluster places the batch on
            // its least-thirsty free class even past the cap, or a cap
            // below one batch's draw would live-lock.
            for (std::size_t c = 0; c < none; ++c)
                if (pool.idleTop(c) != nullptr &&
                    (best == none || batchWatts(c, scenario, batch) <
                                         batchWatts(best, scenario, batch)))
                    best = c;
            cands_[best].wait = 0;
            cands_[best].cost = cost(best, scenario, batch);
        }
        if (best == none)
            return {};
        if (cands_[best].wait > 0)
            return {Placement::Held};
        if (!last_class_.empty()) {
            affinity_hits_ += retained;
            affinity_migrations_ += migrated;
            last_class_[scenario] = best;
        }
        return {Placement::Dispatched, best, cands_[best].cost};
    }

    void report(ServeStats &stats) const
    {
        stats.affinityHits = affinity_hits_;
        stats.affinityMigrations = affinity_migrations_;
    }

  private:
    struct Candidate
    {
        bool eligible = false;
        Cycle wait = 0;
        Cycle cost = 0;
        /** Integer completion horizon (wait + cost): what the
         *  raw-cycles path ranks on, and its score. */
        Cycle completionKey = 0;
        double score = 0.0;
        InstanceKey rep{};
    };

    /** Fill class @p c's candidate; false when the cap turned a free
     *  class away. */
    bool consider(std::size_t c, std::uint32_t s, std::size_t batch,
                  Cycle now, InstancePool &pool, const ControlLoop &control)
    {
        Candidate &cand = cands_[c];
        cand.eligible = false;
        const Cycle cost = this->cost(c, s, batch);
        if (const InstanceKey *idle = pool.idleTop(c)) {
            if (control.capped() &&
                control.overCap(batchWatts(c, s, batch)))
                return false;
            const std::size_t b = std::min(batch, max_batch_);
            cand = {true, 0, cost, cost,
                    raw_cycles_ ? static_cast<double>(cost)
                                : scores_[c][s][b - 1],
                    *idle};
            return true;
        }
        const InstanceKey *horizon =
            lookahead_ ? pool.horizonTop(c) : nullptr;
        if (horizon == nullptr)
            return true;
        // Due completions were released, so the horizon is future.
        const Cycle wait = horizon->first - now;
        const Cycle key = satAddCycles(wait, cost);
        const double score =
            raw_cycles_ ? static_cast<double>(key)
                        : objective_->score(
                              RouteCandidate{c, wait, cost,
                                             joules(c, s, batch), batch},
                              clock_hz_);
        cand = {true, wait, cost, key, score, *horizon};
        return true;
    }

    /** The deterministic chain: score (the integer completion
     *  horizon under "cycles"), service cycles, wait, then the
     *  (last-freed, id) key. */
    bool beats(const Candidate &a, const Candidate &b) const
    {
        const int order = raw_cycles_
                              ? (a.completionKey < b.completionKey   ? -1
                                 : a.completionKey > b.completionKey ? 1
                                                                     : 0)
                              : compareScores(a.score, b.score);
        return order < 0 ||
               (order == 0 && std::tie(a.cost, a.wait, a.rep) <
                                  std::tie(b.cost, b.wait, b.rep));
    }

    Cycle bestCaseScan(std::uint32_t s, std::size_t batch) const
    {
        Cycle best_cycles = kNeverCycle;
        double best_score = 0.0;
        for (std::size_t c = 0; c < curves_.size(); ++c) {
            const Cycle cyc = cost(c, s, batch);
            if (raw_cycles_) {
                best_cycles = std::min(best_cycles, cyc);
                continue;
            }
            const double score = objective_->score(
                cyc, joules(c, s, batch), batch, clock_hz_);
            const int order = best_cycles == kNeverCycle
                                  ? -1
                                  : compareScores(score, best_score);
            if (order < 0 || (order == 0 && cyc < best_cycles)) {
                best_cycles = cyc;
                best_score = score;
            }
        }
        return best_cycles;
    }

    const CostCurves &curves_;
    const EnergyCurves &energy_;
    double clock_hz_;
    std::unique_ptr<RouteObjective> objective_;
    bool raw_cycles_, lookahead_;
    double margin_;
    std::size_t max_batch_;
    std::vector<std::vector<std::vector<double>>> scores_;
    std::vector<std::vector<Cycle>> best_case_;
    /** Per scenario (none yet = num_classes); empty w/o affinity. */
    std::vector<std::size_t> last_class_;
    std::vector<Candidate> cands_;
    std::uint64_t affinity_hits_ = 0, affinity_migrations_ = 0;
};

/** The request stream, generated one look-ahead arrival at a time:
 *  generation never reads service state, so this reproduces the
 *  up-front stream while holding one request instead of all. */
class Arrivals
{
  public:
    explicit Arrivals(const ServeConfig &config)
        : generator_(config), left_(config.numRequests)
    {
        advance();
    }

    bool exhausted() const { return !head_; }
    Cycle next() const { return head_ ? head_->arrival : kNeverCycle; }

    void admit(Cycle now, SchedulerPolicy &policy)
    {
        for (; head_ && head_->arrival <= now; advance())
            policy.admit(*head_);
    }

  private:
    void advance()
    {
        head_.reset();
        if (left_ > 0) {
            --left_;
            head_ = generator_.next();
        }
    }

    RequestGenerator generator_;
    std::uint64_t left_;
    std::optional<ServeRequest> head_;
};

/** The stats path: batches go to the streaming sink, or into
 *  BatchRecords and their members' RequestRecords (indexed by id). */
class Recorder
{
  public:
    Recorder(const ServeConfig &config,
             const std::vector<ClusterSpec::InstanceClass> &classes,
             ServeResult &result)
        : result_(result), tenants_(resolvedTenants(config))
    {
        for (const ClusterSpec::InstanceClass &cls : classes)
            class_labels_.push_back(cls.label());
        if (config.stats.streaming)
            sink_.emplace(tenants_.size(), classes.size(),
                          config.stats.reservoirCapacity, config.seed,
                          config.stats.flushEveryRequests, &std::cerr);
        else
            result_.requests.resize(config.numRequests);
    }

    /** Returns the batch's BatchRecord index. */
    std::uint64_t record(std::size_t cls, const RunningBatch &run,
                         const std::vector<ServeRequest> &members)
    {
        const Cycle completion = run.dispatch + run.service;
        if (sink_) {
            sink_->onBatch(run.dispatch, completion, run.joules,
                           static_cast<std::uint32_t>(cls), members);
            return 0;
        }
        std::vector<RequestRecord> &requests = result_.requests;
        BatchRecord batch{.id = result_.batches.size(),
                          .scenario = members.front().scenario,
                          .instance = run.instance,
                          .dispatch = run.dispatch,
                          .completion = completion,
                          .requestIds = {},
                          .joules = run.joules};
        for (const ServeRequest &member : members) {
            if (member.id >= requests.size())
                throw std::invalid_argument(
                    "serve: request id " + std::to_string(member.id) +
                    " is out of range for a " +
                    std::to_string(requests.size()) +
                    "-request stream (ids must be dense and 0-based)");
            requests[member.id] = {.id = member.id,
                                   .tenant = member.tenant,
                                   .scenario = member.scenario,
                                   .arrival = member.arrival,
                                   .deadline = member.deadline,
                                   .dispatch = run.dispatch,
                                   .completion = completion,
                                   .instance = run.instance,
                                   .batch = batch.id};
            batch.requestIds.push_back(member.id);
        }
        result_.batches.push_back(std::move(batch));
        return result_.batches.size() - 1;
    }

    /** Utilization and the aggregate stats over @p makespan. */
    void finish(Cycle makespan)
    {
        ServeResult &r = result_;
        r.makespan = makespan;
        for (InstanceRecord &instance : r.instances)
            instance.utilization =
                makespan > 0 ? static_cast<double>(instance.busyCycles) /
                                   static_cast<double>(makespan)
                             : 0.0;
        if (sink_)
            r.stats = sink_->finish(r.instances, makespan, r.clockHz,
                                    tenants_, class_labels_);
        else
            r.stats = computeServeStats(r.requests, r.batches, r.instances,
                                        makespan, r.clockHz, tenants_,
                                        class_labels_);
    }

  private:
    ServeResult &result_;
    std::vector<TenantMix> tenants_;
    std::vector<std::string> class_labels_;
    std::optional<StreamingStatsSink> sink_;
};

} // namespace

ServeResult
Scheduler::simulate(const std::vector<ClusterSpec::InstanceClass> &classes,
                    ServeResult result) const
{
    Recorder recorder(config_, classes, result);
    Router router(config_, result);
    const CostOracle oracle = std::bind_front(&Router::bestCase, &router);
    const std::unique_ptr<SchedulerPolicy> policy =
        api::Registry::global().makePolicy(config_.policy, config_);
    policy->bindCostOracle(oracle);
    ControlLoop control(config_, classes);
    InstancePool pool(config_, classes, result.instances);
    Arrivals arrivals(config_);
    // Batches the cap refused, head-of-line: nothing younger passes.
    std::deque<std::vector<ServeRequest>> deferred;
    std::uint64_t holds = 0, power_deferred = 0, served = 0;
    Cycle now = 0;
    using Placement = Router::Placement;

    auto dispatch = [&](const std::vector<ServeRequest> &members) {
        const std::uint32_t s = members.front().scenario;
        const std::size_t size = members.size();
        const Router::Route route = router.route(s, size, now, pool, control);
        if (route.placement != Placement::Dispatched)
            return route.placement;
        policy->onDispatch(members, route.cost);
        RunningBatch &run = pool.occupy(route.cls, now, route.cost, size);
        run.joules = router.joules(route.cls, s, size);
        run.record = recorder.record(route.cls, run, members);
        control.charge(run, members, router.batchWatts(route.cls, s, size));
        served += size;
        return route.placement;
    };

    while (served < config_.numRequests) {
        pool.release(now, control);
        arrivals.admit(now, *policy);
        const bool drain = arrivals.exhausted();
        control.tick(now, policy->pending(), pool);

        // Dispatch while an instance is free: the policy picks the
        // batch, the router its class. A cap-deferred batch retries
        // first, at every event until it fits. A lookahead-held batch
        // re-enters the policy's queues instead, so co-batchable
        // arrivals can join while it waits for the class it chose.
        while (pool.idleTotal() > 0) {
            if (!deferred.empty()) {
                if (dispatch(deferred.front()) != Placement::Dispatched)
                    break;
                deferred.pop_front();
                continue;
            }
            if (!policy->ready(now, drain))
                break;
            std::vector<ServeRequest> members = policy->pop(now, drain);
            const Placement placed = dispatch(members);
            if (placed == Placement::Dispatched)
                continue;
            if (placed == Placement::Held) {
                ++holds;
                for (const ServeRequest &member : members)
                    policy->admit(member);
            } else {
                deferred.push_back(std::move(members));
                ++power_deferred;
            }
            break; // head-of-line: nothing else dispatches this event
        }
        if (pool.idleTotal() == 0 && deferred.empty() && control.preempts())
            served -= control.preempt(now, drain, *policy, oracle, pool,
                                      result.batches);
        if (served == config_.numRequests)
            break;

        // Advance to the next event: an arrival, a control tick, or,
        // while work waits, a completion (or warm-up) or a future
        // queue-head timeout (a past one already made its queue ready,
        // so a busy instance is the blocker).
        Cycle next = std::min(arrivals.next(), control.nextTick());
        if (!policy->empty() || !deferred.empty()) {
            const Cycle timeout = policy->nextTimeout();
            if (!drain && timeout > now)
                next = std::min(next, timeout);
            next = std::min(next, pool.nextCompletion());
        }
        if (next == kNeverCycle || next <= now)
            throw std::logic_error("serve: scheduler cannot advance");
        now = next;
    }

    recorder.finish(pool.makespan());
    ServeStats &stats = result.stats;
    stats.deadlineCapsAvoided = policy->deadlineCapsAvoided();
    stats.lookaheadHolds = holds;
    stats.powerDeferredBatches = power_deferred;
    router.report(stats);
    control.report(stats, result.makespan, result.clockHz);
    return result;
}

ServeResult
runServe(const ServeConfig &config)
{
    return Scheduler(config).run();
}

} // namespace hygcn::serve
