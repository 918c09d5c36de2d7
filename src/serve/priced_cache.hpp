/**
 * @file
 * Process-wide cache of priced serving scenarios. Pricing a scenario
 * means one full deterministic Platform run (potentially seconds for
 * the large datasets), and a design-space sweep over many serve
 * configs re-prices the same (platform, config, scenario) triples
 * over and over; this cache — modeled on api::DatasetCache — prices
 * each distinct triple once and shares the result across every
 * Scheduler in the process. Two entry kinds share one store: *unit*
 * entries (one Platform run, keyed by the full spec JSON — including
 * RunSpec::batchCopies, which is how the "measured" model's per-
 * batch-size co-batch runs memoize) and *curve* entries (a
 * BatchCostModel's cycles(B) curve, keyed by spec + model + maxBatch,
 * assembled from shared unit entries). Thread-safe: the map mutex
 * only guards slot lookup, the run itself happens under a per-slot
 * once_flag so concurrent sweeps needing different scenarios never
 * serialize behind one slow pricing run.
 */

#ifndef HYGCN_SERVE_PRICED_CACHE_HPP
#define HYGCN_SERVE_PRICED_CACHE_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/platform.hpp"
#include "serve/workload.hpp"
#include "sim/types.hpp"

namespace hygcn::serve {

class BatchCostModel;

/** Mutex-guarded lazy (platform, config, scenario) -> cycles store. */
class PricedScenarioCache
{
  public:
    /**
     * One priced scenario at a clock: the cost curve cycles(B) for
     * B = 1..batching.maxBatch (a unit entry is the length-1 curve), plus the
     * unit run's batch-invariant weight-load phase the analytic
     * model amortizes.
     */
    struct Priced
    {
        /** Element b-1 = service cycles of a batch of b. */
        std::vector<Cycle> cyclesByBatch;

        /** Element b-1 = joules of a batch of b (the energy twin). */
        std::vector<double> joulesByBatch;

        double clockHz = 1e9;

        /** Combination weight-load cycles of the B=1 run. */
        Cycle weightLoadCycles = 0;

        /** Combination weight-load energy of the B=1 run, joules. */
        double weightLoadJoules = 0.0;

        /** B=1 service cycles (the curve anchor). */
        Cycle unitCycles() const
        { return cyclesByBatch.empty() ? 0 : cyclesByBatch.front(); }

        /** B=1 energy (the energy curve anchor), joules. */
        double unitJoules() const
        { return joulesByBatch.empty() ? 0.0 : joulesByBatch.front(); }

        /** The unit entry one Platform run's report prices to. */
        static Priced of(const SimReport &report);
    };

    /** One caller's share of the hit/miss counters: every lookup
     *  made on its behalf, nested unit lookups included. */
    struct Tally
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
    };

    /**
     * Price one unit run of @p spec on registry platform
     * @p platform, running it on first touch and serving every later
     * request from the cache. The key covers the full spec JSON —
     * dataset, model, seeds, scale, accelerator config, varied
     * parameters, co-batch copies — so two serve configs differing
     * in any pricing-relevant knob never collide. Safe to call
     * concurrently. Each lookup also counts into @p tally, when
     * given.
     */
    Priced price(const std::string &platform, const api::RunSpec &spec,
                 Tally *tally = nullptr);

    /**
     * Price the full cost curve of @p spec on @p platform under
     * @p config's cost model / maxBatch / marginal fraction. The
     * curve entry caches under spec + model (and the model's
     * priceKey) + maxBatch; the underlying unit runs are shared
     * unit entries, so sweeping cost models or batch sizes re-runs
     * no platform work that any earlier pricing already did. The
     * "measured" model's per-batch-size co-batch runs memoize as
     * unit entries with RunSpec::batchCopies = B. Every lookup this
     * call makes, nested unit lookups included, also counts into
     * @p tally, when given.
     */
    Priced priceCurve(const std::string &platform,
                      const api::RunSpec &spec,
                      const ServeConfig &config,
                      Tally *tally = nullptr);

    /** @p unit's curve entry under @p config's cost model, for
     *  priceCurve() and an explicit-platform Scheduler::run() alike;
     *  @p measure(copies) prices a co-batch unit entry. */
    static Priced
    assemble(const Priced &unit, const BatchCostModel &model,
             const ServeConfig &config,
             const std::function<Priced(std::uint32_t copies)> &measure);

    /** Distinct priced entries (unit + curve) currently held. */
    std::size_t size() const;

    /** Lookups served without pricing work. */
    std::uint64_t hits() const;

    /** Lookups that had to price (unit entries run the Platform
     *  once; curve entries assemble from unit entries). */
    std::uint64_t misses() const;

    /** Drop every priced entry and reset the hit/miss counters. */
    void clear();

    /** The process-wide cache instance. */
    static PricedScenarioCache &global();

  private:
    /**
     * One cache slot; priced at most once, outside the map mutex.
     * Held by shared_ptr so a clear() racing an in-flight price()
     * cannot destroy a slot another thread is still filling. A
     * pricing run that throws is cached as the error it threw —
     * registry-state-dependent failures are rejected before the
     * slot, so what remains is deterministic in the spec and
     * retrying could only fail the same way — and rethrown to every
     * caller (re-registering a platform under an existing name does
     * not refresh cached outcomes; clear() does); the
     * exception must not escape the call_once itself, which would
     * wedge the once_flag under some pthread_once interceptors
     * (tsan).
     */
    struct Entry
    {
        std::once_flag once;
        Priced value;
        std::exception_ptr error;
    };

    /** Find-or-create the slot for @p key, counting hit/miss here
     *  and into @p tally. */
    std::shared_ptr<Entry> slot(const std::string &key, Tally *tally);

    /** Reject failures that depend on mutable registry state. */
    static void rejectUnresolvable(const std::string &platform,
                                   const api::RunSpec &spec);

    mutable std::mutex mutex_;
    std::map<std::string, std::shared_ptr<Entry>> cache_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace hygcn::serve

#endif // HYGCN_SERVE_PRICED_CACHE_HPP
