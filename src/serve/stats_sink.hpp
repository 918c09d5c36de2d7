/**
 * @file
 * The one ServeStats accumulator: running sums plus deterministic
 * reservoir percentiles, fed one dispatched batch at a time, so
 * million-request runs never materialize a RequestRecord per
 * request. computeServeStats() replays materialized records through
 * the same sink, so the two modes share every formula and differ
 * only in accumulation order (dispatch order instead of request-id
 * order): a streamed run's stats match a materialized run's to
 * floating-point accumulation noise, and percentiles match exactly
 * while the sample count fits the reservoir. An optional periodic
 * flush prints one running-stats line every N served requests, in
 * the spirit of a flow meter's periodic stats dump, so multi-minute
 * runs show a pulse.
 */

#ifndef HYGCN_SERVE_STATS_SINK_HPP
#define HYGCN_SERVE_STATS_SINK_HPP

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "serve/serve_stats.hpp"
#include "serve/workload.hpp"
#include "sim/rng.hpp"

namespace hygcn::serve {

/**
 * Fixed-capacity uniform sample of a latency stream (Algorithm R on
 * sim/rng, so the kept sample is identical on every platform for a
 * given seed). Holds every sample until capacity, after which each
 * new sample replaces a uniformly-chosen slot with probability
 * capacity/seen — percentiles are exact below capacity and an
 * unbiased estimate beyond it.
 */
class LatencyReservoir
{
  public:
    LatencyReservoir(std::size_t capacity, std::uint64_t seed);

    void add(double sample);

    /** Samples offered so far (not the count retained). */
    std::uint64_t seen() const { return seen_; }

    /** True while every offered sample is still held, i.e. while
     *  percentile() is exact rather than estimated. */
    bool exact() const { return seen_ <= samples_.capacity(); }

    /** Sorted copy of the retained samples. */
    std::vector<double> sorted() const;

    /** percentileSorted() over the retained samples (0 when empty). */
    double percentile(double p) const;

  private:
    std::size_t capacity_;
    std::uint64_t seen_ = 0;
    std::vector<double> samples_;
    Rng rng_;
};

/**
 * Running ServeStats aggregates: addBatch() folds each batch's
 * energy (total and per class), addRequest() each served request
 * (mean/max latency, queue wait, per-tenant SLO and served-share
 * accounting) and latency reservoirs; onBatch() does both for one
 * dispatched batch; finish() assembles the ServeStats. Instance
 * records stay materialized in the scheduler — instances are few —
 * and feed the utilization and per-class rollups at finish().
 */
class StreamingStatsSink
{
  public:
    /**
     * @p num_tenants / @p num_classes size the per-tenant and
     * per-class accumulators; @p reservoir_capacity bounds each
     * latency reservoir; @p seed derives the reservoirs' replacement
     * streams; @p flush_every emits a running-stats line to
     * @p flush_to after every that-many served requests (0, or a
     * null stream, disables the pulse).
     */
    StreamingStatsSink(std::size_t num_tenants, std::size_t num_classes,
                       std::size_t reservoir_capacity,
                       std::uint64_t seed, std::uint64_t flush_every,
                       std::ostream *flush_to);

    /** Fold one dispatched batch (its members, timing, routed class,
     *  and priced energy) into the running aggregates: addBatch(),
     *  then addRequest() per member charged an even share of the
     *  batch's cycles and joules. */
    void onBatch(Cycle dispatch, Cycle completion, double joules,
                 std::uint32_t class_index,
                 const std::vector<ServeRequest> &members);

    /** Fold one batch's priced @p joules into the total and into
     *  class @p class_index (ignored when out of range). */
    void addBatch(double joules, std::uint32_t class_index);

    /**
     * Fold one served request: its end-to-end @p latency and
     * @p queue_wait, whether it @p missed_deadline, and its share of
     * its batch's service @p cycles and @p joules, charged to tenant
     * @p tenant (per-tenant sums skip an out-of-range tenant).
     */
    void addRequest(std::uint32_t tenant, Cycle latency, Cycle queue_wait,
                    bool missed_deadline, double cycles, double joules);

    /** Requests folded so far. */
    std::uint64_t requests() const { return requests_; }

    /**
     * Assemble the aggregate stats, mirroring computeServeStats()'s
     * signature from the sink's accumulators plus the scheduler's
     * instance records.
     */
    ServeStats finish(const std::vector<InstanceRecord> &instances,
                      Cycle makespan, double clock_hz,
                      const std::vector<TenantMix> &tenants,
                      const std::vector<std::string> &class_labels) const;

  private:
    struct TenantAccum
    {
        std::uint64_t requests = 0;
        double latencySum = 0.0;
        std::uint64_t sloViolations = 0;
        double cycles = 0.0;
        double joules = 0.0;
        LatencyReservoir latencies;

        TenantAccum(std::size_t capacity, std::uint64_t seed)
            : latencies(capacity, seed)
        {}
    };

    void flushLine(Cycle up_to);

    std::uint64_t requests_ = 0;
    std::uint64_t batches_ = 0;
    double waitSum_ = 0.0;
    double latencySum_ = 0.0;
    double maxLatency_ = 0.0;
    double totalJoules_ = 0.0;
    double totalCycles_ = 0.0;
    LatencyReservoir latencies_;
    std::vector<TenantAccum> tenants_;
    std::vector<double> classJoules_;

    std::uint64_t flushEvery_;
    std::uint64_t nextFlush_;
    std::ostream *flushTo_;
};

} // namespace hygcn::serve

#endif // HYGCN_SERVE_STATS_SINK_HPP
