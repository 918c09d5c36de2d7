#include "sim/json.hpp"

#include <cstdio>
#include <tuple>

#include "api/platform.hpp"
#include "api/serve_sweep.hpp"
#include "serve/scheduler.hpp"

// Off-default rule. Every member written through fieldIf() or under an
// `if` below was added after its document's format was first pinned,
// and is emitted only when it is off its default (or when the feature
// it describes is engaged). Default configs — every golden, every
// BENCH_* baseline, every priced-cache key — therefore keep their
// exact bytes. Each condition decides bytes; change one only on
// purpose.

namespace hygcn {

namespace {

void
appendEscaped(std::string &out, std::string_view text)
{
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
}

/** @p number formatted by @p format, in @p buf. */
std::string_view
printed(char (&buf)[32], const char *format, double number)
{
    const int n = std::snprintf(buf, sizeof(buf), format, number);
    return {buf, static_cast<std::size_t>(n)};
}

} // namespace

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 8);
    appendEscaped(out, text);
    return out;
}

JsonWriter &
JsonWriter::open(char bracket)
{
    literal({&bracket, 1});
    sibling_ = false;
    return *this;
}

JsonWriter &
JsonWriter::close(char bracket)
{
    out_ += bracket;
    sibling_ = true;
    return *this;
}

JsonWriter &
JsonWriter::literal(std::string_view text)
{
    if (sibling_)
        out_ += ',';
    out_ += text;
    sibling_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view text)
{
    literal("\"");
    appendEscaped(out_, text);
    out_ += '"';
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view name)
{
    value(name);
    out_ += ':';
    sibling_ = false;
    return *this;
}

JsonWriter &
JsonWriter::value(double number)
{
    char buf[32];
    return literal(printed(buf, "%.9g", number));
}

JsonWriter &
JsonWriter::exact(double number)
{
    char buf[32];
    return literal(printed(buf, "%.17g", number));
}

namespace {

// Nested accelerator-config tables: each member's key is its own name,
// and one list drives both the emission and the off-default test, so
// no field is written but not compared.
#define MEMBER(S, m) std::pair{#m, &S::m}
constexpr std::tuple kHbmFields{
    MEMBER(HbmConfig, channels), MEMBER(HbmConfig, banksPerChannel),
    MEMBER(HbmConfig, rowBytes), MEMBER(HbmConfig, tRP),
    MEMBER(HbmConfig, tRCD), MEMBER(HbmConfig, tCAS),
    MEMBER(HbmConfig, bytesPerCycle),
    MEMBER(HbmConfig, lowBitChannelInterleave)};

constexpr std::tuple kEnergyFields{
    MEMBER(EnergyTable, macOp), MEMBER(EnergyTable, simdOp),
    MEMBER(EnergyTable, activationOp), MEMBER(EnergyTable, controlOp),
    MEMBER(EnergyTable, edramSmallPerByte),
    MEMBER(EnergyTable, edramMidPerByte),
    MEMBER(EnergyTable, edramLargePerByte), MEMBER(EnergyTable, hbmPerBit),
    MEMBER(EnergyTable, ddr4PerBit), MEMBER(EnergyTable, cpuCachePerByte),
    MEMBER(EnergyTable, cpuOp), MEMBER(EnergyTable, gpuOp),
    MEMBER(EnergyTable, gpuSramPerByte)};
#undef MEMBER

/** Member @p name holding every field of @p s, when @p s differs
 *  from a default-constructed S in any of them. */
template <typename S, typename Fields>
void
writeIfOffDefault(JsonWriter &w, std::string_view name, const S &s,
                  const Fields &fields)
{
    const S defaults{};
    std::apply(
        [&](const auto &...f) {
            if (((s.*f.second == defaults.*f.second) && ...))
                return;
            w.key(name).beginObject();
            (w.field(f.first, s.*f.second), ...);
            w.endObject();
        },
        fields);
}

/** The full accelerator config, so runs differing only in a custom
 *  base config (not a vary() axis) stay distinguishable. */
void
writeHyGCNConfig(JsonWriter &w, const HyGCNConfig &c)
{
    w.beginObject()
        .field("simdCores", c.simdCores)
        .field("simdWidth", c.simdWidth)
        .field("aggMode", c.aggMode == AggMode::VertexDisperse
                              ? "disperse"
                              : "concentrated")
        .field("systolicModules", c.systolicModules)
        .field("moduleRows", c.moduleRows)
        .field("moduleCols", c.moduleCols)
        .field("inputBufBytes", c.inputBufBytes)
        .field("edgeBufBytes", c.edgeBufBytes)
        .field("weightBufBytes", c.weightBufBytes)
        .field("outputBufBytes", c.outputBufBytes)
        .field("aggBufBytes", c.aggBufBytes)
        .field("sparsityElimination", c.sparsityElimination)
        .field("interEnginePipeline", c.interEnginePipeline)
        .field("memoryCoordination", c.memoryCoordination)
        .field("pipelineMode", c.pipelineMode == PipelineMode::LatencyAware
                                   ? "latency"
                                   : "energy")
        .field("clockHz", c.clockHz);
    writeIfOffDefault(w, "hbm", c.hbm, kHbmFields);
    writeIfOffDefault(w, "energy", c.energy, kEnergyFields);
    w.endObject();
}

/** The selected arrival process's parameters only. recordPath never
 *  emits: recording is an I/O side effect, so a recorded run and its
 *  replay echo comparable configs. */
void
writeArrival(JsonWriter &w, const workload::ArrivalSpec &a)
{
    const bool lognormal = a.heavyTailDist == "lognormal";
    w.key("arrival").beginObject().field("process", a.process);
    if (a.process == "diurnal") {
        w.field("amplitude", a.diurnalAmplitude)
            .field("period_cycles", a.diurnalPeriodCycles);
    } else if (a.process == "flash-crowd") {
        w.field("amplitude", a.burstAmplitude)
            .field("start_cycle", a.burstStartCycle)
            .field("duration_cycles", a.burstDurationCycles)
            .field("ramp_cycles", a.burstRampCycles)
            .field("period_cycles", a.burstPeriodCycles);
    } else if (a.process == "mmpp") {
        w.field("rate_multipliers", a.mmppRateMultipliers)
            .field("mean_dwell_cycles", a.mmppMeanDwellCycles);
    } else if (a.process == "heavy-tail") {
        w.field("dist", a.heavyTailDist)
            .fieldIf(lognormal, "sigma", a.lognormalSigma)
            .fieldIf(!lognormal, "alpha", a.paretoAlpha);
    } else if (a.process == "correlated") {
        w.field("burst_multiplier", a.correlatedBurstMultiplier)
            .field("mean_dwell_cycles", a.correlatedMeanDwellCycles)
            .field("correlation", a.correlation);
    } else if (a.process == "trace") {
        w.field("trace_file", a.traceFile);
    }
    w.endObject();
}

/** The engaged halves of the control plane only. */
void
writeControl(JsonWriter &w, const serve::ControlPlaneSpec &c)
{
    w.key("control")
        .beginObject()
        .field("scaling_policy", c.scalingPolicy)
        .fieldIf(c.intervalCycles != 0, "interval_cycles", c.intervalCycles);
    if (c.scalingPolicy != "static") {
        w.fieldIf(c.warmupCycles != 0, "warmup_cycles", c.warmupCycles)
            .fieldIf(c.drainCycles != 0, "drain_cycles", c.drainCycles)
            .field("queue_depth_high", c.queueDepthHigh)
            .field("queue_depth_low", c.queueDepthLow)
            .field("slo_burn_high", c.sloBurnHigh);
        if (!c.schedule.empty())
            w.key("schedule").array(c.schedule, [&](const auto &entry) {
                w.beginObject()
                    .field("at_cycle", entry.atCycle)
                    .field("replicas", entry.replicas)
                    .endObject();
            });
        w.fieldIf(c.minInstances != 0, "min_instances", c.minInstances)
            .fieldIf(c.maxInstances != 0, "max_instances", c.maxInstances);
    }
    w.fieldIf(c.powerCapWatts > 0.0, "power_cap_watts", c.powerCapWatts)
        .fieldIf(c.preemption, "preemption", true)
        .fieldIf(c.preemption, "preemption_overhead_fraction",
                 c.preemptionOverheadFraction)
        .endObject();
}

void
writeStats(JsonWriter &w, const serve::ServeResult &result,
           bool emit_energy)
{
    const serve::ServeStats &stats = result.stats;
    const serve::ServeConfig &config = result.config;
    w.key("stats")
        .beginObject()
        .field("requests", stats.requests)
        .field("batches", stats.batches)
        .field("mean_batch_size", stats.meanBatchSize)
        .field("makespan_cycles", stats.makespanCycles)
        .field("throughput_rps", stats.throughputRps)
        .key("latency_cycles")
        .beginObject()
        .field("mean", stats.meanLatencyCycles)
        .field("p50", stats.p50LatencyCycles)
        .field("p95", stats.p95LatencyCycles)
        .field("p99", stats.p99LatencyCycles)
        .field("max", stats.maxLatencyCycles)
        .endObject()
        .field("mean_queue_wait_cycles", stats.meanQueueWaitCycles)
        .field("instance_utilization", stats.instanceUtilization)
        .fieldIf(emit_energy, "total_joules", stats.totalJoules)
        .fieldIf(emit_energy, "mean_joules_per_request",
                 stats.meanJoulesPerRequest)
        // Only batch-sizing policies (built-in: "edf") or custom ones
        // that report caps grow the counter.
        .fieldIf(config.batching.deadlineAware &&
                     (config.policy == "edf" ||
                      stats.deadlineCapsAvoided != 0),
                 "deadline_caps_avoided", stats.deadlineCapsAvoided);
    if (config.routing.enabled())
        w.field("lookahead_holds", stats.lookaheadHolds)
            .field("affinity_hits", stats.affinityHits)
            .field("affinity_migrations", stats.affinityMigrations)
            .field("priced_cache_hits", stats.pricedCacheHits)
            .field("priced_cache_misses", stats.pricedCacheMisses);
    if (config.control.powerCapWatts > 0.0)
        w.field("power_deferred_batches", stats.powerDeferredBatches)
            .field("peak_cluster_watts", stats.peakClusterWatts)
            .field("mean_cluster_watts", stats.meanClusterWatts);
    if (config.control.preemption)
        w.field("preemptions", stats.preemptions)
            .field("preempted_cycles", stats.preemptedCycles);
    if (config.control.scalingPolicy != "static") {
        w.field("scale_up_events", stats.scaleUpEvents)
            .field("scale_down_events", stats.scaleDownEvents)
            .key("replica_timelines");
        w.array(stats.replicaTimelines, [&](const auto &timeline) {
            w.array(timeline, [&](const auto &sample) {
                w.beginObject()
                    .field("cycle", sample.cycle)
                    .field("replicas", sample.replicas)
                    .endObject();
            });
        });
    }
    if (!config.tenants.empty())
        w.key("tenants").array(stats.tenantStats, [&](const auto &t) {
            w.beginObject()
                .field("name", t.name)
                .field("requests", t.requests)
                .field("mean_latency_cycles", t.meanLatencyCycles)
                .field("p99_latency_cycles", t.p99LatencyCycles)
                .field("slo_violations", t.sloViolations)
                .field("served_share", t.servedShare)
                .fieldIf(emit_energy, "joules", t.joules)
                .endObject();
        });
    if (!config.cluster.empty())
        w.key("classes").array(stats.classStats, [&](const auto &c) {
            w.beginObject()
                .field("label", c.label)
                .field("instances", c.instances)
                .field("batches", c.batches)
                .field("requests", c.requests)
                .field("busy_cycles", c.busyCycles)
                .field("utilization", c.utilization)
                .fieldIf(emit_energy, "joules", c.joules)
                .endObject();
        });
    w.endObject();
}

} // namespace

std::string
toJson(const SimReport &report)
{
    JsonWriter w(1024);
    w.beginObject()
        .field("platform", report.platform)
        .field("cycles", report.cycles)
        .fieldIf(report.combWeightLoadCycles != 0,
                 "comb_weight_load_cycles", report.combWeightLoadCycles)
        .fieldIf(report.combWeightLoadEnergyPj != 0.0,
                 "comb_weight_load_energy_pj",
                 report.combWeightLoadEnergyPj)
        .field("seconds", report.seconds())
        .field("joules", report.joules())
        .field("dram_bytes", report.dramBytes())
        .field("energy_pj", report.energy.components())
        .field("counters", report.stats.counters())
        .field("gauges", report.stats.gauges())
        .endObject();
    return w.take();
}

std::string
toJson(const api::RunSpec &spec)
{
    // Dedupe by key (last application wins) so re-varied parameters
    // never produce duplicate JSON keys.
    std::map<std::string, double> varied;
    for (const auto &[key, v] : spec.varied)
        varied[key] = v;

    JsonWriter w(768);
    w.beginObject()
        .field("platform", spec.platform)
        .field("dataset", datasetAbbrev(spec.dataset))
        .field("model", modelAbbrev(spec.model))
        .fieldIf(!spec.datasetName.empty(), "dataset_name",
                 spec.datasetName)
        .fieldIf(!spec.modelName.empty(), "model_name", spec.modelName)
        .field("num_layers", spec.numLayers)
        .field("seed", spec.seed)
        .field("dataset_seed", spec.datasetSeed)
        .field("dataset_scale", spec.datasetScale)
        .field("functional", spec.functional)
        .field("with_readout", spec.withReadout)
        .field("sample_factor", spec.sampleFactor)
        // != 1, not > 1: an invalid 0 must not alias the default.
        .fieldIf(spec.batchCopies != 1, "batch_copies", spec.batchCopies)
        .fieldIf(spec.threads != 0, "threads", spec.threads);
    writeHyGCNConfig(w.key("hygcn_config"), spec.hygcn);
    w.key("varied").beginObject();
    for (const auto &[key, v] : varied)
        w.key(key).exact(v);
    return w.endObject().endObject().take();
}

std::string
toJson(const api::RunResult &result)
{
    JsonWriter w(2048);
    w.beginObject()
        .key("spec")
        .raw(toJson(result.spec))
        .field("avg_vertex_latency", result.avgVertexLatency)
        .key("report")
        .raw(toJson(result.report))
        .endObject();
    return w.take();
}

std::string
toJson(const std::vector<api::RunResult> &sweep)
{
    JsonWriter w(2048 * sweep.size() + 2);
    w.array(sweep, [&](const api::RunResult &r) { w.raw(toJson(r)); });
    return w.take();
}

std::string
toJson(const serve::ServeConfig &config)
{
    const serve::BatchingSpec &batching = config.batching;
    const serve::StatsSpec &stats = config.stats;
    JsonWriter w(1024);
    w.beginObject()
        .field("platform", config.platform)
        .fieldIf(config.policy != "fifo", "policy", config.policy);
    if (!config.cluster.empty())
        w.key("cluster").array(config.cluster.classes, [&](const auto &c) {
            w.beginObject()
                .field("platform", c.platform)
                .field("label", c.label())
                .field("count", c.count)
                .fieldIf(c.minCount != 0, "min_count", c.minCount)
                .fieldIf(c.maxCount != 0, "max_count", c.maxCount);
            if (c.hygcn)
                writeHyGCNConfig(w.key("hygcn_config"), *c.hygcn);
            w.endObject();
        });
    w.key("scenarios").array(config.scenarios, [&](const auto &scenario) {
        w.beginObject()
            .field("name", scenario.name)
            .key("spec")
            .raw(toJson(scenario.spec))
            .endObject();
    });
    w.key("tenants").array(config.tenants, [&](const auto &t) {
        w.beginObject()
            .field("name", t.name)
            .field("weight", t.weight)
            .field("scenario_weights", t.scenarioWeights)
            .fieldIf(t.sloLatencyCycles != 0, "slo_cycles",
                     t.sloLatencyCycles)
            .fieldIf(t.shareQuota != 0.0, "share_quota", t.shareQuota)
            .endObject();
    });
    w.field("num_requests", config.numRequests)
        .field("mean_interarrival_cycles", config.meanInterarrivalCycles)
        .field("seed", config.seed)
        .field("instances", config.instances)
        .field("max_batch", batching.maxBatch)
        .field("batch_timeout_cycles", batching.timeoutCycles)
        .field("batch_marginal_fraction", batching.marginalFraction)
        .fieldIf(batching.costModel != "marginal", "cost_model",
                 batching.costModel)
        .fieldIf(config.routing.objective != "cycles", "route_objective",
                 config.routing.objective)
        .fieldIf(config.routing.lookahead, "routing_lookahead", true)
        .fieldIf(config.routing.affinityMargin > 0.0, "affinity_margin",
                 config.routing.affinityMargin)
        // Default-on: the legacy opt-out is what needs saying.
        .fieldIf(!batching.deadlineAware, "deadline_aware_batching", false)
        .fieldIf(stats.streaming, "streaming_stats", true)
        .fieldIf(stats.streaming && stats.reservoirCapacity != 65536,
                 "stats_reservoir_capacity", stats.reservoirCapacity)
        .fieldIf(stats.streaming && stats.flushEveryRequests != 0,
                 "stats_flush_every_requests", stats.flushEveryRequests);
    if (config.arrival.process != "poisson")
        writeArrival(w, config.arrival);
    if (config.control.enabled())
        writeControl(w, config.control);
    return w.endObject().take();
}

std::string
toJson(const serve::ServeResult &result, bool per_request)
{
    const serve::ServeConfig &config = result.config;
    // Under the default "cycles" objective no dispatch consulted the
    // energy fields.
    const bool emit_energy = config.routing.objective != "cycles";
    JsonWriter w(per_request ? 4096 + 160 * result.requests.size() : 4096);
    w.beginObject().key("config").raw(toJson(config));
    writeStats(w, result, emit_energy);
    w.field("scenario_unit_cycles", result.scenarioUnitCycles)
        .fieldIf(!config.cluster.empty(), "unit_cycles_by_class",
                 result.unitCyclesByClass)
        // Under "marginal" the curves follow from the unit cycles.
        .fieldIf(config.batching.costModel != "marginal",
                 "unit_cycles_by_batch", result.cyclesByBatchByClass)
        .fieldIf(emit_energy, "joules_by_batch",
                 result.joulesByBatchByClass)
        .field("clock_hz", result.clockHz)
        .field("makespan_cycles", result.makespan);
    if (per_request) {
        w.key("requests").array(result.requests, [&](const auto &r) {
            w.beginObject()
                .field("id", r.id)
                .field("tenant", r.tenant)
                .field("scenario", r.scenario)
                .field("arrival", r.arrival)
                .fieldIf(r.deadline != serve::kNeverCycle, "deadline",
                         r.deadline)
                .field("dispatch", r.dispatch)
                .field("completion", r.completion)
                .field("instance", r.instance)
                .field("batch", r.batch)
                .endObject();
        });
        w.key("batches").array(result.batches, [&](const auto &b) {
            w.beginObject()
                .field("id", b.id)
                .field("scenario", b.scenario)
                .field("instance", b.instance)
                .field("dispatch", b.dispatch)
                .field("completion", b.completion)
                .fieldIf(emit_energy, "joules", b.joules)
                .fieldIf(b.preempted, "preempted", true)
                .field("request_ids", b.requestIds)
                .endObject();
        });
    }
    return w.endObject().take();
}

std::string
toJson(const std::vector<api::ServeAggregate> &aggregates)
{
    JsonWriter w(2048 * aggregates.size() + 2);
    w.array(aggregates, [&](const api::ServeAggregate &agg) {
        const std::pair<const char *, api::AggregateStat> stats[] = {
            {"p50_latency_cycles", agg.p50LatencyCycles},
            {"p99_latency_cycles", agg.p99LatencyCycles},
            {"mean_latency_cycles", agg.meanLatencyCycles},
            {"throughput_rps", agg.throughputRps},
            {"mean_queue_wait_cycles", agg.meanQueueWaitCycles},
            {"mean_batch_size", agg.meanBatchSize},
            {"total_joules", agg.totalJoules},
            {"slo_violations", agg.sloViolations},
        };
        w.beginObject()
            .key("config")
            .raw(toJson(agg.config))
            .field("seeds", agg.seeds)
            .field("replicates", agg.seeds.size());
        for (const auto &[name, stat] : stats)
            w.key(name)
                .beginObject()
                .field("mean", stat.mean)
                .field("stddev", stat.stddev)
                .field("min", stat.min)
                .field("max", stat.max)
                .endObject();
        w.endObject();
    });
    return w.take();
}

} // namespace hygcn
