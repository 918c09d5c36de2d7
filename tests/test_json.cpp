/**
 * Byte-exact pins of the JSON serializers' less-travelled branches:
 * string escapes of control characters, the per-process arrival
 * block, the control-plane block, and seed-aggregated sweep output.
 * The goldens cover the default paths; these cover the off-default
 * ones, so a rewrite of the writer cannot move a byte unnoticed.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/serve_sweep.hpp"
#include "serve/workload.hpp"
#include "sim/json.hpp"

using namespace hygcn;
using namespace hygcn::serve;

namespace {

/**
 * The serialized value of the first "@p key": member in @p json,
 * through its balanced closing bracket (or up to the next separator
 * for a scalar). Empty when the key is absent.
 */
std::string
member(const std::string &json, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t start = json.find(needle);
    if (start == std::string::npos)
        return {};
    const std::size_t begin = start + needle.size();
    int depth = 0;
    bool in_string = false;
    for (std::size_t i = begin; i < json.size(); ++i) {
        const char c = json[i];
        if (in_string) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"') {
            in_string = true;
        } else if (c == '{' || c == '[') {
            ++depth;
        } else if (c == '}' || c == ']' || c == ',') {
            if (depth == 0)
                return json.substr(begin, i - begin);
            if (c != ',' && --depth == 0)
                return json.substr(begin, i + 1 - begin);
        }
    }
    return json.substr(begin);
}

std::string
arrivalJson(const workload::ArrivalSpec &arrival)
{
    ServeConfig config;
    config.arrival = arrival;
    return member(toJson(config), "arrival");
}

std::string
controlJson(const ControlPlaneSpec &control)
{
    ServeConfig config;
    config.control = control;
    return member(toJson(config), "control");
}

} // namespace

TEST(JsonFormat, EscapesTabCarriageReturnAndControlCharacters)
{
    EXPECT_EQ(jsonEscape("a\tb\rc"), "a\\tb\\rc");
    EXPECT_EQ(jsonEscape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
    EXPECT_EQ(jsonEscape(std::string(1, '\0')), "\\u0000");
    // DEL and bytes of multi-byte UTF-8 sequences pass through.
    EXPECT_EQ(jsonEscape("\x7f\xc3\xa9"), "\x7f\xc3\xa9");
    EXPECT_EQ(jsonEscape(""), "");
}

TEST(JsonFormat, ScenarioFreeServeConfigSerializesExactly)
{
    ServeConfig config;
    config.numRequests = 1000;
    config.meanInterarrivalCycles = 1e5;
    config.seed = 7;
    config.instances = 2;
    config.batching.maxBatch = 4;
    config.batching.timeoutCycles = 0;
    config.batching.marginalFraction = 0.25;
    EXPECT_EQ(toJson(config),
              "{\"platform\":\"hygcn\",\"scenarios\":[],\"tenants\":[],"
              "\"num_requests\":1000,\"mean_interarrival_cycles\":100000,"
              "\"seed\":7,\"instances\":2,\"max_batch\":4,"
              "\"batch_timeout_cycles\":0,\"batch_marginal_fraction\":0.25}");
}

TEST(JsonFormat, PoissonArrivalEmitsNoBlock)
{
    workload::ArrivalSpec arrival;
    arrival.diurnalAmplitude = 0.1; // inert under poisson
    EXPECT_EQ(arrivalJson(arrival), "");
}

TEST(JsonFormat, DiurnalArrivalBlock)
{
    workload::ArrivalSpec arrival;
    arrival.process = "diurnal";
    arrival.diurnalAmplitude = 1.0 / 3.0;
    arrival.diurnalPeriodCycles = 2.5e6;
    EXPECT_EQ(arrivalJson(arrival),
              "{\"process\":\"diurnal\",\"amplitude\":0.333333333,"
              "\"period_cycles\":2500000}");
}

TEST(JsonFormat, FlashCrowdArrivalBlock)
{
    workload::ArrivalSpec arrival;
    arrival.process = "flash-crowd";
    arrival.burstAmplitude = 3.5;
    arrival.burstStartCycle = 10;
    arrival.burstDurationCycles = 20;
    arrival.burstRampCycles = 5;
    arrival.burstPeriodCycles = 100;
    EXPECT_EQ(arrivalJson(arrival),
              "{\"process\":\"flash-crowd\",\"amplitude\":3.5,"
              "\"start_cycle\":10,\"duration_cycles\":20,"
              "\"ramp_cycles\":5,\"period_cycles\":100}");
}

TEST(JsonFormat, MmppArrivalBlock)
{
    workload::ArrivalSpec arrival;
    arrival.process = "mmpp";
    arrival.mmppMeanDwellCycles = 64.5;
    EXPECT_EQ(arrivalJson(arrival),
              "{\"process\":\"mmpp\",\"rate_multipliers\":[],"
              "\"mean_dwell_cycles\":64.5}");
    arrival.mmppRateMultipliers = {0.5, 2.0, 1e-10};
    EXPECT_EQ(arrivalJson(arrival),
              "{\"process\":\"mmpp\",\"rate_multipliers\":[0.5,2,1e-10],"
              "\"mean_dwell_cycles\":64.5}");
}

TEST(JsonFormat, HeavyTailArrivalBlockEmitsTheSelectedShape)
{
    workload::ArrivalSpec arrival;
    arrival.process = "heavy-tail";
    arrival.paretoAlpha = 1.25;
    arrival.lognormalSigma = 0.75;
    EXPECT_EQ(arrivalJson(arrival),
              "{\"process\":\"heavy-tail\",\"dist\":\"pareto\","
              "\"alpha\":1.25}");
    arrival.heavyTailDist = "lognormal";
    EXPECT_EQ(arrivalJson(arrival),
              "{\"process\":\"heavy-tail\",\"dist\":\"lognormal\","
              "\"sigma\":0.75}");
}

TEST(JsonFormat, CorrelatedArrivalBlock)
{
    workload::ArrivalSpec arrival;
    arrival.process = "correlated";
    arrival.correlatedMeanDwellCycles = 128;
    EXPECT_EQ(arrivalJson(arrival),
              "{\"process\":\"correlated\",\"burst_multiplier\":4,"
              "\"mean_dwell_cycles\":128,\"correlation\":0.8}");
}

TEST(JsonFormat, TraceArrivalBlockEscapesThePathAndOmitsRecording)
{
    workload::ArrivalSpec arrival;
    arrival.process = "trace";
    arrival.traceFile = "runs/a \"b\"\\c.csv";
    arrival.recordPath = "out.csv";
    EXPECT_EQ(arrivalJson(arrival),
              "{\"process\":\"trace\","
              "\"trace_file\":\"runs/a \\\"b\\\"\\\\c.csv\"}");
}

TEST(JsonFormat, UnknownArrivalProcessEmitsItsNameOnly)
{
    workload::ArrivalSpec arrival;
    arrival.process = "custom";
    EXPECT_EQ(arrivalJson(arrival), "{\"process\":\"custom\"}");
}

TEST(JsonFormat, StaticControlPlaneEmitsNoBlock)
{
    ControlPlaneSpec control;
    control.intervalCycles = 500; // inert while nothing is engaged
    EXPECT_EQ(controlJson(control), "");
}

TEST(JsonFormat, ScalingControlBlockEmitsEveryScalingKnob)
{
    ControlPlaneSpec control;
    control.scalingPolicy = "scheduled";
    control.intervalCycles = 500;
    control.warmupCycles = 100;
    control.drainCycles = 50;
    control.schedule = {{1000, 2}, {2000, 1}};
    control.minInstances = 1;
    control.maxInstances = 3;
    EXPECT_EQ(controlJson(control),
              "{\"scaling_policy\":\"scheduled\",\"interval_cycles\":500,"
              "\"warmup_cycles\":100,\"drain_cycles\":50,"
              "\"queue_depth_high\":4,\"queue_depth_low\":0.5,"
              "\"slo_burn_high\":0.1,"
              "\"schedule\":[{\"at_cycle\":1000,\"replicas\":2},"
              "{\"at_cycle\":2000,\"replicas\":1}],"
              "\"min_instances\":1,\"max_instances\":3}");

    // Zero-valued knobs stay silent.
    control.scalingPolicy = "queue-depth";
    control.intervalCycles = 0;
    control.warmupCycles = 0;
    control.drainCycles = 0;
    control.schedule.clear();
    control.minInstances = 0;
    control.maxInstances = 0;
    EXPECT_EQ(controlJson(control),
              "{\"scaling_policy\":\"queue-depth\","
              "\"queue_depth_high\":4,\"queue_depth_low\":0.5,"
              "\"slo_burn_high\":0.1}");
}

TEST(JsonFormat, StaticControlBlockSkipsTheScalingKnobs)
{
    ControlPlaneSpec control;
    control.intervalCycles = 250;
    control.warmupCycles = 100; // scaling knobs: inert under "static"
    control.minInstances = 2;
    control.powerCapWatts = 12.5;
    control.preemption = true;
    EXPECT_EQ(controlJson(control),
              "{\"scaling_policy\":\"static\",\"interval_cycles\":250,"
              "\"power_cap_watts\":12.5,\"preemption\":true,"
              "\"preemption_overhead_fraction\":0.1}");
}

TEST(JsonFormat, ServeAggregatesSerializeEveryErrorBar)
{
    EXPECT_EQ(toJson(std::vector<api::ServeAggregate>{}), "[]");

    api::ServeAggregate first;
    first.config.policy = "edf";
    first.seeds = {1, 2, 3};
    first.p50LatencyCycles = {100.5, 1.5, 99, 102};
    first.p99LatencyCycles = {2e6, 1e5, 1.9e6, 2.1e6};
    first.meanLatencyCycles = {1.0 / 3.0, 0, 0.25, 0.5};
    first.throughputRps = {12345.678912345, 1, 12344, 12347};
    first.meanQueueWaitCycles = {7, 0.5, 6.5, 7.5};
    first.meanBatchSize = {2.5, 0.25, 2, 3};
    first.totalJoules = {1e-3, 1e-4, 9e-4, 1.1e-3};
    first.sloViolations = {4, 2, 2, 6};
    api::ServeAggregate second;
    second.seeds = {9};

    const std::string stats =
        "\"p50_latency_cycles\":{\"mean\":100.5,\"stddev\":1.5,"
        "\"min\":99,\"max\":102},"
        "\"p99_latency_cycles\":{\"mean\":2000000,\"stddev\":100000,"
        "\"min\":1900000,\"max\":2100000},"
        "\"mean_latency_cycles\":{\"mean\":0.333333333,\"stddev\":0,"
        "\"min\":0.25,\"max\":0.5},"
        "\"throughput_rps\":{\"mean\":12345.6789,\"stddev\":1,"
        "\"min\":12344,\"max\":12347},"
        "\"mean_queue_wait_cycles\":{\"mean\":7,\"stddev\":0.5,"
        "\"min\":6.5,\"max\":7.5},"
        "\"mean_batch_size\":{\"mean\":2.5,\"stddev\":0.25,\"min\":2,"
        "\"max\":3},"
        "\"total_joules\":{\"mean\":0.001,\"stddev\":0.0001,"
        "\"min\":0.0009,\"max\":0.0011},"
        "\"slo_violations\":{\"mean\":4,\"stddev\":2,\"min\":2,\"max\":6}";
    const std::string zeros =
        "{\"mean\":0,\"stddev\":0,\"min\":0,\"max\":0}";
    EXPECT_EQ(toJson(std::vector<api::ServeAggregate>{first, second}),
              "[{\"config\":" + toJson(first.config) +
                  ",\"seeds\":[1,2,3],\"replicates\":3," + stats +
                  "},{\"config\":" + toJson(second.config) +
                  ",\"seeds\":[9],\"replicates\":1,"
                  "\"p50_latency_cycles\":" + zeros +
                  ",\"p99_latency_cycles\":" + zeros +
                  ",\"mean_latency_cycles\":" + zeros +
                  ",\"throughput_rps\":" + zeros +
                  ",\"mean_queue_wait_cycles\":" + zeros +
                  ",\"mean_batch_size\":" + zeros +
                  ",\"total_joules\":" + zeros +
                  ",\"slo_violations\":" + zeros + "}]");
}
