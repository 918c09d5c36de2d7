/**
 * Golden-file regression tests: byte-exact JSON of a small fixed
 * Session sweep, a fixed seeded ServeSession run, and a feature-cluster
 * run with every routing and control-plane mechanism firing, pinned
 * against checked-in fixtures under tests/goldens/. Any behavior change in
 * the hot path — timing, energy, stats, scheduling, serialization —
 * shows up as a diff here instead of sliding silently.
 *
 * Regenerate after an intentional change with tests/update_goldens.sh
 * (runs this binary with HYGCN_UPDATE_GOLDENS=1).
 *
 * HYGCN_GOLDEN_RTOL=<rtol> relaxes the comparison to a tokenwise one
 * that allows numeric JSON tokens to differ within the given relative
 * tolerance while everything else stays byte-exact — useful when
 * chasing a cross-toolchain last-ulp formatting difference without
 * silencing structural drift. Unset (the default) means byte-exact.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "api/serve_session.hpp"
#include "api/session.hpp"
#include "serve/scheduler.hpp"
#include "sim/json.hpp"

using namespace hygcn;

namespace {

/** HYGCN_GOLDEN_RTOL as a double, or 0 (byte-exact) when unset. */
double
goldenRtol()
{
    const char *env = std::getenv("HYGCN_GOLDEN_RTOL");
    if (env == nullptr || *env == '\0')
        return 0.0;
    char *end = nullptr;
    const double rtol = std::strtod(env, &end);
    EXPECT_TRUE(end != env && *end == '\0' && rtol >= 0.0)
        << "HYGCN_GOLDEN_RTOL=\"" << env
        << "\" is not a non-negative number";
    return (end != env && *end == '\0' && rtol >= 0.0) ? rtol : 0.0;
}

/** True at the first character of a JSON number token: a digit, or a
 *  minus sign followed by a digit. Positions inside strings never
 *  qualify because the caller only probes where both documents agree
 *  structurally up to numeric values. */
bool
numberStartsAt(const std::string &text, std::size_t i)
{
    if (i >= text.size())
        return false;
    if (std::isdigit(static_cast<unsigned char>(text[i])))
        return true;
    return text[i] == '-' && i + 1 < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[i + 1]));
}

/**
 * Tokenwise comparison: numeric JSON tokens may differ within
 * @p rtol relative to the larger magnitude (exact equality covers
 * the both-zero case), everything else must match byte for byte.
 * Returns true when @p actual is within tolerance of @p expected.
 */
bool
jsonNumericallyEqual(const std::string &expected,
                     const std::string &actual, double rtol)
{
    std::size_t i = 0, j = 0;
    while (i < expected.size() && j < actual.size()) {
        const bool num_e = numberStartsAt(expected, i);
        const bool num_a = numberStartsAt(actual, j);
        if (num_e && num_a) {
            char *end_e = nullptr;
            char *end_a = nullptr;
            const double ve = std::strtod(expected.c_str() + i, &end_e);
            const double va = std::strtod(actual.c_str() + j, &end_a);
            const double scale =
                std::max(std::abs(ve), std::abs(va));
            if (std::abs(va - ve) > rtol * std::max(scale, 1e-300) &&
                va != ve)
                return false;
            i = static_cast<std::size_t>(end_e - expected.c_str());
            j = static_cast<std::size_t>(end_a - actual.c_str());
            continue;
        }
        if (expected[i] != actual[j])
            return false;
        ++i;
        ++j;
    }
    return i == expected.size() && j == actual.size();
}

std::string
goldenPath(const std::string &name)
{
    return std::string(HYGCN_GOLDEN_DIR) + "/" + name;
}

bool
updating()
{
    const char *env = std::getenv("HYGCN_UPDATE_GOLDENS");
    return env != nullptr && *env != '\0' && std::string(env) != "0";
}

/**
 * Compare @p json byte-exactly against the checked-in golden, or
 * rewrite the golden when HYGCN_UPDATE_GOLDENS is set.
 */
void
compareOrUpdate(const std::string &name, const std::string &json)
{
    const std::string path = goldenPath(name);
    if (updating()) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << json << "\n";
        ASSERT_TRUE(out.good()) << "short write to " << path;
        std::printf("updated %s (%zu bytes)\n", path.c_str(),
                    json.size() + 1);
        return;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden " << path
        << "; generate it with tests/update_goldens.sh";
    std::ostringstream content;
    content << in.rdbuf();

    const double rtol = goldenRtol();
    if (rtol > 0.0) {
        EXPECT_TRUE(
            jsonNumericallyEqual(content.str(), json + "\n", rtol))
            << "golden " << name << " diverged beyond "
            << "HYGCN_GOLDEN_RTOL=" << rtol << "; if the change is "
            << "intentional, regenerate with tests/update_goldens.sh";
        return;
    }
    EXPECT_EQ(content.str(), json + "\n")
        << "golden " << name << " diverged; if the change is "
        << "intentional, regenerate with tests/update_goldens.sh";
}

} // namespace

TEST(Goldens, NumericComparatorAcceptsWithinTolerance)
{
    // Identical documents always pass, at any tolerance.
    EXPECT_TRUE(jsonNumericallyEqual("{\"a\":1.5}", "{\"a\":1.5}", 0.0));
    // 1% drift inside a 5% budget; formatting may differ too.
    EXPECT_TRUE(jsonNumericallyEqual("{\"a\":100}", "{\"a\":101}", 0.05));
    EXPECT_TRUE(jsonNumericallyEqual("{\"a\":1e2}", "{\"a\":100.0}", 0.01));
    // Negative numbers and exponents parse as one token.
    EXPECT_TRUE(jsonNumericallyEqual("[-2.0e3,4]", "[-2.02e3,4]", 0.05));
}

TEST(Goldens, NumericComparatorRejectsBeyondTolerance)
{
    // 10% drift outside a 5% budget.
    EXPECT_FALSE(jsonNumericallyEqual("{\"a\":100}", "{\"a\":110}", 0.05));
    // Zero against non-zero has no relative scale to hide behind.
    EXPECT_FALSE(jsonNumericallyEqual("{\"a\":0}", "{\"a\":1e-5}", 0.05));
    // Structural drift never passes, whatever the tolerance.
    EXPECT_FALSE(jsonNumericallyEqual("{\"a\":1}", "{\"b\":1}", 1.0));
    EXPECT_FALSE(jsonNumericallyEqual("{\"a\":1}", "{\"a\":1,\"b\":2}", 1.0));
    // A number against a non-number is structural, not numeric.
    EXPECT_FALSE(jsonNumericallyEqual("{\"a\":1}", "{\"a\":true}", 1.0));
}

TEST(Goldens, SessionSweepJsonIsByteStable)
{
    // Small fixed sweep: Aggregation-Engine-only runs over scaled
    // Cora, 2x2 parameter grid. Everything here is pinned — seed,
    // scale, expansion order, JSON formatting.
    const std::vector<api::RunResult> runs =
        api::Session()
            .platform("hygcn-agg")
            .dataset(DatasetId::CR)
            .datasetScale(0.2)
            .model(ModelId::GCN)
            .seed(11)
            .vary("sparsityElimination", {0.0, 1.0})
            .vary("aggBufBytes", {1.0 * (1 << 20), 4.0 * (1 << 20)})
            .threads(1)
            .runAll();
    ASSERT_EQ(runs.size(), 4u);
    compareOrUpdate("session_sweep.json", toJson(runs));
}

TEST(Goldens, ServeRunJsonIsByteStable)
{
    // The registered smoke workload, per-request trace included.
    const serve::ServeResult result =
        api::ServeSession::workload("serve-smoke").run();
    ASSERT_EQ(result.requests.size(), result.config.numRequests);
    compareOrUpdate("serve_run.json", toJson(result));
}

TEST(Goldens, AnalyticServeRunJsonIsByteStable)
{
    // The same smoke workload priced by the analytic weights-resident
    // cost model: pins the phase breakdown (combination weight-load
    // cycles), the analytic curve math, and the off-default JSON
    // fields (cost_model, unit_cycles_by_batch) byte-exactly.
    const serve::ServeResult result =
        api::ServeSession::workload("serve-smoke")
            .costModel("analytic")
            .run();
    ASSERT_EQ(result.requests.size(), result.config.numRequests);
    compareOrUpdate("serve_run_analytic.json", toJson(result));
}

TEST(Goldens, FeatureClusterServeRunJsonIsByteStable)
{
    // Every routing and control-plane mechanism at once on a
    // two-class hygcn full/lean cluster: edf with preemption, energy
    // lookahead routing with affinity, queue-depth autoscaling and a
    // binding power cap, measured pricing, materialized stats. The
    // feature counters must all fire, so the golden pins the code
    // paths where they interact, not just the default schedule.
    HyGCNConfig lean;
    lean.simdCores = 16;
    lean.systolicModules = 4;
    serve::ServeConfig config =
        api::ServeSession()
            .datasetScale(0.25)
            .kernelThreads(1)
            .scenario("cora", "gcn")
            .scenario("citeseer", "gcn")
            .instanceClass("hygcn", 2, HyGCNConfig{})
            .instanceClass("hygcn", 2, lean)
            .tenant("interactive", 0.6, {3.0, 1.0}, 800000, 0.0)
            .tenant("analytics", 0.4, {1.0, 3.0}, 0, 1.0)
            .requests(3000)
            .meanInterarrival(100000.0)
            .seed(7)
            .arrivalProcess("heavy-tail")
            .policy("edf")
            .maxBatch(4)
            .batchTimeout(200000)
            .costModel("measured")
            .routeObjective("energy")
            .lookaheadRouting()
            .affinityMargin(0.1)
            .scalingPolicy("queue-depth")
            .powerCap(18.0)
            .preemption()
            .config();
    config.cluster.classes[0].name = "hygcn-full";
    config.cluster.classes[1].name = "hygcn-lean";
    for (serve::ClusterSpec::InstanceClass &cls : config.cluster.classes) {
        cls.minCount = 1;
        cls.maxCount = 3;
    }
    serve::ServeResult result = serve::runServe(config);
    ASSERT_EQ(result.stats.requests, config.numRequests);
    EXPECT_GT(result.stats.lookaheadHolds, 0u);
    EXPECT_GT(result.stats.affinityMigrations, 0u);
    EXPECT_GT(result.stats.preemptions, 0u);
    EXPECT_GT(result.stats.scaleUpEvents, 0u);
    EXPECT_GT(result.stats.powerDeferredBatches, 0u);
    // Cache traffic depends on what earlier runs in the process
    // priced, not on this run's schedule.
    result.stats.pricedCacheHits = 0;
    result.stats.pricedCacheMisses = 0;
    // Aggregates only: the per-request trace of 3000 requests would
    // be a ~650 KB fixture.
    compareOrUpdate("serve_feature_cluster.json",
                    toJson(result, /*per_request=*/false));
}
