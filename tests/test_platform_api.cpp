#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <stdexcept>
#include <thread>

#include "api/dataset_cache.hpp"
#include "api/registry.hpp"
#include "api/session.hpp"
#include "core/accelerator.hpp"
#include "sim/json.hpp"

using namespace hygcn;
using namespace hygcn::api;

namespace {

/** Small dataset scale so API tests stay fast. */
constexpr double kScale = 0.2;

} // namespace

TEST(Registry, BuiltinPlatformLookup)
{
    Registry &reg = Registry::global();
    for (const char *name : {"hygcn", "hygcn-agg", "pyg-cpu",
                             "pyg-cpu-part", "pyg-gpu", "pyg-gpu-part"}) {
        ASSERT_TRUE(reg.hasPlatform(name)) << name;
        auto platform = reg.makePlatform(name);
        ASSERT_NE(platform, nullptr);
        EXPECT_EQ(platform->name(), name);
    }
    EXPECT_EQ(reg.platformNames().size(), 6u);
    // Lookup is case-insensitive, like dataset/model names.
    EXPECT_TRUE(reg.hasPlatform("HyGCN"));
    EXPECT_EQ(reg.makePlatform("PyG-GPU")->name(), "pyg-gpu");
}

TEST(Registry, UnknownNamesThrowWithKnownKeysListed)
{
    Registry &reg = Registry::global();
    EXPECT_THROW(reg.makePlatform("tpu"), std::out_of_range);
    try {
        reg.makePlatform("tpu");
        FAIL() << "expected std::out_of_range";
    } catch (const std::out_of_range &e) {
        EXPECT_NE(std::string(e.what()).find("hygcn"), std::string::npos);
    }
    EXPECT_THROW(reg.datasetId("karate-club"), std::out_of_range);
    EXPECT_THROW(reg.modelId("gat"), std::out_of_range);
    EXPECT_THROW(reg.makeDataset("karate-club"), std::out_of_range);
    EXPECT_THROW(reg.makeModel("gat", 64), std::out_of_range);
}

TEST(Registry, DatasetAndModelNameResolution)
{
    Registry &reg = Registry::global();
    EXPECT_EQ(reg.datasetId("cora"), DatasetId::CR);
    EXPECT_EQ(reg.datasetId("CR"), DatasetId::CR); // case-insensitive
    EXPECT_EQ(reg.datasetId("pubmed"), DatasetId::PB);
    EXPECT_EQ(reg.modelId("gcn"), ModelId::GCN);
    EXPECT_EQ(reg.modelId("DFP"), ModelId::DFP);

    const Dataset cora = reg.makeDataset("cora", 1, kScale);
    EXPECT_EQ(cora.id, DatasetId::CR);
    EXPECT_EQ(cora.featureLen, 1433);

    const ModelConfig gin = reg.makeModel("gin", 64);
    EXPECT_EQ(gin.id, ModelId::GIN);
}

TEST(Registry, CustomPlatformRegistration)
{
    class NullPlatform : public Platform
    {
      public:
        std::string name() const override { return "null"; }
        RunResult run(const RunSpec &spec) const override
        {
            RunResult out;
            out.spec = spec;
            out.report.platform = "null";
            return out;
        }
    };
    Registry reg; // private registry; keep the global one pristine
    reg.registerPlatform("null",
                         [] { return std::make_unique<NullPlatform>(); });
    EXPECT_TRUE(reg.hasPlatform("null"));
    EXPECT_EQ(reg.makePlatform("null")->run(RunSpec{}).report.platform,
              "null");
}

TEST(Sweep, CartesianExpansionOrderAndSize)
{
    Session s;
    s.platforms({"hygcn", "pyg-cpu"})
        .datasets({DatasetId::CR, DatasetId::CS})
        .models({ModelId::GCN, ModelId::GIN})
        .vary("aggBufBytes", {1 << 20, 2 << 20, 4 << 20});
    const std::vector<RunSpec> specs = s.expand();
    ASSERT_EQ(specs.size(), 2u * 2u * 2u * 3u);
    EXPECT_EQ(s.sweep().size(), specs.size());

    // Declaration order: platform slowest, vary() axis fastest.
    EXPECT_EQ(specs[0].platform, "hygcn");
    EXPECT_EQ(specs[0].hygcn.aggBufBytes, 1u << 20);
    EXPECT_EQ(specs[1].hygcn.aggBufBytes, 2u << 20);
    EXPECT_EQ(specs[2].hygcn.aggBufBytes, 4u << 20);
    EXPECT_EQ(specs[3].model, ModelId::GIN);
    EXPECT_EQ(specs[6].dataset, DatasetId::CS);
    EXPECT_EQ(specs[12].platform, "pyg-cpu");

    // Applied parameters are echoed into the spec.
    ASSERT_EQ(specs[0].varied.size(), 1u);
    EXPECT_EQ(specs[0].varied[0].first, "aggBufBytes");
    EXPECT_DOUBLE_EQ(specs[0].varied[0].second, 1 << 20);
}

TEST(Sweep, UnknownVaryKeyThrowsAtExpansion)
{
    Session s;
    s.dataset(DatasetId::CR).vary("warpSpeed", {1.0});
    EXPECT_THROW(s.expand(), std::invalid_argument);
}

TEST(Sweep, ModuleBudgetCouplesModulesAndRows)
{
    RunSpec spec;
    applyParam(spec, "moduleBudget", 8.0);
    EXPECT_EQ(spec.hygcn.systolicModules, 8u);
    EXPECT_EQ(spec.hygcn.moduleRows, 4u);
    EXPECT_THROW(applyParam(spec, "moduleBudget", 5.0),
                 std::invalid_argument);
}

TEST(Sweep, OutOfRangeParametersThrow)
{
    RunSpec spec;
    EXPECT_THROW(applyParam(spec, "simdCores", -1.0),
                 std::invalid_argument);
    EXPECT_THROW(applyParam(spec, "simdCores", 5e9),
                 std::invalid_argument); // would wrap uint32
    EXPECT_THROW(applyParam(spec, "aggBufBytes", 1e19),
                 std::invalid_argument);
    EXPECT_THROW(applyParam(spec, "seed", -1.0), std::invalid_argument);
    EXPECT_THROW(applyParam(spec, "numLayers", 0.0),
                 std::invalid_argument);
}

TEST(Sweep, ParallelRunAllMatchesSequentialJson)
{
    auto sweep = [](unsigned threads) {
        return Session()
            .platforms({"hygcn", "hygcn-agg"})
            .dataset(DatasetId::CR)
            .datasetScale(kScale)
            .model(ModelId::GCN)
            .seed(11)
            .vary("aggBufBytes", {1 << 20, 2 << 20})
            .vary("sparsityElimination", {0.0, 1.0})
            .threads(threads)
            .runAll();
    };
    const std::vector<RunResult> sequential = sweep(1);
    const std::vector<RunResult> parallel = sweep(4);
    ASSERT_EQ(sequential.size(), 8u); // >= 8 runs on >= 4 threads
    ASSERT_EQ(parallel.size(), 8u);
    EXPECT_EQ(toJson(sequential), toJson(parallel));
}

TEST(Sweep, JsonEchoesSpecPerRun)
{
    const std::vector<RunResult> runs =
        Session()
            .platform("hygcn-agg")
            .dataset(DatasetId::CR)
            .datasetScale(kScale)
            .vary("sparsityElimination", {0.0, 1.0})
            .runAll();
    const std::string json = toJson(runs);
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json.back(), ']');
    EXPECT_NE(json.find("\"spec\""), std::string::npos);
    EXPECT_NE(json.find("\"sparsityElimination\""), std::string::npos);
    EXPECT_NE(json.find("\"platform\":\"hygcn-agg\""), std::string::npos);
}

TEST(Platform, RunResultMatchesAcceleratorResult)
{
    // Direct accelerator invocation...
    const Dataset data = makeDataset(DatasetId::CR, 1, kScale);
    const ModelConfig model = makeModel(ModelId::GCN, data.featureLen);
    const ModelParams params = makeParams(model, 7);
    const Matrix x0 =
        makeFeatures(data.numVertices(), data.featureLen, 7);
    HyGCNAccelerator accel{HyGCNConfig{}};
    const AcceleratorResult direct =
        accel.run(data, model, params, &x0, 7);

    // ...must be bit-identical to the same scenario through the API.
    const RunResult via_api = Session()
                                  .platform("hygcn")
                                  .dataset(DatasetId::CR)
                                  .datasetScale(kScale)
                                  .model(ModelId::GCN)
                                  .seed(7)
                                  .functional()
                                  .runOne();
    EXPECT_EQ(direct.report.cycles, via_api.report.cycles);
    EXPECT_EQ(toJson(direct.report), toJson(via_api.report));
    EXPECT_DOUBLE_EQ(direct.avgVertexLatency, via_api.avgVertexLatency);
    ASSERT_EQ(direct.layerOutputs.size(), via_api.layerOutputs.size());
    for (std::size_t i = 0; i < direct.layerOutputs.size(); ++i)
        EXPECT_EQ(Matrix::maxAbsDiff(direct.layerOutputs[i],
                                     via_api.layerOutputs[i]),
                  0.0f);
}

TEST(Platform, InvalidConfigFailsFastBeforeDatasetConstruction)
{
    HyGCNConfig bad;
    bad.simdCores = 0;

    // Unique scale: this dataset exists only if the adapter wrongly
    // constructed it before validating.
    const double unique_scale = 0.017;
    const std::size_t cached_before = DatasetCache::global().size();

    auto platform = Registry::global().makePlatform("hygcn");
    RunSpec spec;
    spec.dataset = DatasetId::CS;
    spec.datasetScale = unique_scale;
    spec.hygcn = bad;
    EXPECT_THROW(platform->run(spec), std::invalid_argument);
    EXPECT_THROW(Registry::global().makePlatform("hygcn-agg")->run(spec),
                 std::invalid_argument);
    EXPECT_EQ(DatasetCache::global().size(), cached_before);

    // The same failure propagates out of a Session sweep.
    EXPECT_THROW(Session()
                     .config(bad)
                     .dataset(DatasetId::CS)
                     .datasetScale(unique_scale)
                     .runOne(),
                 std::invalid_argument);
}

TEST(Platform, BaselinesRejectFunctionalMode)
{
    // The pyg-gpu cost model and the agg-only mode are timing-only;
    // asking for functional outputs must fail fast, not return
    // empty matrices. (pyg-cpu gained a functional mode via the
    // kernel core — covered below.)
    for (const char *name : {"pyg-gpu", "hygcn-agg"}) {
        RunSpec spec;
        spec.dataset = DatasetId::CR;
        spec.datasetScale = kScale;
        spec.functional = true;
        EXPECT_THROW(Registry::global().makePlatform(name)->run(spec),
                     std::invalid_argument)
            << name;
    }

    // The agg-only mode hard-codes first-layer GCN aggregation;
    // other models must be rejected, not silently remapped.
    RunSpec gin;
    gin.model = ModelId::GIN;
    gin.dataset = DatasetId::CR;
    gin.datasetScale = kScale;
    EXPECT_THROW(Registry::global().makePlatform("hygcn-agg")->run(gin),
                 std::invalid_argument);
}

TEST(Platform, CpuBaselineFunctionalMatchesHyGCN)
{
    // pyg-cpu runs the model through the kernel core in functional
    // mode; its outputs must be bit-exact against the hygcn
    // platform's functional path (both are backed by the same
    // kernels, in the same FP order).
    RunSpec cpu;
    cpu.platform = "pyg-cpu";
    cpu.dataset = DatasetId::CR;
    cpu.datasetScale = kScale;
    cpu.functional = true;
    cpu.threads = 2;
    const RunResult cpu_out =
        Registry::global().makePlatform("pyg-cpu")->run(cpu);

    RunSpec hw = cpu;
    hw.platform = "hygcn";
    hw.threads = 0;
    const RunResult hw_out =
        Registry::global().makePlatform("hygcn")->run(hw);

    ASSERT_EQ(cpu_out.layerOutputs.size(), hw_out.layerOutputs.size());
    ASSERT_FALSE(cpu_out.layerOutputs.empty());
    for (std::size_t li = 0; li < cpu_out.layerOutputs.size(); ++li) {
        EXPECT_EQ(Matrix::maxAbsDiff(cpu_out.layerOutputs[li],
                                     hw_out.layerOutputs[li]),
                  0.0f)
            << "layer " << li;
    }
    // The timing/energy report still comes from the CPU cost model.
    EXPECT_GT(cpu_out.report.cycles, 0u);

    // The engine trace remains unsupported on the baseline.
    RunSpec traced = cpu;
    traced.collectTrace = true;
    EXPECT_THROW(Registry::global().makePlatform("pyg-cpu")->run(traced),
                 std::invalid_argument);
}

TEST(Platform, ReVariedParameterKeepsLastValueInJson)
{
    RunSpec spec;
    applyParam(spec, "aggBufBytes", 1 << 20);
    applyParam(spec, "aggBufBytes", 2 << 20);
    EXPECT_EQ(spec.hygcn.aggBufBytes, 2u << 20);
    const std::string json = toJson(spec);
    // "varied" echoes the key exactly once, with the last value.
    const std::string varied = json.substr(json.find("\"varied\""));
    std::size_t count = 0;
    for (std::size_t pos = varied.find("aggBufBytes");
         pos != std::string::npos;
         pos = varied.find("aggBufBytes", pos + 1))
        ++count;
    EXPECT_EQ(count, 1u);
    EXPECT_NE(varied.find("\"aggBufBytes\":2097152"), std::string::npos);
}

TEST(Platform, EveryAcceleratorConfigFieldChangesTheSpecJson)
{
    // The echo keys the priced-scenario cache: a field it leaves out
    // would let two differently-configured instance classes share one
    // price.
    using Edit = std::function<void(HyGCNConfig &)>;
#define EDIT(member, v) {#member, [](HyGCNConfig &c) { c.member = v; }}
    const std::vector<std::pair<const char *, Edit>> edits = {
        EDIT(simdCores, 16),
        EDIT(simdWidth, 8),
        EDIT(aggMode, AggMode::VertexConcentrated),
        EDIT(systolicModules, 4),
        EDIT(moduleRows, 8),
        EDIT(moduleCols, 64),
        EDIT(inputBufBytes, 64u << 10),
        EDIT(edgeBufBytes, 1u << 20),
        EDIT(weightBufBytes, 1u << 20),
        EDIT(outputBufBytes, 2u << 20),
        EDIT(aggBufBytes, 8u << 20),
        EDIT(hbm.channels, 4),
        EDIT(hbm.banksPerChannel, 8),
        EDIT(hbm.rowBytes, 1024),
        EDIT(hbm.tRP, 15),
        EDIT(hbm.tRCD, 15),
        EDIT(hbm.tCAS, 15),
        EDIT(hbm.bytesPerCycle, 4),
        EDIT(hbm.lowBitChannelInterleave, false),
        EDIT(sparsityElimination, false),
        EDIT(interEnginePipeline, false),
        EDIT(memoryCoordination, false),
        EDIT(pipelineMode, PipelineMode::EnergyAware),
        EDIT(clockHz, 5e8),
        EDIT(energy.macOp, 0.7),
        EDIT(energy.simdOp, 0.4),
        EDIT(energy.activationOp, 0.2),
        EDIT(energy.controlOp, 0.06),
        EDIT(energy.edramSmallPerByte, 0.09),
        EDIT(energy.edramMidPerByte, 0.31),
        EDIT(energy.edramLargePerByte, 0.36),
        EDIT(energy.hbmPerBit, 3.9),
        EDIT(energy.ddr4PerBit, 15.0),
        EDIT(energy.cpuCachePerByte, 1.3),
        EDIT(energy.cpuOp, 61.0),
        EDIT(energy.gpuOp, 13.0),
        EDIT(energy.gpuSramPerByte, 2.1),
    };
#undef EDIT
    const std::string base = toJson(RunSpec{});
    // Default HBM and energy tables stay out of the echo, so default
    // keys and goldens keep their bytes.
    EXPECT_EQ(base.find("\"hbm\""), std::string::npos);
    EXPECT_EQ(base.find("\"energy\""), std::string::npos);
    std::set<std::string> seen = {base};
    for (const auto &[name, edit] : edits) {
        RunSpec spec;
        edit(spec.hygcn);
        EXPECT_TRUE(seen.insert(toJson(spec)).second)
            << name << " does not change the echo";
    }
}

TEST(Platform, RunOneRejectsMultiRunSweeps)
{
    Session s;
    s.dataset(DatasetId::CR).vary("sparsityElimination", {0.0, 1.0});
    EXPECT_THROW(s.runOne(), std::logic_error);
}

TEST(DatasetCache, ConcurrentFirstTouchBuildsOneCopy)
{
    DatasetCache cache;
    std::vector<const Dataset *> seen(8, nullptr);
    std::vector<std::thread> pool;
    for (std::size_t i = 0; i < seen.size(); ++i)
        pool.emplace_back([&cache, &seen, i] {
            seen[i] = &cache.get(DatasetId::CS, kScale, 99);
        });
    for (std::thread &t : pool)
        t.join();
    EXPECT_EQ(cache.size(), 1u);
    for (const Dataset *d : seen) {
        ASSERT_NE(d, nullptr);
        EXPECT_EQ(d, seen[0]); // one shared instance
        EXPECT_EQ(d->id, DatasetId::CS);
    }
}

TEST(DatasetCache, KeysSeparateScaleAndSeed)
{
    DatasetCache cache;
    const Dataset &a = cache.get(DatasetId::CR, kScale, 1);
    const Dataset &b = cache.get(DatasetId::CR, kScale, 2);
    const Dataset &c = cache.get(DatasetId::CR, kScale, 1);
    EXPECT_NE(&a, &b);
    EXPECT_EQ(&a, &c);
    EXPECT_EQ(cache.size(), 2u);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
}

// ---- custom dataset/model addressing (pre-existing API gap) --------

TEST(Registry, CustomDatasetAndModelAddressableFromRunSpec)
{
    // Regression for the ROADMAP gap: registered custom datasets and
    // models used to be constructible by name only — a RunSpec (and
    // so Session/sweeps/serving scenarios) could not reference them.
    Registry &reg = Registry::global();
    reg.registerDataset(
        "tiny-cora", [](std::uint64_t seed, double scale) {
            return ::hygcn::makeDataset(DatasetId::CR, seed,
                                        scale <= 0.0 ? 0.1 : scale);
        });
    reg.registerModel("gcn-wide", [](int feature_len, int num_layers) {
        return ::hygcn::makeModel(ModelId::GCN, feature_len, num_layers);
    });
    ASSERT_TRUE(reg.hasDataset("tiny-cora"));
    ASSERT_TRUE(reg.hasModel("gcn-wide"));

    const RunResult run = Session()
                              .platform("pyg-cpu")
                              .dataset("tiny-cora")
                              .model("gcn-wide")
                              .runOne();
    EXPECT_GT(run.report.cycles, 0u);
    EXPECT_EQ(run.spec.datasetName, "tiny-cora");
    EXPECT_EQ(run.spec.modelName, "gcn-wide");
    EXPECT_NE(run.spec.label().find("tiny-cora"), std::string::npos);
    EXPECT_NE(run.spec.label().find("gcn-wide"), std::string::npos);

    // The spec echo names the custom pair; id-addressed specs stay
    // byte-stable (no dataset_name/model_name keys at all).
    const std::string json = toJson(run);
    EXPECT_NE(json.find("\"dataset_name\":\"tiny-cora\""),
              std::string::npos);
    EXPECT_NE(json.find("\"model_name\":\"gcn-wide\""),
              std::string::npos);
    const std::string builtin =
        toJson(Session().platform("pyg-cpu").dataset(DatasetId::CR)
                   .datasetScale(kScale).runOne());
    EXPECT_EQ(builtin.find("\"dataset_name\""), std::string::npos);

    // Unknown names still fail fast at the builder.
    EXPECT_THROW(Session().dataset("karate-club"), std::out_of_range);
    EXPECT_THROW(Session().model("gat"), std::out_of_range);
}

TEST(DatasetCache, CustomNamesCacheByRegistryName)
{
    Registry::global().registerDataset(
        "tiny-citeseer", [](std::uint64_t seed, double scale) {
            return ::hygcn::makeDataset(DatasetId::CS, seed,
                                        scale <= 0.0 ? 0.1 : scale);
        });
    DatasetCache cache;
    const Dataset &a = cache.get("tiny-citeseer", 0.0, 1);
    const Dataset &b = cache.get("tiny-citeseer", 0.0, 1);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(a.id, DatasetId::CS);
    // Named and id-keyed entries never collide.
    const Dataset &c = cache.get(DatasetId::CS, 0.1, 1);
    EXPECT_NE(&a, &c);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_THROW(cache.get("karate-club"), std::out_of_range);
}

TEST(Registry, IdSelectionClearsEarlierCustomName)
{
    Registry::global().registerDataset(
        "sticky-cora", [](std::uint64_t seed, double scale) {
            return ::hygcn::makeDataset(DatasetId::CR, seed,
                                        scale <= 0.0 ? 0.1 : scale);
        });
    Registry::global().registerModel(
        "sticky-gcn", [](int feature_len, int num_layers) {
            return ::hygcn::makeModel(ModelId::GCN, feature_len,
                                      num_layers);
        });
    // A later id-based selection must replace the custom name, not
    // be silently overridden by it.
    const std::vector<RunSpec> specs = Session()
                                           .dataset("sticky-cora")
                                           .model("sticky-gcn")
                                           .dataset(DatasetId::CS)
                                           .model(ModelId::GIN)
                                           .expand();
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_TRUE(specs[0].datasetName.empty());
    EXPECT_TRUE(specs[0].modelName.empty());
    EXPECT_EQ(specs[0].dataset, DatasetId::CS);
    EXPECT_EQ(specs[0].model, ModelId::GIN);
    // And the multi-id overloads clear it too.
    const std::vector<RunSpec> swept = Session()
                                           .dataset("sticky-cora")
                                           .datasets({DatasetId::CR,
                                                      DatasetId::CS})
                                           .expand();
    ASSERT_EQ(swept.size(), 2u);
    EXPECT_TRUE(swept[0].datasetName.empty());
    // Symmetrically, a custom-name selection collapses an earlier
    // multi-id axis instead of expanding duplicate name-overridden
    // runs.
    const std::vector<RunSpec> collapsed =
        Session()
            .datasets({DatasetId::CR, DatasetId::CS})
            .dataset("sticky-cora")
            .expand();
    ASSERT_EQ(collapsed.size(), 1u);
    EXPECT_EQ(collapsed[0].datasetName, "sticky-cora");
}

TEST(DatasetCache, NamedEntriesNeverAliasBuiltinSlots)
{
    // Regression: named entries once keyed with sentinel id 0, which
    // collided with the id-0 built-in (IB) under an empty name.
    DatasetCache cache;
    const Dataset &ib = cache.get(DatasetId::IB, 0.2, 1);
    EXPECT_EQ(ib.id, DatasetId::IB);
    EXPECT_THROW(cache.get("", 0.2, 1), std::out_of_range);
    EXPECT_THROW(cache.get("", 0.2, 1), std::out_of_range); // stays
}
