#include "bench/common.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>

#include "api/dataset_cache.hpp"
#include "baseline/gpu_model.hpp"

namespace hygcn::bench {

std::vector<DatasetId>
figureDatasets()
{
    return {DatasetId::IB, DatasetId::CR, DatasetId::CS,
            DatasetId::CL, DatasetId::PB, DatasetId::RD};
}

std::vector<DatasetId>
diffpoolDatasets()
{
    return {DatasetId::IB, DatasetId::CL};
}

api::Session
session()
{
    api::Session s;
    s.seed(kSeed);
    return s;
}

SimReport
report(const std::string &platform, ModelId m, DatasetId ds)
{
    return session().platform(platform).model(m).dataset(ds).report();
}

const Dataset &
dataset(DatasetId id)
{
    return api::DatasetCache::global().get(id);
}

ModelConfig
model(ModelId id, DatasetId ds)
{
    return makeModel(id, dataset(ds).featureLen);
}

bool
gpuWouldOomFullSize(ModelId m, DatasetId ds)
{
    // Full Table 4 sizes.
    struct FullSize { double v, e; int f; };
    const std::map<DatasetId, FullSize> sizes = {
        {DatasetId::IB, {2647, 28624, 136}},
        {DatasetId::CR, {2708, 10556, 1433}},
        {DatasetId::CS, {3327, 9104, 3703}},
        {DatasetId::CL, {12087, 1446010, 492}},
        {DatasetId::PB, {19717, 88648, 500}},
        {DatasetId::RD, {232965, 114615892, 602}},
    };
    const FullSize fs = sizes.at(ds);
    const ModelConfig mc = makeModel(m, fs.f);
    const GpuConfig gc;

    double working_set = fs.v * fs.f * 4.0 + fs.e * 12.0;
    for (const LayerConfig &layer : mc.layers) {
        double edges = fs.e;
        if (layer.sampleNeighbors > 0)
            edges = std::min<double>(edges,
                                     fs.v * layer.sampleNeighbors);
        const int f_agg = mc.cpuCombineFirst ? layer.outFeatures()
                                             : layer.inFeatures;
        const bool materializes =
            layer.aggOp != AggOp::Add || !mc.cpuCombineFirst;
        if (materializes)
            working_set += edges * f_agg * 4.0;
    }
    return working_set > static_cast<double>(gc.memCapacityBytes);
}

bool
writeJson(const std::string &path, const std::string &json,
          const char *note)
{
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    if (!file.good()) {
        std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
        return false;
    }
    file << json << "\n";
    std::printf("wrote %s%s (%zu bytes)\n", path.c_str(), note,
                json.size() + 1);
    return true;
}

void
banner(const std::string &experiment, const std::string &what)
{
    std::printf("==============================================="
                "=============================\n");
    std::printf("%s — %s\n", experiment.c_str(), what.c_str());
    std::printf("(synthetic Table-4 stand-in datasets; Reddit at 1/20 "
                "scale; see DESIGN.md)\n");
    std::printf("==============================================="
                "=============================\n");
}

void
row(const std::string &label, const std::vector<double> &values,
    const char *fmt)
{
    std::printf("%-22s", label.c_str());
    for (double v : values)
        std::printf(fmt, v);
    std::printf("\n");
}

void
header(const std::string &label, const std::vector<std::string> &columns,
       int width)
{
    std::printf("%-22s", label.c_str());
    for (const auto &c : columns)
        std::printf("%*s", width, c.c_str());
    std::printf("\n");
}

} // namespace hygcn::bench
