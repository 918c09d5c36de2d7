/**
 * @file
 * Figure 10 reproduction:
 *  (a) speedup of the interval/shard algorithm optimization on CPU
 *      (paper: ~2.3x average),
 *  (b) the same optimization on GPU (paper: slowdown, occupancy
 *      collapse),
 *  (c) HyGCN speedup over the optimized PyG-CPU and naive PyG-GPU
 *      (paper: 1509x and 6.5x on average).
 * DiffPool runs on IB/CL only, as in the paper. GPU cells that would
 * exhaust V100 memory at full Table 4 scale are marked OoM.
 *
 * With --json PATH the harness also writes the machine-readable
 * BENCH_fig10.json consumed by the CI bench-regression gate; the
 * speedups derive from simulated cycle counts, which are
 * deterministic in the config and therefore portable across CI
 * hosts.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.hpp"

using namespace hygcn;
using namespace hygcn::bench;

namespace {

std::vector<DatasetId>
datasetsFor(ModelId m)
{
    return m == ModelId::DFP ? diffpoolDatasets() : figureDatasets();
}

double
seconds(const std::string &platform, ModelId m, DatasetId ds)
{
    return report(platform, m, ds).seconds();
}

struct SpeedupPoint
{
    std::string label;
    double vsCpu = 0.0;
    double vsGpu = 0.0; // 0 marks an OoM cell (omitted from JSON)
};

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];
    }

    banner("Figure 10", "algorithm optimization & HyGCN speedup");

    // ---- (a) CPU algorithm optimization --------------------------
    std::printf("\n(a) PyG-CPU-OP speedup over PyG-CPU\n");
    header("model/dataset", {"speedup"});
    double geo_a = 0.0;
    int n_a = 0;
    std::vector<std::pair<std::string, double>> cpu_opt;
    for (ModelId m : allModels()) {
        for (DatasetId ds : datasetsFor(m)) {
            const double naive = seconds("pyg-cpu", m, ds);
            const double opt = seconds("pyg-cpu-part", m, ds);
            const double s = naive / opt;
            row(modelAbbrev(m) + "/" + datasetAbbrev(ds), {s});
            cpu_opt.emplace_back(
                modelAbbrev(m) + "/" + datasetAbbrev(ds), s);
            geo_a += s;
            ++n_a;
        }
    }
    std::printf("average: %.2fx (paper: 2.3x)\n", geo_a / n_a);

    // ---- (b) GPU algorithm "optimization" ------------------------
    std::printf("\n(b) PyG-GPU-OP speedup over PyG-GPU "
                "(<1 = slowdown, as in the paper)\n");
    header("model/dataset", {"speedup"});
    for (ModelId m : allModels()) {
        for (DatasetId ds : datasetsFor(m)) {
            if (gpuWouldOomFullSize(m, ds)) {
                std::printf("%-22s%10s\n",
                            (modelAbbrev(m) + "/" + datasetAbbrev(ds))
                                .c_str(),
                            "OoM");
                continue;
            }
            const double naive = seconds("pyg-gpu", m, ds);
            const double opt = seconds("pyg-gpu-part", m, ds);
            row(modelAbbrev(m) + "/" + datasetAbbrev(ds), {naive / opt});
        }
    }

    // ---- (c) HyGCN speedup ----------------------------------------
    std::printf("\n(c) HyGCN speedup over PyG-CPU (optimized) and "
                "PyG-GPU\n");
    header("model/dataset", {"vs CPU", "vs GPU"});
    double sum_cpu = 0.0, sum_gpu = 0.0;
    int n_cpu = 0, n_gpu = 0;
    std::vector<SpeedupPoint> hygcn_points;
    for (ModelId m : allModels()) {
        for (DatasetId ds : datasetsFor(m)) {
            const double h = seconds("hygcn", m, ds);
            const double cpu = seconds("pyg-cpu-part", m, ds);
            const double s_cpu = cpu / h;
            sum_cpu += s_cpu;
            ++n_cpu;
            SpeedupPoint point;
            point.label = modelAbbrev(m) + "/" + datasetAbbrev(ds);
            point.vsCpu = s_cpu;
            if (gpuWouldOomFullSize(m, ds)) {
                std::printf("%-22s%10.1f%10s\n", point.label.c_str(),
                            s_cpu, "OoM");
                hygcn_points.push_back(std::move(point));
                continue;
            }
            const double gpu = seconds("pyg-gpu", m, ds);
            const double s_gpu = gpu / h;
            sum_gpu += s_gpu;
            ++n_gpu;
            row(point.label, {s_cpu, s_gpu}, "%10.1f");
            point.vsGpu = s_gpu;
            hygcn_points.push_back(std::move(point));
        }
    }
    std::printf("average: %.0fx vs CPU (paper 1509x), %.1fx vs GPU "
                "(paper 6.5x)\n",
                sum_cpu / n_cpu, sum_gpu / n_gpu);

    if (!json_path.empty()) {
        JsonWriter w;
        w.beginObject().field("bench", "fig10_speedup").key("cpu_opt");
        w.array(cpu_opt, [&](const auto &c) {
            w.beginObject()
                .field("case", c.first)
                .field("speedup", c.second)
                .endObject();
        });
        w.key("hygcn").array(hygcn_points, [&](const SpeedupPoint &point) {
            // OoM cells carry no GPU number, matching the table.
            w.beginObject()
                .field("case", point.label)
                .field("vs_cpu", point.vsCpu)
                .fieldIf(point.vsGpu > 0.0, "vs_gpu", point.vsGpu)
                .endObject();
        });
        if (!writeJson(json_path, w.endObject().str()))
            return 1;
    }
    return 0;
}
