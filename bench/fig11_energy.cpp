/**
 * @file
 * Figure 11 reproduction: energy of PyG-GPU and HyGCN normalized to
 * PyG-CPU (percent). Paper: HyGCN consumes on average 0.04% of the
 * CPU's energy (2500x reduction) and ~10% of the GPU's.
 *
 * With --json PATH the harness also writes the machine-readable
 * BENCH_fig11.json consumed by the CI bench-regression gate; the
 * normalized-energy percentages derive from the deterministic energy
 * model (event counts x the 12 nm cost table), so they are portable
 * across CI hosts. Lower is better: a case whose percentage grows
 * past the gate's budget means HyGCN got less energy-efficient
 * relative to the baselines.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.hpp"

using namespace hygcn;
using namespace hygcn::bench;

namespace {

double
joules(const std::string &platform, ModelId m, DatasetId ds)
{
    return report(platform, m, ds).joules();
}

struct EnergyPoint
{
    std::string label;
    double vsCpuPct = 0.0;
    double vsGpuPct = 0.0; // 0 marks an OoM cell (omitted from JSON)
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

    banner("Figure 11", "normalized energy over PyG-CPU (%)");

    header("model/dataset", {"GPU %", "HyGCN %"});
    double sum_h = 0.0, sum_hg = 0.0;
    int n = 0, ng = 0;
    std::vector<EnergyPoint> points;
    for (ModelId m : allModels()) {
        const auto dss = m == ModelId::DFP ? diffpoolDatasets()
                                           : figureDatasets();
        for (DatasetId ds : dss) {
            const double cpu = joules("pyg-cpu-part", m, ds);
            const double h = joules("hygcn", m, ds);
            EnergyPoint point;
            point.label = modelAbbrev(m) + "/" + datasetAbbrev(ds);
            point.vsCpuPct = h / cpu * 100.0;
            sum_h += point.vsCpuPct;
            ++n;
            if (gpuWouldOomFullSize(m, ds)) {
                std::printf("%-22s%10s%10.4f\n", point.label.c_str(),
                            "OoM", point.vsCpuPct);
                points.push_back(std::move(point));
                continue;
            }
            const double gpu = joules("pyg-gpu", m, ds);
            point.vsGpuPct = h / gpu * 100.0;
            sum_hg += point.vsGpuPct;
            ++ng;
            row(point.label, {gpu / cpu * 100.0, point.vsCpuPct},
                "%10.4f");
            points.push_back(std::move(point));
        }
    }
    std::printf("HyGCN average: %.4f%% of CPU (paper 0.04%%), %.1f%% of "
                "GPU (paper ~10%%)\n",
                sum_h / n, sum_hg / ng);

    if (!json_path.empty()) {
        JsonWriter w;
        w.beginObject().field("bench", "fig11_energy").key("hygcn");
        w.array(points, [&](const EnergyPoint &point) {
            // OoM cells carry no GPU number, matching the table.
            w.beginObject()
                .field("case", point.label)
                .field("vs_cpu_pct", point.vsCpuPct)
                .fieldIf(point.vsGpuPct > 0.0, "vs_gpu_pct", point.vsGpuPct)
                .endObject();
        });
        if (!writeJson(json_path, w.endObject().str()))
            return 1;
    }
    return 0;
}
