/**
 * @file
 * Figure 12 reproduction: HyGCN on-chip energy breakdown across the
 * Aggregation Engine, Combination Engine, and Coordinator. Paper:
 * the Combination Engine dominates (MVM MACs), with the Aggregation
 * Engine share growing on high-degree graphs (CL, RD).
 *
 * With --json PATH the harness also writes the machine-readable
 * BENCH_fig12.json consumed by the CI bench-regression gate. The
 * gate watches the per-component *shares* (percent of on-chip
 * energy), not absolute joules: shares are invariant to uniform cost
 * retuning, so a drift means the breakdown itself moved — one engine
 * got relatively hungrier. The three shares sum to 100, so growth
 * anywhere is visible without a "higher is better" direction.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.hpp"

using namespace hygcn;
using namespace hygcn::bench;

namespace {

struct BreakdownPoint
{
    std::string label;
    double aggPct = 0.0;
    double combPct = 0.0;
    double coordPct = 0.0;
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

    banner("Figure 12", "HyGCN energy breakdown (%, on-chip)");

    header("model/dataset", {"AggE %", "CombE %", "Coord %"});
    std::vector<BreakdownPoint> points;
    for (ModelId m : allModels()) {
        const auto dss = m == ModelId::DFP ? diffpoolDatasets()
                                           : figureDatasets();
        for (DatasetId ds : dss) {
            const SimReport r = report("hygcn", m, ds);
            const double agg = r.energy.component("agg_engine");
            const double comb = r.energy.component("comb_engine");
            const double coord = r.energy.component("coordinator");
            const double total = agg + comb + coord;
            BreakdownPoint point;
            point.label = modelAbbrev(m) + "/" + datasetAbbrev(ds);
            point.aggPct = agg / total * 100.0;
            point.combPct = comb / total * 100.0;
            point.coordPct = coord / total * 100.0;
            row(point.label,
                {point.aggPct, point.combPct, point.coordPct});
            points.push_back(std::move(point));
        }
    }

    if (!json_path.empty()) {
        JsonWriter w;
        w.beginObject().field("bench", "fig12_energy_breakdown").key("hygcn");
        w.array(points, [&](const BreakdownPoint &point) {
            w.beginObject()
                .field("case", point.label)
                .field("agg_pct", point.aggPct)
                .field("comb_pct", point.combPct)
                .field("coord_pct", point.coordPct)
                .endObject();
        });
        if (!writeJson(json_path, w.endObject().str()))
            return 1;
    }
    return 0;
}
