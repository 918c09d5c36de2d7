/**
 * @file
 * Shared helpers for the benchmark harnesses: the pre-seeded Session
 * every harness starts from, cached dataset access at the default
 * benchmarking scale, and table formatting matching the paper's
 * figures. All execution goes through the unified Platform API
 * (api/session.hpp); there are no per-backend entry points here.
 */

#ifndef HYGCN_BENCH_COMMON_HPP
#define HYGCN_BENCH_COMMON_HPP

#include <string>
#include <vector>

#include "api/session.hpp"
#include "graph/dataset.hpp"
#include "model/models.hpp"
#include "sim/json.hpp"

namespace hygcn::bench {

/** Global deterministic seed for every harness. */
inline constexpr std::uint64_t kSeed = 20200222; // HPCA 2020

/** Datasets used in most figures (Table 4 order). */
std::vector<DatasetId> figureDatasets();

/** Datasets DiffPool is evaluated on (paper: IB and CL only). */
std::vector<DatasetId> diffpoolDatasets();

/** A Session pre-seeded with kSeed — the start of every harness run. */
api::Session session();

/** One kSeed timing run of (platform, model, dataset) through the API. */
SimReport report(const std::string &platform, ModelId m, DatasetId ds);

/** Cached dataset at the default benchmarking scale. */
const Dataset &dataset(DatasetId id);

/** Cached model configuration for (model, dataset). */
ModelConfig model(ModelId id, DatasetId ds);

/**
 * True if the *full-size* (Table 4) dataset would exceed V100 memory
 * under PyG's message materialization — the paper's OoM cells. Our
 * benches run a scaled Reddit, so this is evaluated analytically at
 * full scale for reporting fidelity.
 */
bool gpuWouldOomFullSize(ModelId m, DatasetId ds);

/**
 * Write a BENCH_*.json document (@p json plus a newline) to @p path
 * and print "wrote <path><note> (<bytes> bytes)". False, with an
 * error on stderr, when the file cannot be written.
 */
bool writeJson(const std::string &path, const std::string &json,
               const char *note = "");

/** Print the harness banner: figure/table id and description. */
void banner(const std::string &experiment, const std::string &what);

/** Printf-style row helper: label column then values. */
void row(const std::string &label, const std::vector<double> &values,
         const char *fmt = "%10.2f");

/** Column header row, each column @p width characters wide (match
 *  the width of row()'s format). */
void header(const std::string &label,
            const std::vector<std::string> &columns, int width = 10);

} // namespace hygcn::bench

#endif // HYGCN_BENCH_COMMON_HPP
