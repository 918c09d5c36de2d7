#include "serve/priced_cache.hpp"

#include "api/registry.hpp"
#include "serve/cost_model.hpp"
#include "sim/json.hpp"

namespace hygcn::serve {

void
PricedScenarioCache::rejectUnresolvable(const std::string &platform,
                                        const api::RunSpec &spec)
{
    // batchCopies == 0 must fail before a slot exists: its JSON form
    // would alias the default batchCopies == 1 key (emitted only off
    // 1) and poison that slot with a cached error for the valid spec.
    if (spec.batchCopies == 0)
        throw std::invalid_argument("serve: batchCopies must be >= 1");
    // Failures that depend on mutable registry state — unknown
    // platform keys or not-yet-registered custom dataset/model
    // names — fail fast before a slot exists, so registering the
    // name later makes the same price() call succeed. Only failures
    // deterministic in the spec itself ever reach a slot.
    if (!api::Registry::global().hasPlatform(platform))
        api::Registry::global().makePlatform(platform); // throws
    if (!spec.datasetName.empty() &&
        !api::Registry::global().hasDataset(spec.datasetName))
        api::Registry::global().makeDataset(spec.datasetName); // throws
    if (!spec.modelName.empty() &&
        !api::Registry::global().hasModel(spec.modelName))
        api::Registry::global().makeModel(spec.modelName, 1); // throws
}

std::shared_ptr<PricedScenarioCache::Entry>
PricedScenarioCache::slot(const std::string &key, Tally *tally)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = cache_.find(key);
    const bool miss = it == cache_.end();
    if (miss)
        it = cache_.emplace(key, std::make_shared<Entry>()).first;
    ++(miss ? misses_ : hits_);
    if (tally != nullptr)
        ++(miss ? tally->misses : tally->hits);
    return it->second;
}

PricedScenarioCache::Priced
PricedScenarioCache::price(const std::string &platform,
                           const api::RunSpec &spec, Tally *tally)
{
    // The spec JSON echoes every pricing-relevant field (platform,
    // dataset/model/seeds/scale, the full accelerator config including
    // off-default HBM and energy tables, varied parameters, co-batch
    // copies), so it doubles as an exact, human-debuggable key: two
    // instance classes differing in any one config field price apart.
    api::RunSpec keyed = spec;
    keyed.platform = platform;
    const std::string key = toJson(keyed);

    rejectUnresolvable(platform, keyed);

    std::shared_ptr<Entry> entry = slot(key, tally);
    std::call_once(entry->once, [&] {
        try {
            entry->value = Priced::of(
                api::Registry::global().makePlatform(platform)->run(keyed)
                    .report);
        } catch (...) {
            entry->error = std::current_exception();
        }
    });
    if (entry->error)
        std::rethrow_exception(entry->error);
    return entry->value;
}

PricedScenarioCache::Priced
PricedScenarioCache::priceCurve(const std::string &platform,
                                const api::RunSpec &spec,
                                const ServeConfig &config, Tally *tally)
{
    api::RunSpec keyed = spec;
    keyed.platform = platform;

    // Resolve the model before the slot: an unknown cost-model name
    // is registry state, and must stay retryable after registration.
    const std::unique_ptr<BatchCostModel> model =
        api::Registry::global().makeCostModel(config.batching.costModel);
    rejectUnresolvable(platform, keyed);

    std::string key = toJson(keyed);
    key += "\n#cost_model=" + model->name();
    const std::string extra = model->priceKey(config);
    if (!extra.empty())
        key += "#" + extra;
    key += "#max_batch=" + std::to_string(config.batching.maxBatch);

    std::shared_ptr<Entry> entry = slot(key, tally);
    std::call_once(entry->once, [&] {
        try {
            // The unit run is a shared unit entry, so every cost
            // model (and every maxBatch) of the same scenario prices
            // it exactly once. Nested price() calls are safe: the
            // map mutex is never held while a slot fills, and unit
            // slots never price curves. Co-batch runs memoize as
            // unit entries too, so both curves share each one.
            entry->value = assemble(
                price(platform, keyed, tally), *model, config,
                [&](std::uint32_t copies) {
                    api::RunSpec batched = keyed;
                    batched.batchCopies = copies;
                    return price(platform, batched, tally);
                });
        } catch (...) {
            entry->error = std::current_exception();
        }
    });
    if (entry->error)
        std::rethrow_exception(entry->error);
    return entry->value;
}

PricedScenarioCache::Priced
PricedScenarioCache::Priced::of(const SimReport &report)
{
    Priced out;
    out.cyclesByBatch = {report.cycles};
    out.joulesByBatch = {report.joules()};
    out.clockHz = report.clockHz;
    out.weightLoadCycles = report.combWeightLoadCycles;
    out.weightLoadJoules = report.weightLoadJoules();
    return out;
}

PricedScenarioCache::Priced
PricedScenarioCache::assemble(
    const Priced &unit, const BatchCostModel &model,
    const ServeConfig &config,
    const std::function<Priced(std::uint32_t copies)> &measure)
{
    CostModelInputs in;
    in.unitCycles = unit.unitCycles();
    in.weightLoadCycles = unit.weightLoadCycles;
    in.unitJoules = unit.unitJoules();
    in.weightLoadJoules = unit.weightLoadJoules;
    in.maxBatch = config.batching.maxBatch;
    in.marginalFraction = config.batching.marginalFraction;
    in.measuredCycles = [&](std::uint32_t copies) {
        return measure(copies).unitCycles();
    };
    in.measuredJoules = [&](std::uint32_t copies) {
        return measure(copies).unitJoules();
    };
    Priced out = unit;
    out.cyclesByBatch = model.curve(in);
    out.joulesByBatch = model.energyCurve(in);
    return out;
}

std::size_t
PricedScenarioCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return cache_.size();
}

std::uint64_t
PricedScenarioCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::uint64_t
PricedScenarioCache::misses() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

void
PricedScenarioCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    cache_.clear();
    hits_ = 0;
    misses_ = 0;
}

PricedScenarioCache &
PricedScenarioCache::global()
{
    static PricedScenarioCache cache;
    return cache;
}

} // namespace hygcn::serve
