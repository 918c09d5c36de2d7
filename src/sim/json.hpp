/**
 * @file
 * JSON serialization for everything the simulator hands to tooling:
 * run specs and reports, sweeps, serving configs and results,
 * seed-aggregated serving sweeps, and the bench harnesses' BENCH_*
 * documents. Every document goes through one JsonWriter, which owns
 * the format (separators, escaping, number precision); it is a
 * writer only, not a general JSON library.
 */

#ifndef HYGCN_SIM_JSON_HPP
#define HYGCN_SIM_JSON_HPP

#include <charconv>
#include <concepts>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/report.hpp"

namespace hygcn::api {
struct RunSpec;
struct RunResult;
struct AggregateStat;
struct ServeAggregate;
} // namespace hygcn::api

namespace hygcn::serve {
struct ServeConfig;
struct ServeResult;
} // namespace hygcn::serve

namespace hygcn {

/** Escape a string for inclusion in a JSON document. */
std::string jsonEscape(const std::string &text);

/**
 * Appends one compact JSON document to a string. Separators are
 * placed automatically; strings and keys are escaped; doubles print
 * with %.9g (exact() prints %.17g, which round-trips), integers in
 * full. Nesting is not checked: begin and end calls must pair up.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::size_t reserve = 256) { out_.reserve(reserve); }

    JsonWriter &beginObject() { return open('{'); }
    JsonWriter &endObject() { return close('}'); }
    JsonWriter &beginArray() { return open('['); }
    JsonWriter &endArray() { return close(']'); }

    /** Start member @p name of the enclosing object. */
    JsonWriter &key(std::string_view name);

    JsonWriter &value(std::string_view text);
    JsonWriter &value(const char *text)
    {
        return value(std::string_view(text));
    }
    JsonWriter &value(bool flag) { return literal(flag ? "true" : "false"); }
    JsonWriter &value(double number);

    template <std::integral T>
    JsonWriter &value(T number)
    {
        char buf[24];
        const char *end = std::to_chars(buf, buf + sizeof(buf), number).ptr;
        return literal({buf, static_cast<std::size_t>(end - buf)});
    }

    /** A vector as an array; nested vectors nest. */
    template <typename T>
    JsonWriter &value(const std::vector<T> &items)
    {
        beginArray();
        for (const T &item : items)
            value(item);
        return endArray();
    }

    /** A string-keyed map as an object, in the map's key order. */
    template <typename T>
    JsonWriter &value(const std::map<std::string, T> &members)
    {
        beginObject();
        for (const auto &[name, v] : members)
            field(name, v);
        return endObject();
    }

    /** A double printed with %.17g, so it parses back bit-exactly. */
    JsonWriter &exact(double number);

    /** An already-serialized JSON value, spliced in as is. */
    JsonWriter &raw(std::string_view json) { return literal(json); }

    /** An array of @p items, each written by @p each(item). */
    template <typename Range, typename Each>
    JsonWriter &array(const Range &items, Each &&each)
    {
        beginArray();
        for (const auto &item : items)
            each(item);
        return endArray();
    }

    template <typename T>
    JsonWriter &field(std::string_view name, const T &v)
    {
        key(name);
        return value(v);
    }

    /** field(@p name, @p v) when @p emit, nothing otherwise. */
    template <typename T>
    JsonWriter &fieldIf(bool emit, std::string_view name, const T &v)
    {
        return emit ? field(name, v) : *this;
    }

    const std::string &str() const { return out_; }
    std::string take() { return std::move(out_); }

  private:
    JsonWriter &open(char bracket);
    JsonWriter &close(char bracket);
    /** Append an already-formatted scalar after any separator. */
    JsonWriter &literal(std::string_view text);

    std::string out_;
    /** The next value or key follows a sibling and needs a comma. */
    bool sibling_ = false;
};

/**
 * Serialize @p report as a single JSON object: platform, cycles,
 * seconds, joules, energy components (pJ), counters, and gauges.
 */
std::string toJson(const SimReport &report);

/**
 * Serialize @p spec as a JSON object: platform, dataset, model,
 * seeds, run mode flags, and the varied sweep parameters.
 */
std::string toJson(const api::RunSpec &spec);

/** Serialize one run: the spec echo plus its report. */
std::string toJson(const api::RunResult &result);

/**
 * Serialize a whole sweep as a JSON array, one element per run with
 * its spec echoed, so plotting scripts can consume sweep output
 * directly. Deterministic in the sweep's expansion order.
 */
std::string toJson(const std::vector<api::RunResult> &sweep);

/**
 * Serialize a serving config: platform, scenarios, tenants, arrival
 * process, and batching knobs.
 */
std::string toJson(const serve::ServeConfig &config);

/**
 * Serialize a serving run: the config echo, aggregate stats
 * (throughput, utilization, latency percentiles), per-scenario unit
 * service cycles, and — when @p per_request — the full per-request
 * and per-batch trace. Deterministic in the config.
 */
std::string toJson(const serve::ServeResult &result,
                   bool per_request = true);

/**
 * Serialize a seed-aggregated sweep (ServeSweep::runAggregated()) as
 * a JSON array: one element per sweep point with its config echoed,
 * the seeds aggregated over, and mean/stddev/min/max error bars per
 * headline metric. Deterministic in the sweep's expansion order.
 */
std::string toJson(const std::vector<api::ServeAggregate> &aggregates);

} // namespace hygcn

#endif // HYGCN_SIM_JSON_HPP
