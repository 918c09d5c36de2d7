/**
 * @file
 * Measurement plumbing of the benchmark, kept apart from the
 * workloads so it can be tested on its own: order statistics, byte
 * digests, the per-op pass/fail ledger, and the span tracer that
 * derives self time and writes Chrome trace-event JSON.
 */

#ifndef PERFBENCH_HARNESS_HPP
#define PERFBENCH_HARNESS_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/** Median of @p values (mean of the middle two for even sizes). */
double median(std::vector<double> values);

/** First quartile, median and third quartile. */
struct Quartiles
{
    double q1 = 0.0;
    double q2 = 0.0;
    double q3 = 0.0;
};

/**
 * Quartiles by the rule of Python's statistics.quantiles(values,
 * n=4) (the default "exclusive" method), so the benchmark's own
 * spread figures match the ones its acceptance check computes. A
 * single value is its own quartiles; empty input throws.
 */
Quartiles quartiles(std::vector<double> values);

/**
 * Nearest-rank percentile: the smallest value with at least @p p of
 * the values at or below it (p in (0, 1]). Empty input throws.
 */
double nearestRank(std::vector<double> values, double p);

/** FNV-1a 64-bit digest, fed incrementally. */
class Digest
{
  public:
    Digest &add(std::span<const std::byte> bytes);
    Digest &add(std::string_view text);

    template <class T>
    Digest &addValue(const T &value)
    {
        return add(std::as_bytes(std::span(&value, 1)));
    }

    std::uint64_t value() const { return state_; }

  private:
    std::uint64_t state_ = 0xcbf29ce484222325ull;
};

/**
 * Ops attempted and failed. An op fails when its check fails or when
 * its digest differs from the first digest recorded under its key:
 * every op of a workload is deterministic, so a repeat that differs
 * is wrong even when no oracle covers it.
 */
class OpLedger
{
  public:
    /**
     * Record @p ops ops whose joint result digests to @p digest (a
     * serving pass is many simulated requests); returns false if
     * they counted as failed.
     */
    bool record(const std::string &key, std::uint64_t digest, bool ok,
                std::uint64_t ops = 1);

    /** Count @p ops ops that threw as attempted and failed. */
    void fail(std::uint64_t ops = 1)
    {
        attempted_ += ops;
        failed_ += ops;
    }

    /** Turn @p ops already-recorded passing ops into failures. */
    void markFailed(std::uint64_t ops) { failed_ += ops; }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

  private:
    std::map<std::string, std::uint64_t> first_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** One closed span: [startNs, endNs) on the tracer's clock. */
struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Index of the enclosing span, or -1 at the top level. */
    std::int64_t parent = -1;
};

/** Total and self time of all spans sharing a name. */
struct SpanTotals
{
    std::uint64_t count = 0;
    double totalNs = 0.0;
    /** Total minus the time covered by direct children. */
    double selfNs = 0.0;
};

/**
 * In-memory span recorder for one thread. Spans nest by a stack, so
 * a span's parent is the span open when it began. Disabled tracers
 * record nothing, which keeps untraced runs free of its cost.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span; returns its index (-1 when disabled). */
    std::int64_t begin(std::string name);

    /** Close span @p index (must be the innermost open span). */
    void end(std::int64_t index);

    /** Record an already-closed span (used by tests). */
    std::int64_t add(Span span);

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Per-name totals, with self time = duration minus the union of
     * the direct children's intervals clipped to the parent.
     */
    std::map<std::string, SpanTotals> totals() const;

    /** Chrome trace-event JSON ("X" complete events, microseconds). */
    std::string chromeJson() const;

  private:
    std::int64_t nowNs() const;

    bool enabled_;
    std::chrono::steady_clock::time_point origin_ =
        std::chrono::steady_clock::now();
    std::vector<Span> spans_;
    std::vector<std::int64_t> open_;
};

/** RAII span on a Tracer. */
class Scoped
{
  public:
    Scoped(Tracer &tracer, std::string name)
        : tracer_(tracer), index_(tracer.begin(std::move(name)))
    {}
    ~Scoped() { tracer_.end(index_); }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

  private:
    Tracer &tracer_;
    std::int64_t index_;
};

/** Seconds on the steady clock since @p start. */
inline double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HPP
