#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

double
median(std::vector<double> values)
{
    if (values.empty())
        throw std::invalid_argument("median of no values");
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Quartiles
quartiles(std::vector<double> values)
{
    if (values.empty())
        throw std::invalid_argument("quartiles of no values");
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    if (n == 1)
        return {values[0], values[0], values[0]};
    // statistics.quantiles(method="exclusive"): m = n + 1, cut i at
    // j = i*m // 4 clamped into [1, n-1], weighted by delta = i*m - 4j
    // on the upper point (delta leaves [0, 4] only when j was
    // clamped, which extrapolates exactly as Python does).
    const auto ln = static_cast<std::int64_t>(n);
    const std::int64_t m = ln + 1;
    double cut[3];
    for (std::int64_t i = 1; i <= 3; ++i) {
        const std::int64_t j = std::clamp<std::int64_t>(i * m / 4, 1, ln - 1);
        const std::int64_t delta = i * m - j * 4;
        const auto lo = static_cast<std::size_t>(j - 1);
        cut[i - 1] = (values[lo] * static_cast<double>(4 - delta) +
                      values[lo + 1] * static_cast<double>(delta)) /
                     4.0;
    }
    return {cut[0], cut[1], cut[2]};
}

double
nearestRank(std::vector<double> values, double p)
{
    if (values.empty() || !(p > 0.0 && p <= 1.0))
        throw std::invalid_argument(
            "nearestRank: empty input or p outside (0, 1]");
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(values.size())));
    return values[std::max<std::size_t>(rank, 1) - 1];
}

Digest &
Digest::add(std::span<const std::byte> bytes)
{
    for (std::byte b : bytes) {
        state_ ^= static_cast<std::uint64_t>(b);
        state_ *= 0x100000001b3ull;
    }
    return *this;
}

Digest &
Digest::add(std::string_view text)
{
    return add(std::as_bytes(std::span(text.data(), text.size())));
}

bool
OpLedger::record(const std::string &key, std::uint64_t digest, bool ok,
                 std::uint64_t ops)
{
    attempted_ += ops;
    const auto [it, inserted] = first_.emplace(key, digest);
    if (!inserted && it->second != digest)
        ok = false;
    if (!ok)
        failed_ += ops;
    return ok;
}

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

std::int64_t
Tracer::begin(std::string name)
{
    if (!enabled_)
        return -1;
    Span span;
    span.name = std::move(name);
    span.parent = open_.empty() ? -1 : open_.back();
    span.startNs = nowNs();
    spans_.push_back(std::move(span));
    const auto index = static_cast<std::int64_t>(spans_.size()) - 1;
    open_.push_back(index);
    return index;
}

void
Tracer::end(std::int64_t index)
{
    if (index < 0)
        return;
    if (open_.empty() || open_.back() != index)
        throw std::logic_error("tracer: spans closed out of order");
    spans_[static_cast<std::size_t>(index)].endNs = nowNs();
    open_.pop_back();
}

std::int64_t
Tracer::add(Span span)
{
    spans_.push_back(std::move(span));
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::map<std::string, SpanTotals>
Tracer::totals() const
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
        children(spans_.size());
    for (const Span &span : spans_)
        if (span.parent >= 0)
            children[static_cast<std::size_t>(span.parent)].emplace_back(
                span.startNs, span.endNs);

    std::map<std::string, SpanTotals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        const std::int64_t duration = span.endNs - span.startNs;
        // Union of the children's intervals, clipped to the parent.
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        std::int64_t covered = 0;
        std::int64_t reach = span.startNs;
        for (auto [start, end] : kids) {
            start = std::max(start, reach);
            end = std::min(end, span.endNs);
            if (end > start) {
                covered += end - start;
                reach = end;
            }
        }
        SpanTotals &totals = out[span.name];
        ++totals.count;
        totals.totalNs += static_cast<double>(duration);
        totals.selfNs += static_cast<double>(duration - covered);
    }
    return out;
}

std::string
Tracer::chromeJson() const
{
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[96];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        if (i)
            out += ",";
        out += "{\"name\":\"";
        out += span.name; // span names are plain identifiers
        std::snprintf(buf, sizeof(buf),
                      "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                      "\"ts\":%.3f,\"dur\":%.3f}",
                      static_cast<double>(span.startNs) / 1e3,
                      static_cast<double>(span.endNs - span.startNs) /
                          1e3);
        out += buf;
    }
    out += "]}\n";
    return out;
}

} // namespace perfbench
