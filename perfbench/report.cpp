#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace mdes::perfbench {

namespace {

/** 1-based nearest rank of percentile @p pct among @p n samples. */
size_t
nearestRank(size_t n, double pct)
{
    double r = std::ceil(pct / 100.0 * double(n));
    return std::clamp(size_t(std::max(r, 1.0)), size_t(1), n);
}

} // namespace

Percentile
percentile(std::vector<double> &samples, double pct)
{
    Percentile p;
    p.samples = samples.size();
    if (samples.empty())
        return p;
    std::sort(samples.begin(), samples.end());
    size_t rank = nearestRank(samples.size(), pct);
    p.value = samples[rank - 1];
    p.pct = pct;
    return p;
}

Percentile
tailPercentile(std::vector<double> &samples, double pct)
{
    Percentile p;
    const size_t n = samples.size();
    p.samples = n;
    if (n == 0)
        return p;
    std::sort(samples.begin(), samples.end());
    if (n <= kMinTailSamples) {
        p.value = samples.back();
        p.pct = 100;
        return p;
    }
    size_t rank = std::min(nearestRank(n, pct), n - kMinTailSamples);
    p.value = samples[rank - 1];
    // The highest percentile whose nearest rank is still `rank`.
    p.pct = std::min(pct, 100.0 * double(rank) / double(n));
    return p;
}

double
median(std::vector<double> values)
{
    return values.empty() ? 0 : percentile(values, 50).value;
}

void
Windows::add(double work, double latency_ms)
{
    open_.work += work;
    pending_ms_.push_back(latency_ms);
}

void
Windows::stretch(double seconds, double speed)
{
    for (double ms : pending_ms_)
        open_ms_.push_back(ms * speed);
    open_.requests += pending_ms_.size();
    pending_ms_.clear();
    open_.seconds += seconds;
    open_.scaled_seconds += seconds * speed;
}

void
Windows::close()
{
    if (!open_ms_.empty()) {
        open_.tail = tailPercentile(open_ms_, kTailPct);
        open_.p50 = percentile(open_ms_, 50).value;
    }
    windows_.push_back(open_);
    open_ = Window{};
    open_ms_.clear();
}

double
Windows::medianRate() const
{
    std::vector<double> rates;
    for (const Window &w : windows_)
        rates.push_back(w.work / w.scaled_seconds);
    return median(rates);
}

double
Windows::medianRequestRate() const
{
    std::vector<double> rates;
    for (const Window &w : windows_)
        rates.push_back(double(w.requests) / w.scaled_seconds);
    return median(rates);
}

double
Windows::medianP50() const
{
    std::vector<double> p50s;
    for (const Window &w : windows_)
        if (w.requests)
            p50s.push_back(w.p50);
    return median(p50s);
}

Percentile
Windows::medianTail() const
{
    std::vector<Percentile> tails;
    for (const Window &w : windows_)
        if (w.requests)
            tails.push_back(w.tail);
    if (tails.empty())
        return {};
    std::sort(tails.begin(), tails.end(),
              [](const Percentile &a, const Percentile &b) {
                  return a.value < b.value;
              });
    // The lower middle, as percentile() ranks a median.
    return tails[(tails.size() - 1) / 2];
}

double
Windows::rawRate() const
{
    double work = 0, seconds = 0;
    for (const Window &w : windows_) {
        work += w.work;
        seconds += w.seconds;
    }
    return seconds > 0 ? work / seconds : 0;
}

double
Windows::medianSpeed() const
{
    std::vector<double> speeds;
    for (const Window &w : windows_)
        speeds.push_back(w.scaled_seconds / w.seconds);
    return median(speeds);
}

void
Tally::merge(const Tally &other)
{
    attempted += other.attempted;
    errors += other.errors;
    mismatches += other.mismatches;
}

double
Tally::errorRate() const
{
    return attempted ? double(failed()) / double(attempted) : 0;
}

double
Tally::okRate() const
{
    return attempted ? 1.0 - errorRate() : 0;
}

double
layerCoverage(const std::vector<double> &layer_times, double end_to_end)
{
    if (!(end_to_end > 0))
        return 0;
    double sum = 0;
    for (double t : layer_times)
        sum += t;
    return sum / end_to_end;
}

double
traceOverheadPct(double plain_rate, double traced_rate)
{
    if (!(plain_rate > 0) || !(traced_rate > 0))
        return 0;
    return 100.0 * (plain_rate / traced_rate - 1.0);
}

std::string
formatNumber(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
resultLine(const Tally &tally, const Metrics &metrics)
{
    std::string out = "{\"correct\": ";
    out += tally.correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(tally.attempted);
    out += ", \"failed\": " + std::to_string(tally.failed());
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : metrics) {
        if (!first)
            out += ", ";
        first = false;
        out += "\"" + name + "\": {\"value\": " + formatNumber(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
}

} // namespace mdes::perfbench
